package main

import "math/bits"

// hist is the harness's own log-linear histogram of nanosecond values:
// exact below 64, then 32 sub-buckets per power of two (about 3% bucket
// width) up to histMax, with quantiles interpolated inside the bucket. It
// is not goroutine-safe; each owner guards its own.
type hist struct {
	n uint64
	b [histBuckets]uint64
}

const (
	histSub = 32
	// histMax caps recorded values at about 137 s.
	histMax     = 1<<37 - 1
	histBuckets = 33 * histSub
)

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	if v > histMax {
		v = histMax
	}
	e := bits.Len64(v) - 6 // v>>e lands in [32, 64)
	return e*histSub + int(v>>e)
}

// histBounds returns bucket i's value range [lo, hi).
func histBounds(i int) (lo, hi uint64) {
	if i < 2*histSub {
		return uint64(i), uint64(i) + 1
	}
	e := i/histSub - 1
	m := uint64(i%histSub + histSub)
	return m << e, (m + 1) << e
}

func (h *hist) add(v uint64) {
	h.b[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.b {
		h.b[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated linearly inside its bucket;
// 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	cum := 0.0
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, hi := histBounds(i)
			frac := (rank - cum + 0.5) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += float64(c)
	}
	lo, _ := histBounds(histBuckets - 1)
	return float64(lo)
}

// beyond reports how many samples lie strictly above the q-quantile's
// rank: the support a percentile has.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(q*float64(h.n))
}
