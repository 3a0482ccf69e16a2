package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"netkit/router"
)

// Tracing: spans are recorded from the benchmark's own code, around its
// calls into each layer's public functions. Nothing inside the program is
// instrumented. Each goroutine that records spans owns a track; a track
// closes a span tree when its outermost span ends, computes every span's
// self time (its duration minus the part of it its children cover), and
// folds the tree into the tracer's per-layer totals. The first keepSpans
// spans are also kept for the Chrome trace export.

type layer uint8

const (
	lInject layer = iota
	lFuse
	lDispatch
	lUDPTx
	lSink
	lIntercept
	lHotswap
	lRescale
	lRuleUpdate
	lStatsSnap
	nLayers
)

var layerNames = [nLayers]string{
	"harness.inject", "router.fuse", "router.shard.dispatch", "osabs.udp.tx", "harness.sink",
	"core.intercept", "router.hotswap", "router.rescale", "filter.rule_update", "core.stats_snapshot",
}

// keepSpans bounds the spans kept for export; per-layer totals cover all.
const keepSpans = 100000

type span struct {
	layer      layer
	track      uint8
	parent     int32 // index in the same tree, -1 for the root
	n          uint32
	batch      uint64
	start, end int64
}

// layerTotals accumulates one layer's spans.
type layerTotals struct {
	spans uint64
	pkts  uint64
	self  int64 // summed self time, ns
	dur   hist  // per-span duration
}

type tracer struct {
	mu     sync.Mutex
	layers [nLayers]layerTotals
	kept   []span
	tracks uint8
	self   []int64 // reused by fold
}

func newTracer() *tracer { return &tracer{} }

// track returns a new span track for one goroutine.
func (t *tracer) track() *track {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracks++
	return &track{t: t, id: t.tracks}
}

type track struct {
	t     *tracer
	id    uint8
	spans []span
	open  []int32
}

// begin opens a span now.
func (k *track) begin(l layer, batch uint64, n int) int32 {
	return k.beginAt(l, batch, n, router.Nanotime())
}

// beginAt opens a span that started at start; its parent is the innermost
// open span of the track.
func (k *track) beginAt(l layer, batch uint64, n int, start int64) int32 {
	parent := int32(-1)
	if len(k.open) > 0 {
		parent = k.open[len(k.open)-1]
	}
	k.spans = append(k.spans, span{layer: l, track: k.id, parent: parent, n: uint32(n), batch: batch, start: start})
	i := int32(len(k.spans) - 1)
	k.open = append(k.open, i)
	return i
}

// end closes span i (the innermost open one) now.
func (k *track) end(i int32) { k.endAt(i, router.Nanotime()) }

// endAt closes span i at t; closing the outermost span folds the tree
// into the tracer.
func (k *track) endAt(i int32, t int64) {
	k.spans[i].end = t
	k.open = k.open[:len(k.open)-1]
	if len(k.open) == 0 {
		k.t.fold(k.spans)
		k.spans = k.spans[:0]
	}
}

// fold adds one closed span tree to the per-layer totals.
func (t *tracer) fold(spans []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.self = selfTimesInto(t.self[:0], spans)
	self := t.self
	for i, s := range spans {
		lt := &t.layers[s.layer]
		lt.spans++
		lt.pkts += uint64(s.n)
		lt.self += self[i]
		lt.dur.add(uint64(max64(s.end-s.start, 0)))
	}
	if len(t.kept)+len(spans) <= keepSpans {
		base := int32(len(t.kept))
		for _, s := range spans {
			if s.parent >= 0 {
				s.parent += base // export parents as global span indices
			}
			t.kept = append(t.kept, s)
		}
	}
}

// selfTimes returns each span's self time: its duration minus the length
// of the union of its children's intervals, clipped to its own.
func selfTimes(spans []span) []int64 { return selfTimesInto(nil, spans) }

// selfTimesInto is selfTimes appending to self, without allocating for
// the small trees the benchmark records.
func selfTimesInto(self []int64, spans []span) []int64 {
	var buf [8][2]int64
	for i, s := range spans {
		iv := buf[:0]
		for _, c := range spans {
			if c.parent == int32(i) {
				lo, hi := max64(c.start, s.start), min64(c.end, s.end)
				if hi > lo {
					iv = append(iv, [2]int64{lo, hi})
				}
			}
		}
		self = append(self, s.end-s.start-unionLen(iv))
	}
	return self
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	for i := 1; i < len(iv); i++ { // insertion sort: trees are tiny
		for j := i; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max64(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// record adds one stand-alone call of layer l from start to end: a span
// with no children, recorded by a goroutine that keeps no track.
func (t *tracer) record(l layer, start, end int64) {
	one := [1]span{{layer: l, parent: -1, start: start, end: end}}
	t.fold(one[:])
}

// selfPerPkt returns layer l's self time per packet, in ns.
func (t *tracer) selfPerPkt(l layer) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := &t.layers[l]
	if lt.pkts == 0 {
		return 0
	}
	return float64(lt.self) / float64(lt.pkts)
}

// callQuantile returns the q-quantile of layer l's span durations, in µs.
func (t *tracer) callQuantile(l layer, q float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.layers[l].dur.quantile(q) / 1e3
}

// writeChrome writes the kept spans as Chrome trace-event JSON ("X"
// complete events, timestamps in µs), loadable in chrome://tracing or
// Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.kept))
	for _, s := range t.kept {
		events = append(events, event{
			Name: layerNames[s.layer], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: int(s.track),
			Args: map[string]any{"batch": s.batch, "packets": s.n, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
