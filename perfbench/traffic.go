package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"

	"netkit/internal/filter"
	"netkit/packet"
)

// Every frame the generator emits is a pure function of (seed, seq): the
// schedule maps seq to a flow and a size class, and the frame carries seq
// plus a seq-derived check word in its payload. The sink recomputes all of
// it, so the oracle needs no per-frame record of what was sent.

const (
	hdrLen   = packet.IPv4HeaderLen + packet.UDPHeaderLen // 28
	seqOff   = hdrLen                                     // 8-byte sequence number
	tagOff   = hdrLen + 8                                 // 8-byte check word
	minFrame = tagOff + 8                                 // 44
	initTTL  = 64
	schedLen = 1 << 20

	// Output ports of the classifier workloads. A frame's TTL on arrival
	// tells the sink which port it left by: portA runs one IPv4Proc,
	// portB two, the default port none.
	portA       = "a"
	portB       = "b"
	portDefault = "default"
)

// trafficSpec is one workload's input shape.
type trafficSpec struct {
	flows     int
	zipf      float64 // Zipf exponent of flow popularity; 0 = uniform
	sizes     []int   // IPv4 total length of each size class
	weights   []int   // relative frequency of each size class
	rules     int     // classifier rules (0 = no classifier)
	dportSpan int     // destination ports drawn from [dportBase, dportBase+span)
}

const dportBase = 20000

// imix is the simple 7:4:1 IMIX.
var (
	imixSizes   = []int{64, 576, 1500}
	imixWeights = []int{7, 4, 1}
)

// flow is one generated 5-tuple.
type flow struct {
	src, dst     netip.Addr
	sport, dport uint16
}

// traffic is the generated input of one run.
type traffic struct {
	spec  trafficSpec
	seed  uint64
	flows []flow
	// sched[seq%schedLen] = flow<<2 | size class.
	sched []uint16
	// hdr[flow*len(sizes)+class] is the frame's IPv4+UDP header.
	hdr [][hdrLen]byte
	// rules are the classifier filter specs in priority order, and
	// verdict[flow] the port the reference VM picks for each flow.
	rules   []ruleSpec
	outputs []string
	verdict []string
}

// ruleSpec is one classifier rule: a filter spec and its output port.
type ruleSpec struct{ spec, out string }

// splitmix64 is the generator's only source of randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s += 0x9e3779b97f4a7c15; return splitmix64(r.s) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// checkWord is the per-frame payload word the oracle uses to detect a
// corrupted sequence number or payload.
func checkWord(seed, seq uint64) uint64 { return splitmix64(seed ^ (seq * 0xd6e8feb86659fd93)) }

// newTraffic generates flows, the frame schedule, the classifier rules and
// each flow's reference verdict. It is deterministic in (spec, seed).
func newTraffic(spec trafficSpec, seed uint64) (*traffic, error) {
	if spec.flows < 1 || spec.flows > 1<<14 {
		return nil, fmt.Errorf("flows %d out of range", spec.flows)
	}
	if len(spec.sizes) == 0 || len(spec.sizes) > 4 || len(spec.sizes) != len(spec.weights) {
		return nil, fmt.Errorf("bad size classes")
	}
	t := &traffic{spec: spec, seed: seed}
	r := &rng{s: seed}
	seen := make(map[flow]bool, spec.flows)
	for len(t.flows) < spec.flows {
		v := r.next()
		f := flow{
			src:   netip.AddrFrom4([4]byte{10, byte(v >> 8), byte(v >> 16), byte(v >> 24)}),
			dst:   netip.AddrFrom4([4]byte{192, 168, byte(v >> 32), byte(v >> 40)}),
			sport: uint16(1024 + (v>>48)%60000),
			dport: uint16(dportBase + r.next()%uint64(spec.dportSpan)),
		}
		if !seen[f] {
			seen[f] = true
			t.flows = append(t.flows, f)
		}
	}
	for fi, f := range t.flows {
		for _, size := range spec.sizes {
			raw, err := packet.BuildUDP4(f.src, f.dst, f.sport, f.dport, initTTL, make([]byte, size-hdrLen))
			if err != nil {
				return nil, fmt.Errorf("flow %d: %w", fi, err)
			}
			var h [hdrLen]byte
			copy(h[:], raw)
			t.hdr = append(t.hdr, h)
		}
	}
	t.sched = makeSchedule(spec, r)
	if spec.rules > 0 {
		if err := t.classify(r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// makeSchedule draws each schedule slot's flow (Zipf or uniform) and size
// class.
func makeSchedule(spec trafficSpec, r *rng) []uint16 {
	cdf := make([]float64, spec.flows)
	sum := 0.0
	for i := range cdf {
		w := 1.0
		if spec.zipf > 0 {
			w = 1 / math.Pow(float64(i+1), spec.zipf)
		}
		sum += w
		cdf[i] = sum
	}
	wsum := 0
	for _, w := range spec.weights {
		wsum += w
	}
	sched := make([]uint16, schedLen)
	for i := range sched {
		u := r.float() * sum
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] > u {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		c, pick := 0, int(r.next()%uint64(wsum))
		for pick >= spec.weights[c] {
			pick -= spec.weights[c]
			c++
		}
		sched[i] = uint16(lo<<2 | c)
	}
	return sched
}

// classify builds the rule set and computes every flow's reference verdict
// with the filter VM (the linear interpreter the compiled classifier is
// checked against), before any timed phase.
func (t *traffic) classify(r *rng) error {
	t.outputs = []string{portA, portB, portDefault}
	tbl := filter.NewTable()
	for i := 0; i < t.spec.rules; i++ {
		port := dportBase + i
		spec := fmt.Sprintf("udp and dst port %d", port)
		if i%4 == 0 {
			// A second tuple space: the rule also pins a source /16.
			spec = fmt.Sprintf("src net 10.%d.0.0/16 and udp and dst port %d", r.next()%256, port)
		}
		out := portA
		if r.next()%2 == 0 {
			out = portB
		}
		if _, err := tbl.Add(spec, i, out); err != nil {
			return fmt.Errorf("rule %q: %w", spec, err)
		}
		t.rules = append(t.rules, ruleSpec{spec, out})
	}
	t.verdict = make([]string, len(t.flows))
	for fi := range t.flows {
		raw := t.frame(make([]byte, t.spec.sizes[0]), uint64(fi), fi, 0)
		v := filter.Extract(raw)
		out, ok := tbl.LookupViewVM(&v)
		if !ok {
			out = portDefault
		}
		t.verdict[fi] = out
	}
	return nil
}

// slot returns the flow and size class of seq.
func (t *traffic) slot(seq uint64) (fl, class int) {
	s := t.sched[seq&(schedLen-1)]
	return int(s >> 2), int(s & 3)
}

// frame writes the frame of (seq, flow, class) into buf, which must be at
// least the class size long, and returns it.
func (t *traffic) frame(buf []byte, seq uint64, fl, class int) []byte {
	n := t.spec.sizes[class]
	buf = buf[:n]
	copy(buf, t.hdr[fl*len(t.spec.sizes)+class][:])
	binary.LittleEndian.PutUint64(buf[seqOff:], seq)
	binary.LittleEndian.PutUint64(buf[tagOff:], checkWord(t.seed, seq))
	return buf
}

// frameOf writes seq's scheduled frame into buf.
func (t *traffic) frameOf(buf []byte, seq uint64) []byte {
	fl, c := t.slot(seq)
	return t.frame(buf, seq, fl, c)
}

// maxSize is the largest frame the traffic contains.
func (t *traffic) maxSize() int {
	m := 0
	for _, s := range t.spec.sizes {
		if s > m {
			m = s
		}
	}
	return m
}

// expectedTTL is the TTL a frame of flow fl must carry at the sink, given
// how many TTL decrements the plane applies before the classifier.
func (t *traffic) expectedTTL(fl, fixed int) byte {
	dec := fixed
	if t.verdict != nil {
		switch t.verdict[fl] {
		case portA:
			dec++
		case portB:
			dec += 2
		}
	}
	return byte(initTTL - dec)
}
