package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"netkit/core"
	"netkit/packet"
	"netkit/router"
)

func TestTrafficDeterministic(t *testing.T) {
	spec := workloads[1].spec // shard-imix: Zipf, IMIX, rules
	a, err := newTraffic(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newTraffic(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newTraffic(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	bufA, bufB := make([]byte, a.maxSize()), make([]byte, b.maxSize())
	same := true
	for seq := uint64(0); seq < 5000; seq++ {
		if !bytes.Equal(a.frameOf(bufA, seq), b.frameOf(bufB, seq)) {
			t.Fatalf("seq %d: frames differ for one seed", seq)
		}
		fa, _ := a.slot(seq)
		fc, _ := c.slot(seq)
		if a.flows[fa] != c.flows[fc] {
			same = false
		}
	}
	for i := range a.verdict {
		if a.verdict[i] != b.verdict[i] || a.flows[i] != b.flows[i] {
			t.Fatalf("flow %d: verdict or tuple differs for one seed", i)
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 generated the same flow sequence")
	}
}

// oracleSink returns a sink over fwd-64b traffic that expects TTL 63.
func oracleSink(t *testing.T) (*sink, *traffic) {
	t.Helper()
	w := workloads[0]
	tr, err := newTraffic(w.spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSink(tr, w.oracle, w.batch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	s.due = func(uint64, *router.Packet) int64 { return 0 }
	s.issued.Store(1 << 20)
	return s, tr
}

// forwarded returns seq's frame as the fwd-64b plane delivers it.
func forwarded(t *testing.T, tr *traffic, seq uint64) []byte {
	t.Helper()
	f := tr.frameOf(make([]byte, tr.maxSize()), seq)
	if err := packet.DecrementTTL(f); err != nil {
		t.Fatal(err)
	}
	return f
}

func deliver(s *sink, frames ...[]byte) {
	b := make([]*router.Packet, len(frames))
	for i, f := range frames {
		b[i] = router.NewPacket(f)
	}
	_ = s.PushBatch(b)
}

// sameFlow returns two sequence numbers, lo < hi, of one flow.
func sameFlow(tr *traffic) (lo, hi uint64) {
	first := map[int]uint64{}
	for seq := uint64(0); ; seq++ {
		fl, _ := tr.slot(seq)
		if prev, ok := first[fl]; ok {
			return prev, seq
		}
		first[fl] = seq
	}
}

func TestOracleTrips(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		s, tr := oracleSink(t)
		for seq := uint64(0); seq < 1000; seq++ {
			deliver(s, forwarded(t, tr, seq))
		}
		if n, kinds := s.oracleErrors(); n != 0 {
			t.Fatalf("clean stream: %d errors %v", n, kinds)
		}
	})
	cases := []struct {
		name   string
		kind   int
		frames func(t *testing.T, tr *traffic) [][]byte
	}{
		{"duplicate", errDup, func(t *testing.T, tr *traffic) [][]byte {
			return [][]byte{forwarded(t, tr, 3), forwarded(t, tr, 3)}
		}},
		{"reorder", errReorder, func(t *testing.T, tr *traffic) [][]byte {
			lo, hi := sameFlow(tr)
			return [][]byte{forwarded(t, tr, hi), forwarded(t, tr, lo)}
		}},
		{"corrupt-seq", errCorrupt, func(t *testing.T, tr *traffic) [][]byte {
			f := forwarded(t, tr, 9)
			f[seqOff] ^= 1
			return [][]byte{f}
		}},
		{"corrupt-address", errCorrupt, func(t *testing.T, tr *traffic) [][]byte {
			f := forwarded(t, tr, 9)
			f[13] ^= 0x80
			return [][]byte{f}
		}},
		{"checksum", errChecksum, func(t *testing.T, tr *traffic) [][]byte {
			f := forwarded(t, tr, 9)
			f[11] ^= 0xff
			return [][]byte{f}
		}},
		{"ttl", errTTL, func(t *testing.T, tr *traffic) [][]byte {
			return [][]byte{tr.frameOf(make([]byte, tr.maxSize()), 9)} // never decremented
		}},
		{"unknown", errUnknown, func(t *testing.T, tr *traffic) [][]byte {
			return [][]byte{forwarded(t, tr, 1<<21)}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, tr := oracleSink(t)
			deliver(s, c.frames(t, tr)...)
			n, kinds := s.oracleErrors()
			if n != 1 || kinds[c.kind] != 1 {
				t.Fatalf("want one %s error, got %d: %v", errNames[c.kind], n, kinds)
			}
		})
	}
}

func TestOraclePort(t *testing.T) {
	w := workloads[2] // reconfig-live: classifier ports encoded in the TTL
	tr, err := newTraffic(w.spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSink(tr, w.oracle, w.batch)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.due = func(uint64, *router.Packet) int64 { return 0 }
	s.issued.Store(1 << 20)
	for seq := uint64(0); seq < 200; seq++ {
		fl, _ := tr.slot(seq)
		f := tr.frameOf(make([]byte, tr.maxSize()), seq)
		hops := int(initTTL - tr.expectedTTL(fl, 0))
		if seq == 100 {
			hops = (hops + 1) % 3 // the wrong port
		}
		for i := 0; i < hops; i++ {
			if err := packet.DecrementTTL(f); err != nil {
				t.Fatal(err)
			}
		}
		deliver(s, f)
	}
	if n, kinds := s.oracleErrors(); n != 1 || kinds[errPort] != 1 {
		t.Fatalf("want one port error, got %d: %v", n, kinds)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 30},
		{parent: 0, start: 20, end: 50},  // overlaps its sibling
		{parent: 0, start: 90, end: 120}, // runs past its parent
		{parent: 1, start: 12, end: 14},  // grandchild: not the root's
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 2, 30, 30, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d: self %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
}

// stallOnce is a plane that hands batches straight to the sink but blocks
// once, for stall, on its fifth batch.
type stallOnce struct {
	*core.Base
	s       *sink
	n       int
	stall   time.Duration
	stalled bool
}

func (p *stallOnce) Push(pk *router.Packet) error {
	return p.PushBatch([]*router.Packet{pk})
}

func (p *stallOnce) PushBatch(b []*router.Packet) error {
	p.n++
	if p.n == 5 && !p.stalled {
		p.stalled = true
		time.Sleep(p.stall)
	}
	return p.s.PushBatch(b)
}

// TestOpenLoopStallShows is the coordinated-omission check: a plane that
// stalls once must show the stall in open-loop latency, because every
// frame due while it stalled is timed from its due time, not from when
// the blocked generator finally sent it.
func TestOpenLoopStallShows(t *testing.T) {
	w := &workload{name: "stall", spec: workloads[0].spec, oracle: oracleCfg{owned: true},
		batch: 10, rate: 20000}
	tr, err := newTraffic(w.spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSink(tr, w.oracle, w.batch)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	const stall = 30 * time.Millisecond
	pl := &stallOnce{Base: core.NewBase("stall"), s: s, stall: stall}
	d := newLoadgen(w, tr, &plane{sink: s, entry: pl})
	d.startSchedule()
	ph, err := d.run(300*time.Millisecond, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	lat := &ph.windows.w[0].lat
	// 30 ms of a 300 ms schedule fell behind the stall: about a tenth of
	// the frames waited, the first of them the whole stall.
	if p99 := time.Duration(lat.quantile(0.99)); p99 < stall/2 {
		t.Fatalf("p99 %v hides a %v stall", p99, stall)
	}
	if p50 := time.Duration(lat.quantile(0.5)); p50 > stall/10 {
		t.Fatalf("p50 %v: the stall leaked into the median", p50)
	}
}

func TestConservationFlagsLeak(t *testing.T) {
	node := func(name string, in, out, dropped uint64) core.StatNode {
		return core.StatNode{Name: name, Stats: []core.Stat{
			core.C("packets_in", "packets", in), core.C("packets_out", "packets", out),
			core.C("packets_dropped", "packets", dropped), core.C("errors", "errors", 0),
		}}
	}
	tree := core.StatNode{Name: "c", Children: []core.StatNode{
		node("cls", 10, 10, 0), node("a", 6, 6, 0), node("b", 4, 3, 1), node("join", 9, 9, 0),
	}}
	edges := []edge{{"cls", "a"}, {"cls", "b"}, {"a", "join"}, {"b", "join"}}
	if v, n := conservation(tree, edges, nil); len(v) != 0 || n == 0 {
		t.Fatalf("balanced tree: %d checks, violations %v", n, v)
	}
	tree.Children[3] = node("join", 8, 8, 0) // a frame vanished on a binding
	if v, _ := conservation(tree, edges, nil); len(v) != 1 {
		t.Fatalf("want one binding violation, got %v", v)
	}
}

// TestMetricNames checks that the program reports exactly the metrics
// BENCHMARK.json declares, in both modes.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	reported := func(r *result) []string {
		var out []string
		for name, m := range r.metrics {
			out = append(out, name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	e2e := &result{}
	(&e2eRun{}).report(e2e, true)
	if got, want := reported(e2e), declared(doc.EndToEnd); !equal(got, want) {
		t.Fatalf("end-to-end metrics\n got %v\nwant %v", got, want)
	}
	lay := &result{}
	(&layerRun{tr: newTracer(), traced: &e2eRun{}, untraced: &e2eRun{}}).report(lay)
	if got, want := reported(lay), declared(doc.PerLayer); !equal(got, want) {
		t.Fatalf("per-layer metrics\n got %v\nwant %v", got, want)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
