package main

import (
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"netkit/core"
	"netkit/router"
)

// The traced run: a second measured phase with spans on, whose figures
// are read per layer. It also reads the counters and histograms the
// program exports through its stats tree, as deltas over the phase.

// layerRun holds what the traced phase measured.
type layerRun struct {
	tr        *tracer
	traced    *e2eRun // end-to-end figures of the traced phase
	untraced  *e2eRun
	before    map[string]core.StatNode
	after     map[string]core.StatNode
	delivered uint64
	nullNs    float64
	wire      hist
	occupancy []float64
}

// measureTraced runs the traced phase.
func measureTraced(d *loadgen, ctl *controller, dur time.Duration, untraced *e2eRun, nullNs float64) (*layerRun, error) {
	lr := &layerRun{tr: newTracer(), untraced: untraced, nullNs: nullNs,
		before: map[string]core.StatNode{}, after: map[string]core.StatNode{}}
	d.tk = lr.tr.track()
	if d.p.fp != nil {
		d.s.setTrack(d.tk) // the fused plane calls the sink synchronously
	} else {
		d.s.setTrack(lr.tr.track())
	}
	ctl.setTracer(lr.tr)
	var wireMu sync.Mutex
	meta := d.p.sys.Meta()
	if d.p.tx != nil {
		// Due time -> pump Born stamp, read where the pump hands frames
		// to the pipeline.
		wire := func(_ string, args []any, invoke func([]any) []any) []any {
			if len(args) == 1 {
				if b, ok := args[0].([]*router.Packet); ok {
					wireMu.Lock()
					for _, p := range b {
						if len(p.Data) >= minFrame {
							seq := binary.LittleEndian.Uint64(p.Data[seqOff:])
							lr.wire.add(uint64(max64(p.Born-d.due(seq, p), 0)))
						}
					}
					wireMu.Unlock()
				}
			}
			return invoke(args)
		}
		if err := meta.Interception().Install("src", "out", "perfbench.wire", wire); err != nil {
			return nil, err
		}
		defer func() { _ = meta.Interception().Remove("src", "out", "perfbench.wire") }()
		d.onMark = func(*phase) {
			if n, err := meta.Stats().Component("iso"); err == nil {
				if v, ok := statValue(n, "ipc_window_occupancy"); ok {
					lr.occupancy = append(lr.occupancy, v)
				}
			}
		}
		defer func() { d.onMark = nil }()
	}
	flatten(meta.Stats().Tree(), lr.before)
	ph, err := d.runPhase(dur)
	if err != nil {
		return nil, err
	}
	flatten(meta.Stats().Tree(), lr.after)
	d.tk = nil
	d.s.setTrack(nil)
	r, e, err := reduce(d, ph)
	if err != nil {
		return nil, err
	}
	lr.traced, lr.delivered = e, r.delivered
	return lr, nil
}

// delta returns a counter's growth over the phase, summed over the nodes
// match selects.
func (lr *layerRun) delta(match func(string) bool, stat string) float64 {
	sum := 0.0
	for name, n := range lr.after {
		if !match(name) {
			continue
		}
		a, _ := statValue(n, stat)
		b, _ := statValue(lr.before[name], stat)
		sum += a - b
	}
	return sum
}

func isLane(name string) bool { return strings.HasPrefix(name, "shard") }
func isCls(name string) bool  { return strings.HasSuffix(name, "/cls") }
func named(s string) func(string) bool {
	return func(name string) bool { return name == s }
}

// laneResidence merges the lanes' latency histograms' growth over the
// phase.
func (lr *layerRun) laneResidence() *core.HistSnapshot {
	var merged *core.HistSnapshot
	for name, n := range lr.after {
		if !isLane(name) {
			continue
		}
		a, ok := n.Stat(router.StatLatency)
		if !ok || a.Hist == nil {
			continue
		}
		cur := a.Hist
		prev := lr.before[name]
		if b, ok := prev.Stat(router.StatLatency); ok && b.Hist != nil {
			cur = cur.Sub(b.Hist)
		}
		merged = merged.Merge(cur)
	}
	return merged
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report adds every per-layer metric. Layers a workload bypasses read 0.
func (lr *layerRun) report(r *result) {
	t := lr.tr
	pkts := float64(lr.delivered)
	r.add("harness.inject_ns_per_pkt", t.selfPerPkt(lInject), "ns", true)
	r.add("harness.sink_ns_per_pkt", t.selfPerPkt(lSink), "ns", true)
	r.add("harness.null_ns_per_pkt", lr.nullNs, "ns", true)
	r.add("harness.gen_late_p99_us", lr.traced.genLateP99, "us", true)
	r.add("router.fuse.self_ns_per_pkt", t.selfPerPkt(lFuse), "ns", true)

	hops := 0.0
	for name, n := range lr.after {
		if name == "fp" || isLane(name) {
			if v, ok := statValue(n, "fused"); ok {
				hops = math.Max(hops, v)
			}
		}
	}
	r.add("router.fuse.hops", hops, "count", true)
	fuseInv := lr.delta(func(n string) bool { return n == "fp" || isLane(n) }, "fuse_invalidations")
	r.add("router.fuse.invalidations_per_s", ratio(fuseInv, lr.traced.wall), "1/s", true)

	r.add("router.shard.dispatch_ns_per_pkt", t.selfPerPkt(lDispatch), "ns", true)
	r.add("router.shard.ring_stalls_per_mpkt", ratio(lr.delta(isLane, "ring_stalls")*1e6, pkts), "1/Mpkt", true)
	res := lr.laneResidence()
	r.add("router.shard.lane_residence_p50_us", res.Quantile(0.5)/1e3, "us", true)
	r.add("router.shard.lane_residence_p99_us", res.Quantile(0.99)/1e3, "us", true)
	var laneIn []float64
	for name := range lr.after {
		if isLane(name) {
			laneIn = append(laneIn, lr.delta(named(name), "packets_in"))
		}
	}
	skew, sum := 0.0, 0.0
	for _, v := range laneIn {
		sum += v
		skew = math.Max(skew, v)
	}
	if len(laneIn) > 0 && sum > 0 {
		skew /= sum / float64(len(laneIn))
	}
	r.add("router.shard.lane_skew", skew, "ratio", true)
	hits, misses := lr.delta(isCls, "flowcache_hits"), lr.delta(isCls, "flowcache_misses")
	r.add("router.flowcache.hit_ratio", ratio(hits, hits+misses), "ratio", true)
	r.add("router.flowcache.evictions_per_kpkt", ratio(lr.delta(isCls, "flowcache_evictions")*1e3, pkts), "1/kpkt", true)

	// Every meta-space call: under load on reconfig-live, on the idle
	// plane after the measured phases elsewhere.
	var calls hist
	for l := lIntercept; l <= lStatsSnap; l++ {
		calls.merge(&t.layers[l].dur)
	}
	r.add("reconfig_p50_us", calls.quantile(0.5)/1e3, "us", true)
	r.add("reconfig_p99_us", calls.quantile(0.99)/1e3, "us", true)
	r.add("reconfig_samples", float64(calls.n), "count", false)
	for _, op := range []struct {
		l    layer
		name string
	}{
		{lIntercept, "core.intercept"}, {lHotswap, "router.hotswap"}, {lRescale, "router.rescale"},
		{lRuleUpdate, "filter.rule_update"}, {lStatsSnap, "core.stats_snapshot"},
	} {
		r.add(op.name+"_p50_us", t.callQuantile(op.l, 0.5), "us", true)
		r.add(op.name+"_p99_us", t.callQuantile(op.l, 0.99), "us", true)
	}

	src := named("src")
	r.add("osabs.udp.tx_ns_per_frame", t.selfPerPkt(lUDPTx), "ns", true)
	r.add("osabs.udp.rx_frames_per_syscall",
		ratio(lr.delta(src, "udp_rx_frames"), lr.delta(src, "udp_rx_syscalls")), "count", true)
	empty := lr.delta(src, "udp_rx_empty_polls")
	r.add("osabs.udp.rx_empty_poll_ratio", ratio(empty, empty+lr.delta(src, "udp_rx_syscalls")), "ratio", true)
	r.add("osabs.udp.sock_drops", lr.delta(src, "udp_sock_drops"), "count", true)
	r.add("osabs.udp.wire_p50_us", lr.wire.quantile(0.5)/1e3, "us", true)
	r.add("osabs.udp.wire_p99_us", lr.wire.quantile(0.99)/1e3, "us", true)

	iso := named("iso")
	r.add("ipc.frames_per_roundtrip", ratio(lr.delta(iso, "ipc_tx_frames"), lr.delta(iso, "ipc_roundtrips")), "count", true)
	r.add("ipc.window_occupancy", median(lr.occupancy), "ratio", true)
	r.add("ipc.failed_frames", lr.delta(iso, "ipc_dropped")+lr.delta(iso, "ipc_contained_frames")+
		lr.delta(iso, "ipc_lost"), "count", true)

	r.add("runtime.gc_cycles", float64(lr.traced.gcs), "count", true)
	r.add("runtime.alloc_b_per_pkt", lr.traced.allocPerPkt, "B", true)
	r.add("runtime.cpu_busy_ratio", ratio(float64(lr.traced.cpuTotal)/1e9, lr.traced.wall*float64(runtime.GOMAXPROCS(0))), "ratio", true)

	// Tracing overhead: the traced phase's per-frame cost against the
	// untraced phase's: wall time per frame in a closed loop, both taken
	// to reference-host time so that host interference between the two
	// phases cancels; CPU per frame at a fixed offered rate.
	u, tr := lr.untraced, lr.traced
	over := ratio(tr.cpuPerPkt-u.cpuPerPkt, u.cpuPerPkt)
	if u.closed {
		over = ratio(u.throughput, tr.throughput) - 1
	}
	r.add("trace.overhead_ratio", over, "ratio", true)
	if u.closed {
		inj, plane, snk := t.selfPerPkt(lInject), t.selfPerPkt(lFuse)+t.selfPerPkt(lDispatch), t.selfPerPkt(lSink)
		sum := (inj + plane + snk) / tr.slowdown
		untraced := 1e3 / u.throughput
		r.note("reconciliation: inject %.1f + plane %.1f + sink %.1f ns/pkt traced (host slowdown %.2f) = %.1f ns/pkt, against 1/throughput untraced = %.1f ns/pkt: ratio %.3f",
			inj, plane, snk, tr.slowdown, sum, untraced, ratio(sum, untraced))
	}
}
