package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"netkit"
	"netkit/cf"
	"netkit/core"
	"netkit/internal/osabs"
	"netkit/router"
)

// plane is one built system under test plus the handles the benchmark
// drives it through.
type plane struct {
	sys  *netkit.System
	sink *sink
	// entry takes the harness's packet batches (in-process planes); fp or
	// sc is the same component when it is a FastPath or a ShardedCF.
	entry router.IPacketPush
	fp    *router.FastPath
	sc    *router.ShardedCF
	// tx transmits frames into the plane (udp-isolated); rx is the
	// receive device its pump polls.
	tx, rx *osabs.UDPDevice
	// swap is the name of the swappable stage; retired accumulates the
	// final counters of the instances hot-swap replaced, keyed by the
	// instance that now stands in their place.
	swap    string
	swaps   int
	retired map[string]router.ElementStats
	closers []func()
}

func (p *plane) close() {
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
}

func closeSys(sys *netkit.System) func() {
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sys.Close(ctx)
	}
}

// buildFwd builds fwd-64b: a fully fusible FastPath chain
// Counter -> ChecksumValidator -> IPv4Proc -> Counter -> sink.
func buildFwd(s *sink, _ *traffic) (*plane, error) {
	sys, err := netkit.NewBlueprint("perfbench-fwd").
		FastPath("fp").
		Insert("cnt", router.NewCounter()).
		Insert("val", router.NewChecksumValidator()).
		Insert("ttl", router.NewIPv4Proc(false)).
		Insert("sw", router.NewCounter()).
		Insert("sink", s).
		Pipe("fp", "cnt", "val", "ttl", "sw", "sink").
		Build(context.Background())
	if err != nil {
		return nil, err
	}
	comp, _ := sys.Capsule().Component("fp")
	fp := comp.(*router.FastPath)
	return &plane{sys: sys, sink: s, entry: fp, fp: fp, swap: "sw",
		retired: map[string]router.ElementStats{}, closers: []func(){closeSys(sys)}}, nil
}

// classifierLane wires one lane's classifier ports: port a crosses one
// IPv4Proc, port b two, the default port none, and all three meet at
// next. The TTL a frame arrives with thereby names the port it took.
func classifierLane(fw *cf.Framework, i int, tr *traffic, cls *router.Classifier, next string) error {
	n := func(s string) string { return router.ShardName(i, s) }
	c := fw.Capsule()
	for _, name := range []string{"ttlA", "ttlB1", "ttlB2"} {
		if err := fw.Admit(n(name), router.NewIPv4Proc(false)); err != nil {
			return err
		}
	}
	binds := [][3]string{
		{n("cls"), portA, n("ttlA")},
		{n("cls"), portB, n("ttlB1")},
		{n("ttlB1"), "out", n("ttlB2")},
		{n("cls"), portDefault, next},
		{n("ttlA"), "out", next},
		{n("ttlB2"), "out", next},
	}
	for _, b := range binds {
		if _, err := c.Bind(b[0], b[1], b[2], router.IPacketPushID); err != nil {
			return err
		}
	}
	for i, r := range tr.rules {
		if _, err := cls.RegisterFilter(r.spec, i, r.out); err != nil {
			return fmt.Errorf("rule %q: %w", r.spec, err)
		}
	}
	return nil
}

// buildShardIMIX builds shard-imix: a 2-lane ShardedCF whose lanes run
// Counter -> Classifier (ports a, b, default) -> ChecksumValidator.
func buildShardIMIX(s *sink, tr *traffic) (*plane, error) {
	replica := func(i int, fw *cf.Framework) (string, error) {
		n := func(s string) string { return router.ShardName(i, s) }
		cls, err := router.NewClassifier(tr.outputs...)
		if err != nil {
			return "", err
		}
		for name, comp := range map[string]core.Component{
			"cnt": router.NewCounter(), "cls": cls, "val": router.NewChecksumValidator(),
		} {
			if err := fw.Admit(n(name), comp); err != nil {
				return "", err
			}
		}
		c := fw.Capsule()
		if _, err := c.Bind(n("cnt"), "out", n("cls"), router.IPacketPushID); err != nil {
			return "", err
		}
		if err := classifierLane(fw, i, tr, cls, n("val")); err != nil {
			return "", err
		}
		if _, err := c.Bind(n("val"), "out", n("egress"), router.IPacketPushID); err != nil {
			return "", err
		}
		return n("cnt"), nil
	}
	return buildSharded(s, "perfbench-shard", replica, "val")
}

// buildReconfig builds reconfig-live: a 2-lane ShardedCF whose lanes run
// a fused prefix Counter -> ChecksumValidator, a Classifier, and a
// swappable Counter before the lane egress.
func buildReconfig(s *sink, tr *traffic) (*plane, error) {
	replica := func(i int, fw *cf.Framework) (string, error) {
		n := func(s string) string { return router.ShardName(i, s) }
		cls, err := router.NewClassifier(tr.outputs...)
		if err != nil {
			return "", err
		}
		for name, comp := range map[string]core.Component{
			"cnt": router.NewCounter(), "val": router.NewChecksumValidator(),
			"cls": cls, "sw": router.NewCounter(),
		} {
			if err := fw.Admit(n(name), comp); err != nil {
				return "", err
			}
		}
		c := fw.Capsule()
		for _, b := range [][2]string{{"cnt", "val"}, {"val", "cls"}, {"sw", "egress"}} {
			if _, err := c.Bind(n(b[0]), "out", n(b[1]), router.IPacketPushID); err != nil {
				return "", err
			}
		}
		if err := classifierLane(fw, i, tr, cls, n("sw")); err != nil {
			return "", err
		}
		return n("cnt"), nil
	}
	return buildSharded(s, "perfbench-reconfig", replica, "sw")
}

func buildSharded(s *sink, name string, replica router.ReplicaFactory, swap string) (*plane, error) {
	sys, err := netkit.NewBlueprint(name).
		ShardsCfg("plane", router.ShardConfig{Shards: 2, LatencyHistogram: true}, replica).
		Insert("sink", s).
		Pipe("plane", "sink").
		Build(context.Background())
	if err != nil {
		return nil, err
	}
	comp, _ := sys.Capsule().Component("plane")
	sc := comp.(*router.ShardedCF)
	return &plane{sys: sys, sink: s, entry: sc, sc: sc, swap: swap,
		retired: map[string]router.ElementStats{}, closers: []func(){closeSys(sys)}}, nil
}

// udpBatch is the frames per sendmmsg/recvmmsg call of udp-isolated.
const udpBatch = 32

// buildUDP builds udp-isolated: a loopback UDP socket pair, a recvmmsg
// busy-poll pump, a Counter, a ChecksumValidator isolated behind batched
// binary IPC, and the sink.
func buildUDP(s *sink, _ *traffic) (*plane, error) {
	arena, err := osabs.NewFrameArena(osabs.DefaultUDPFrameSize, udpBatch, 16)
	if err != nil {
		return nil, err
	}
	rx, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Name: "udp-rx", Listen: "127.0.0.1:0", Batch: udpBatch, Arena: arena,
	})
	if err != nil {
		return nil, err
	}
	tx, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Name: "udp-tx", Listen: "127.0.0.1:0", Peer: rx.LocalAddr(), Batch: udpBatch,
	})
	if err != nil {
		_ = rx.Close()
		return nil, err
	}
	sys, err := netkit.NewBlueprint("perfbench-udp").
		DeviceSource("src", rx, nil, router.PumpConfig{Batch: udpBatch, Spin: 256, StampBorn: true}).
		Insert("sw", router.NewCounter()).
		Isolate("iso", router.TypeChecksumVal, nil).
		Insert("sink", s).
		Pipe("src", "sw", "iso", "sink").
		Build(context.Background())
	if err != nil {
		_ = tx.Close()
		_ = rx.Close()
		return nil, err
	}
	// Closers run in reverse: devices first, so the pump sees ErrClosed
	// and drains its tail, then the system stops and joins.
	return &plane{sys: sys, sink: s, tx: tx, rx: rx, swap: "sw",
		retired: map[string]router.ElementStats{},
		closers: []func(){closeSys(sys), func() { _ = tx.Close() }, func() { _ = rx.Close() }}}, nil
}

// ---------------------------------------------------------------------------
// Meta-space operations

// metaOp is one timed meta-space call.
type metaOp struct {
	layer layer
	do    func() error
}

// passThrough is the interceptor the control cycle installs: it observes
// nothing and forwards the call.
func passThrough(_ string, args []any, invoke func([]any) []any) []any { return invoke(args) }

const auditName = "perfbench.audit"

// cycle returns one round of the plane's meta-space operations: intercept
// and unintercept a binding, hot-swap a stage, add and remove a classifier
// rule (classifier planes), rescale 2 -> 1 -> 2 lanes (sharded planes,
// when rescale is set), and read the whole stats tree. r picks the values
// each round varies.
func (p *plane) cycle(r *rng, rescale bool) []metaOp {
	meta := p.sys.Meta()
	ops := []metaOp{}
	next := func() string { return p.swap + strconv.Itoa(p.swaps+1) }
	if p.sc == nil {
		// Single-capsule planes: intercept the first stage's outgoing
		// binding (on fwd-64b this de-fuses the chain), and hot-swap the
		// swappable Counter.
		c := p.sys.Capsule()
		from := "cnt"
		if p.tx != nil {
			from = "src"
		}
		ops = append(ops,
			metaOp{lIntercept, func() error { return meta.Interception().Install(from, "out", auditName, passThrough) }},
			metaOp{lIntercept, func() error { return meta.Interception().Remove(from, "out", auditName) }},
			metaOp{lHotswap, func() error {
				old, _ := c.Component(p.swap)
				nn := next()
				if err := router.HotSwap(c, p.swap, nn, router.NewCounter()); err != nil {
					return err
				}
				p.retire(p.swap, nn, old)
				p.swap, p.swaps = nn, p.swaps+1
				return nil
			}},
		)
	} else {
		sc := p.sc
		ops = append(ops,
			metaOp{lIntercept, func() error { return sc.Intercept("cnt", "out", auditName, passThrough) }},
			metaOp{lIntercept, func() error { return sc.Unintercept("cnt", "out", auditName) }},
			metaOp{lHotswap, func() error {
				olds := make([]core.Component, sc.Shards())
				for i := range olds {
					olds[i], _ = sc.Inner().Component(router.ShardName(i, p.swap))
				}
				nn := next()
				if err := sc.HotSwap(p.swap, nn, func(int) (core.Component, error) { return router.NewCounter(), nil }); err != nil {
					return err
				}
				for i, old := range olds {
					p.retire(router.ShardName(i, p.swap), router.ShardName(i, nn), old)
				}
				p.swap, p.swaps = nn, p.swaps+1
				return nil
			}},
		)
		// A rule on a port no generated flow uses: it changes no verdict,
		// but every add and remove recompiles the table and fences the
		// flow caches' generation.
		spec := fmt.Sprintf("udp and dst port %d", 1+r.next()%1000)
		ids := make([]uint64, sc.Shards())
		cls := func(i int) *router.Classifier {
			c, _ := sc.Inner().Component(router.ShardName(i, "cls"))
			return c.(*router.Classifier)
		}
		for i := range ids {
			i := i
			ops = append(ops, metaOp{lRuleUpdate, func() error {
				id, err := cls(i).RegisterFilter(spec, 0, portA)
				ids[i] = id
				return err
			}})
		}
		for i := range ids {
			i := i
			ops = append(ops, metaOp{lRuleUpdate, func() error { return cls(i).UnregisterFilter(ids[i]) }})
		}
		if rescale {
			ops = append(ops,
				metaOp{lRescale, func() error { return sc.SetActiveShards(context.Background(), 1) }},
				metaOp{lRescale, func() error { return sc.SetActiveShards(context.Background(), 2) }},
			)
		}
	}
	ops = append(ops, metaOp{lStatsSnap, func() error { _ = meta.Stats().Tree(); return nil }})
	return ops
}

// retire carries a swapped-out instance's final counters over to its
// replacement, so conservation still holds across the swap.
func (p *plane) retire(oldName, newName string, old core.Component) {
	acc := p.retired[oldName]
	delete(p.retired, oldName)
	if sr, ok := old.(router.StatsReporter); ok {
		st := sr.ElemStats()
		acc.In += st.In
		acc.Out += st.Out
		acc.Dropped += st.Dropped
		acc.Errors += st.Errors
	}
	p.retired[newName] = acc
}
