package router

import (
	"runtime"
	"sync/atomic"
	"time"

	"netkit/core"
)

// This file is the bind-time chain fusion engine (DESIGN.md §8): when the
// binding chain downstream of a source is interceptor-free and every hop
// is batch-aware, the planner compiles the whole chain into one flattened
// run-to-completion function — no receptacle loads, no interface dispatch,
// no sub-batch hand-offs between hops — while keeping reflection one
// meta-call away. Installing an interceptor (or any structural mutation:
// bind, rebind, unbind, hot-swap, insert/remove) invalidates the plan
// through a generation fence; traffic falls back to the exact hop-by-hop
// path and re-fuses lazily once the chain is clean again. The paper's
// central tension — reflective flexibility vs raw forwarding speed —
// resolved the way the programmable-data-plane literature does it:
// specialise the common case, de-specialise on meta-level activity.

// maxFuseDepth bounds how many hops one fused plan may flatten; it also
// sizes the runner's stack-local accounting arrays, so a fused run
// allocates nothing.
const maxFuseDepth = 32

// stepKind classifies a fused hop for the runner. The generic form is a
// per-packet closure; the two specialised kinds let the runner skip the
// indirect call entirely for the most common hop shapes, which is where
// the fused path's margin over the (already batched) hop-by-hop path
// comes from.
type stepKind uint8

const (
	// stepProc runs the hop's proc closure per packet (may drop).
	stepProc stepKind = iota
	// stepCount is a pass-through byte meter: never drops, accumulates
	// len(p.Data). The runner inlines the traversal — and collapses a RUN
	// of consecutive stepCount hops into a single traversal, since they
	// all see the same packets.
	stepCount
	// stepPass does no per-packet work at all (a nested FastPath).
	stepPass
	// stepDrop unconditionally consumes every packet (a terminal
	// Dropper): the runner releases the live set in a tight loop.
	stepDrop
)

// fuseStep is one component's per-packet work, decoupled from its
// forwarding. For a stage-based element it is the element's only
// definition of its packet semantics: Push, PushBatch and the fused
// runner all derive from it.
type fuseStep struct {
	// kind selects the runner strategy for this hop.
	kind stepKind
	// proc performs a stepProc hop's per-packet work (header mutation,
	// conformance) and reports whether the packet survives. proc must
	// maintain the hop's SPECIALISED counters (ttl_drops, cs_drops)
	// itself; the shared in/out/dropped/errs block is accounted by the
	// caller. nil for the other kinds.
	proc func(p *Packet) bool
	// flush folds a stepCount hop's byte total into its meter, once per
	// batch. nil for the other kinds.
	flush func(bytes int64)
	// counters is the hop's element counter block; the runner reproduces
	// exactly the accounting the hop-by-hop path would have written.
	counters *elementCounters
	// out is the hop's egress receptacle. nil marks a terminal hop (the
	// Dropper) that consumes every packet.
	out *core.Receptacle[IPacketPush]
}

// chainFusible is the capability interface of the fusion planner,
// discovered by type assertion like the batch capability. A component
// returns its fuseStep. Components that buffer (queues), split (Tee,
// recognisers, classifiers) or block are simply not fusible: the planner
// stops at them and the fused prefix hands off to the remainder through
// the ordinary receptacle crossing.
type chainFusible interface {
	fuseStep() fuseStep
}

// fusedPlan is one immutable compiled chain. gen pins the structural
// generation it was compiled under; a plan whose gen no longer matches the
// fuser's is dead and is never run again.
type fusedPlan struct {
	gen  uint64
	hops []fuseStep
	tail *core.Receptacle[IPacketPush] // last hop's egress; nil if terminal
}

// ChainFuser owns the fused plan for the chain downstream of one source
// receptacle and the fence machinery that keeps it honest:
//
//   - gen counts structural mutations of the owning capsule (bumped by a
//     synchronous core.WatchStructure observer, so an interceptor install
//     can never be missed the way a lossy event stream could miss it).
//   - plan holds the current compiled chain; it is valid only while
//     plan.gen == gen (the filter.Table atomic-snapshot pattern).
//   - builtGen is the negative cache: the last generation a compile was
//     attempted for, so an unfusable chain costs one map walk per
//     mutation, not one per batch.
//   - active counts in-flight fused runs; WaitIdle spins on it. A runner
//     raises active BEFORE re-validating gen (both sequentially
//     consistent), and an invalidator bumps gen BEFORE polling active —
//     so either the runner observes the new generation and backs off, or
//     the invalidator observes the runner and waits. After
//     gen-bump + WaitIdle, no stale-plan batch is running: that is the
//     exactness fence ShardedCF.Intercept uses so an audit observes every
//     packet pushed after the install returns.
//
// Forward/ForwardOne degrade to the ordinary hop-by-hop crossing whenever
// no valid plan exists, so fusion is invisible to semantics: same
// delivery, same order, same counters, same errors.
type ChainFuser struct {
	capsule *core.Capsule
	src     core.GenReceptacle

	gen      atomic.Uint64
	plan     atomic.Pointer[fusedPlan]
	builtGen atomic.Uint64
	building atomic.Bool
	active   atomic.Int64

	fusions       atomic.Uint64 // plans compiled
	invalidations atomic.Uint64 // structural events observed

	cancel func()
}

// NewChainFuser attaches a fuser to the chain rooted at src (a receptacle
// owned by the source component) in capsule c and compiles eagerly. The
// fuser re-specialises lazily on the data path after every structural
// mutation.
func NewChainFuser(c *core.Capsule, src core.GenReceptacle) *ChainFuser {
	f := &ChainFuser{capsule: c, src: src}
	f.cancel = c.WatchStructure(func(core.Event) {
		// Any structural mutation may have changed the chain: count it,
		// advance the generation, drop the plan. Atomics only — this runs
		// synchronously under capsule/binding locks.
		f.invalidations.Add(1)
		f.gen.Add(1)
		f.plan.Store(nil)
	})
	f.rebuild(f.gen.Load())
	return f
}

// Close detaches the fuser's structure watcher. Optional: a fuser left
// attached dies with its capsule.
func (f *ChainFuser) Close() {
	if f.cancel != nil {
		f.cancel()
		f.cancel = nil
	}
}

// Forward delivers batch downstream of the source exactly as
// e.forwardBatch(out, batch) would — via the fused plan when one is valid,
// hop by hop otherwise.
func (f *ChainFuser) Forward(e *elementCounters, out *core.Receptacle[IPacketPush], batch []*Packet) error {
	if len(batch) == 0 {
		return nil
	}
	if pl := f.enter(); pl != nil {
		err := f.runBatch(e, pl, batch)
		f.active.Add(-1)
		return err
	}
	return e.forwardBatch(out, batch)
}

// ForwardOne is Forward for a single packet (the per-packet Push path),
// with no batch bookkeeping and no allocation.
func (f *ChainFuser) ForwardOne(e *elementCounters, out *core.Receptacle[IPacketPush], p *Packet) error {
	if pl := f.enter(); pl != nil {
		err := f.runOne(e, pl, p)
		f.active.Add(-1)
		return err
	}
	return e.forward(out, p)
}

// enter returns a validated plan with the active guard raised, or nil
// (guard not raised). The raise-then-revalidate order is the fence's
// correctness argument; see the ChainFuser doc comment.
func (f *ChainFuser) enter() *fusedPlan {
	g := f.gen.Load()
	pl := f.plan.Load()
	if pl == nil || pl.gen != g {
		if f.builtGen.Load() == g {
			return nil // negative cache: generation g known unfusable
		}
		f.rebuild(g)
		pl = f.plan.Load()
		if pl == nil || pl.gen != g {
			return nil
		}
	}
	f.active.Add(1)
	pl = f.plan.Load()
	if pl == nil || pl.gen != f.gen.Load() {
		f.active.Add(-1)
		return nil
	}
	return pl
}

// WaitIdle blocks until no fused run is in flight (or timeout expires,
// returning false). Called after a generation bump, it guarantees every
// subsequent packet crosses under the new structure — the exact-audit
// fence. Callers must not hold locks a fused run's downstream could need.
func (f *ChainFuser) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for f.active.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// rebuild compiles a plan for generation g (at most one compiler at a
// time; losers simply fall back hop-by-hop for one batch). Publishing
// builtGen last makes the negative cache safe: a nil plan with
// builtGen == g means "g is unfusable", never "not yet tried".
func (f *ChainFuser) rebuild(g uint64) {
	if !f.building.CompareAndSwap(false, true) {
		return
	}
	defer f.building.Store(false)
	if pl := f.compile(g); pl != nil {
		f.fusions.Add(1)
		f.plan.Store(pl)
	}
	f.builtGen.Store(g)
}

// compile walks the binding graph from the source receptacle, collecting
// consecutive fusible hops whose inbound bindings carry no interceptor
// chain. The walk stops — leaving the remainder to the ordinary receptacle
// crossing — at the first intercepted binding, unbound receptacle,
// non-fusible component, cycle, or maxFuseDepth. A plan shorter than two
// hops buys nothing over forwardBatch and compiles to nil.
func (f *ChainFuser) compile(g uint64) *fusedPlan {
	byRecp := make(map[core.GenReceptacle]*core.Binding)
	for _, b := range f.capsule.Bindings() {
		byRecp[b.Receptacle()] = b
	}
	hops := make([]fuseStep, 0, 8)
	seen := make(map[core.Component]bool, 8)
	var tail *core.Receptacle[IPacketPush]
	lead := f.src
	terminal := false
	for len(hops) < maxFuseDepth {
		b, ok := byRecp[lead]
		if !ok || len(b.Interceptors()) > 0 {
			break
		}
		toName, _ := b.To()
		comp, ok := f.capsule.Component(toName)
		if !ok || seen[comp] {
			break
		}
		fz, ok := comp.(chainFusible)
		if !ok {
			break
		}
		step := fz.fuseStep()
		seen[comp] = true
		hops = append(hops, step)
		if step.out == nil {
			terminal = true
			break
		}
		tail = step.out
		lead = step.out
	}
	if len(hops) < 2 {
		return nil
	}
	if terminal {
		tail = nil
	}
	return &fusedPlan{gen: g, hops: hops, tail: tail}
}

// runBatch executes one batch through the fused plan, chunked to the
// pooled-batch capacity so the runner's live set fits a stack array.
func (f *ChainFuser) runBatch(e *elementCounters, pl *fusedPlan, batch []*Packet) error {
	var agg batchErrAgg
	for len(batch) > 0 {
		chunk := batch
		if len(chunk) > batchCap {
			chunk = chunk[:batchCap]
		}
		batch = batch[len(chunk):]
		f.runChunk(e, pl, chunk, &agg)
	}
	return agg.err()
}

// runChunk executes one ≤batchCap chunk hop-major: each processing hop
// compacts the surviving ("live") set, pass-through byte meters
// (stepCount) collapse into a single traversal shared by every consecutive
// meter, and the compacted survivors leave to the tail as ONE batch. The
// caller's slice is never mutated (callers reuse their batches): survivors
// move into a pooled scratch batch lazily, at the first hop that both
// drops and keeps — the no-drop and drop-everything paths never copy. The
// shared counters of every hop — and of the source e — are replayed
// afterwards to precisely the values the hop-by-hop path would have
// produced, including per-packet-exact error accounting via BatchError.
func (f *ChainFuser) runChunk(e *elementCounters, pl *fusedPlan, chunk []*Packet, agg *batchErrAgg) {
	n := len(pl.hops)
	var enters [maxFuseDepth]int32
	var drops [maxFuseDepth]int32
	var accs [maxFuseDepth]int64

	live := chunk
	var scratch []*Packet // pooled; live aliases it once inScratch
	inScratch := false
	prevFailed := agg.failed

	for h := 0; h < n && len(live) > 0; {
		hp := &pl.hops[h]
		switch hp.kind {
		case stepPass:
			enters[h] = int32(len(live))
			h++
		case stepCount:
			// One byte-sum traversal serves every consecutive meter: they
			// never drop, so they all see the same live set.
			var acc int64
			for _, p := range live {
				acc += int64(len(p.Data))
			}
			for h < n && pl.hops[h].kind == stepCount {
				enters[h] = int32(len(live))
				accs[h] = acc
				h++
			}
		case stepDrop:
			enters[h] = int32(len(live))
			drops[h] = int32(len(live))
			for _, p := range live {
				p.Release()
			}
			live = live[:0]
			h++
		default: // stepProc
			enters[h] = int32(len(live))
			// proc stays in a register across the closure calls: the
			// compiler would otherwise reload the hop field every
			// iteration, since a closure call could alias it.
			proc := hp.proc
			i := 0
			for i < len(live) && proc(live[i]) {
				i++
			}
			if i == len(live) {
				h++
				continue
			}
			// First drop at i. Survivors before it stay a read-only view;
			// the first subsequent keeper forces them into scratch (an
			// in-place no-op once live already is scratch, since the write
			// index never passes the read index).
			d := int32(1)
			live[i].Release()
			kept := live[:i]
			for j := i + 1; j < len(live); j++ {
				if !proc(live[j]) {
					d++
					live[j].Release()
					continue
				}
				if !inScratch {
					if scratch == nil {
						scratch = GetBatch()
					}
					kept = append(scratch[:0], kept...)
					inScratch = true
				}
				kept = append(kept, live[j])
			}
			drops[h] = d
			live = kept
			h++
		}
	}

	tailDrops := 0
	if len(live) > 0 {
		delivered := false
		if pl.tail != nil {
			if tail, ok := pl.tail.Get(); ok {
				agg.note(ForwardBatch(tail, live), len(live))
				delivered = true
			}
		}
		if !delivered {
			// Unbound tail (or a terminal hop that unexpectedly kept a
			// packet): the last hop drops, as its forwardBatch would.
			tailDrops = len(live)
			for _, p := range live {
				p.Release()
			}
		}
	}
	if scratch != nil {
		PutBatch(scratch) // packets already delivered or released
	}

	failed := agg.failed - prevFailed
	// Source accounting, as its forwardBatch: out for everything the first
	// hop accepted minus downstream failures, errs per failed packet.
	e.out.Add(uint64(len(chunk) - failed))
	if failed > 0 {
		e.errs.Add(uint64(failed))
	}
	for h := 0; h < n; h++ {
		hp := &pl.hops[h]
		enter := int(enters[h])
		if enter == 0 {
			// Never reached: the hop-by-hop path short-circuits empty
			// batches before any counter touch.
			continue
		}
		hp.counters.in.Add(uint64(enter))
		d := int(drops[h])
		if h == n-1 {
			d += tailDrops
		}
		if d > 0 {
			hp.counters.dropped.Add(uint64(d))
		}
		if out := enter - d - failed; out > 0 {
			hp.counters.out.Add(uint64(out))
		}
		if failed > 0 {
			hp.counters.errs.Add(uint64(failed))
		}
		if accs[h] != 0 { // stepCount hops only
			hp.flush(accs[h])
		}
	}
}

// runOne executes one packet through the fused plan, replaying the exact
// per-packet accounting: hops upstream of a drop count the packet out
// (their downstream absorbed it and returned nil), a tail error charges
// errs at every hop, and hops past a drop never see it at all.
func (f *ChainFuser) runOne(e *elementCounters, pl *fusedPlan, p *Packet) error {
	n := len(pl.hops)
	dropAt := -1
	for h := 0; h < n; h++ {
		hp := &pl.hops[h]
		switch hp.kind {
		case stepPass:
		case stepCount:
			hp.flush(int64(len(p.Data)))
		case stepDrop:
			dropAt = h
		default: // stepProc
			if !hp.proc(p) {
				dropAt = h
			}
		}
		if dropAt >= 0 {
			break
		}
	}
	var err error
	if dropAt < 0 {
		if pl.tail != nil {
			if tail, ok := pl.tail.Get(); ok {
				err = tail.Push(p)
			} else {
				dropAt = n - 1 // unbound tail: last hop drops
			}
		} else {
			dropAt = n - 1 // terminal hop kept it: consume defensively
		}
	}
	if dropAt >= 0 {
		p.Release()
	}
	last := n - 1
	if dropAt >= 0 {
		last = dropAt
	}
	for h := 0; h <= last; h++ {
		c := pl.hops[h].counters
		c.in.Add(1)
		switch {
		case h == dropAt:
			c.dropped.Add(1)
		case err != nil:
			c.errs.Add(1)
		default:
			c.out.Add(1)
		}
	}
	if err != nil {
		e.errs.Add(1)
		return err
	}
	e.out.Add(1)
	return nil
}

// FusedHops reports the current plan's depth, 0 while de-specialised.
// This is the `fused` gauge's value: the reflective loop watches it drop
// to 0 on interceptor install and return on re-fusion.
func (f *ChainFuser) FusedHops() int {
	pl := f.plan.Load()
	if pl == nil || pl.gen != f.gen.Load() {
		return 0
	}
	return len(pl.hops)
}

// Fusions reports how many plans have been compiled.
func (f *ChainFuser) Fusions() uint64 { return f.fusions.Load() }

// Invalidations reports how many structural mutations have been observed.
func (f *ChainFuser) Invalidations() uint64 { return f.invalidations.Load() }

// statList is the fuser's contribution to its owner's stats: the fused
// gauge plus the specialisation churn counters.
func (f *ChainFuser) statList() []core.Stat {
	return []core.Stat{
		core.G("fused", "hops", float64(f.FusedHops())),
		core.C("fusions", "plans", f.fusions.Load()),
		core.C("fuse_invalidations", "events", f.invalidations.Load()),
	}
}

// ---------------------------------------------------------------------------
// FastPath: the fused chain as a first-class component

// TypeFastPath is the component type of the fused chain entry point. It is
// not in the loader registry: construction needs the owning capsule
// (NewFastPath), which the map[string]string factory signature cannot
// carry.
const TypeFastPath = "netkit.router.FastPath"

// FastPath is a fused chain entry point: an ordinary component with one
// "out" receptacle whose downstream chain it fuses. Pushing into it runs
// the flattened chain; its stats expose the fused gauge the adaptation
// loop watches. Bind it ahead of a pipeline (Blueprint.FastPath + Pipe)
// and push into it instead of the first processing component. A FastPath
// is itself fusible as a pass-through, so nested fast paths flatten.
type FastPath struct {
	*core.Base
	elementCounters
	out  *core.Receptacle[IPacketPush]
	fuse *ChainFuser
}

// NewFastPath returns a fused entry point attached to capsule c. The
// caller must Insert it into the same capsule.
func NewFastPath(c *core.Capsule) *FastPath {
	f := &FastPath{Base: core.NewBase(TypeFastPath)}
	f.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	f.AddReceptacle("out", f.out)
	f.Provide(IPacketPushID, f)
	f.fuse = NewChainFuser(c, f.out)
	return f
}

// Push implements IPacketPush through the fused plan when one is valid.
func (f *FastPath) Push(p *Packet) error {
	f.in.Add(1)
	return f.fuse.ForwardOne(&f.elementCounters, f.out, p)
}

// PushBatch implements IPacketPushBatch through the fused plan when one is
// valid.
func (f *FastPath) PushBatch(batch []*Packet) error {
	f.in.Add(uint64(len(batch)))
	return f.fuse.Forward(&f.elementCounters, f.out, batch)
}

// Fuser exposes the fuser for fence control and introspection.
func (f *FastPath) Fuser() *ChainFuser { return f.fuse }

// Stats implements core.IStats: the element counters plus the fused gauge
// and specialisation churn.
func (f *FastPath) Stats() []core.Stat {
	return append(f.statList(), f.fuse.statList()...)
}

func (f *FastPath) fuseStep() fuseStep {
	return fuseStep{kind: stepPass, counters: &f.elementCounters, out: f.out}
}

var (
	_ IPacketPushBatch = (*FastPath)(nil)
	_ core.IStats      = (*FastPath)(nil)
	_ chainFusible     = (*FastPath)(nil)
)
