package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"netkit/router"
)

// The load generator is one goroutine, locked to its OS
// thread, that builds batches of frames and offers them to the plane,
// back to back (closed loop) or on a fixed schedule (open loop).

// spinMargin is how early the open-loop pacer wakes from nanosleep before
// a batch is due; it spins the rest of the way. nanosleep with a 1 ns
// timer slack overshoots by roughly 5-20 µs on the reference host.
const spinMargin = 30 * time.Microsecond

// openLoopFrames is the frame buffers preallocated for an open loop.
const openLoopFrames = 4096

type loadgen struct {
	w   *workload
	tr  *traffic
	p   *plane
	s   *sink
	seq uint64 // next sequence number

	pkts   []*router.Packet
	frames [][]byte // udp-isolated transmit buffers

	// Open-loop schedule: batch k is due at t0 + (k-k0)*interval.
	t0, interval int64
	k0           uint64

	tk   *track // generator span track while tracing
	spin int64  // ns spent spinning for pacing (harness CPU)
	// injNs and injN total the generator's own time building frames and
	// the frames built: the other half of the harness speed index.
	injNs  int64
	injN   uint64
	onMark func(*phase) // called at every window boundary of a measured phase

	heapSample [1]metrics.Sample
}

func newLoadgen(w *workload, tr *traffic, p *plane) *loadgen {
	d := &loadgen{w: w, tr: tr, p: p, s: p.sink}
	if p.tx != nil {
		d.frames = make([][]byte, w.batch)
		for i := range d.frames {
			d.frames[i] = make([]byte, tr.maxSize())
		}
	}
	if w.rate > 0 {
		d.interval = int64(float64(w.batch) / w.rate * 1e9)
	}
	d.heapSample[0].Name = "/gc/heap/live:bytes"
	if w.oracle.owned {
		// Preallocate the frame buffers, so the harness's share of the
		// heap is the same in every run; more are made only if the plane
		// holds more than this many frames at once.
		n := w.batch
		if w.rate > 0 {
			n = openLoopFrames
		}
		for i := 0; i < n; i++ {
			p.sink.free = append(p.sink.free, &router.Packet{Data: make([]byte, tr.maxSize())})
		}
	}
	p.sink.due = d.due
	return d
}

// due is the time frame seq was due: its batch's slot in the open-loop
// schedule, or its send time (the Born stamp) in a closed loop.
func (d *loadgen) due(seq uint64, p *router.Packet) int64 {
	if d.interval == 0 {
		return p.Born
	}
	return d.t0 + int64(seq/uint64(d.w.batch)-d.k0)*d.interval
}

// send builds and offers the next batch, stamped at now. Frames the
// plane refuses are not retried; they show as loss.
func (d *loadgen) send(now int64) error {
	b := d.w.batch
	batch := d.seq / uint64(b)
	var isp int32
	if d.tk != nil {
		isp = d.tk.beginAt(lInject, batch, b, now)
	}
	if d.p.tx != nil {
		for i := range d.frames {
			d.frames[i] = d.tr.frameOf(d.frames[i][:cap(d.frames[i])], d.seq+uint64(i))
		}
		d.seq += uint64(b)
		d.s.issued.Store(d.seq)
		t := d.built(now, b)
		var sp int32
		if d.tk != nil {
			d.tk.endAt(isp, t)
			sp = d.tk.beginAt(lUDPTx, batch, b, t)
		}
		_, err := d.p.tx.SendBatch(d.frames)
		if d.tk != nil {
			d.tk.end(sp)
		}
		return err
	}
	d.pkts = d.s.reuse(d.pkts[:0], b)
	for len(d.pkts) < b {
		d.pkts = append(d.pkts, &router.Packet{Data: make([]byte, d.tr.maxSize())})
	}
	born := int64(0)
	if d.interval == 0 {
		born = now // closed loop: latency runs from the send
	}
	for i, p := range d.pkts {
		p.Data = d.tr.frameOf(p.Data[:cap(p.Data)], d.seq+uint64(i))
		p.Born = born
	}
	d.seq += uint64(b)
	d.s.issued.Store(d.seq)
	t := d.built(now, b)
	var sp int32
	if d.tk != nil {
		d.tk.endAt(isp, t)
		l := lDispatch
		if d.p.fp != nil {
			l = lFuse
		}
		// The fused path runs synchronously, so the sink span nests
		// inside this one on the same track.
		sp = d.tk.beginAt(l, batch, b, t)
	}
	_ = router.ForwardBatch(d.p.entry, d.pkts) // failures show at the sink
	if d.tk != nil {
		d.tk.end(sp)
	}
	return nil
}

// built accounts a batch of n frames whose building started at start,
// and returns the time it ended.
func (d *loadgen) built(start int64, n int) int64 {
	t := router.Nanotime()
	d.injNs += t - start
	d.injN += uint64(n)
	return t
}

// waitUntil paces the open loop: nanosleep to spinMargin before due, then
// spin. It returns the time it woke and how late the host let it wake: 0
// when it was already late on entry, which the previous send, not the
// host, caused.
func (d *loadgen) waitUntil(due int64) (now, hostLate int64) {
	now = router.Nanotime()
	early := now < due
	if rem := due - now - int64(spinMargin); rem > 0 {
		ts := syscall.NsecToTimespec(rem)
		_ = syscall.Nanosleep(&ts, nil)
		now = router.Nanotime()
	}
	start := now
	for now < due {
		now = router.Nanotime()
	}
	d.spin += now - start
	if early {
		hostLate = now - due
	}
	return now, hostLate
}

// probe offers one batch and waits, blocked, for the sink to accept a
// frame: the end of set-up.
func (d *loadgen) probe() error {
	if err := d.send(router.Nanotime()); err != nil {
		return err
	}
	select {
	case <-d.s.first:
		return nil
	case <-time.After(5 * time.Second):
		return fmt.Errorf("no frame reached the sink within 5s")
	}
}

// processCPU reads the process's user+sys CPU time in ns, precisely
// (getrusage counts in scheduler ticks).
func processCPU() int64 {
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2 /* CLOCK_PROCESS_CPUTIME_ID */, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// drain waits until every issued frame reached the sink or timeout
// passes, and returns how many are missing.
func (d *loadgen) drain(timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	for {
		got, want := d.s.in.Load(), d.s.issued.Load()
		if got >= want {
			return 0
		}
		if time.Now().After(deadline) {
			return want - got
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// startSchedule anchors the open-loop schedule at the next batch, now.
func (d *loadgen) startSchedule() {
	d.t0 = router.Nanotime()
	d.k0 = d.seq / uint64(d.w.batch)
}

// nextDue is the due time of the next batch.
func (d *loadgen) nextDue() int64 {
	return d.t0 + int64(d.seq/uint64(d.w.batch)-d.k0)*d.interval
}

// sample is a reading of process-wide counters.
type sample struct {
	at     int64 // Nanotime
	cpu    int64 // user+sys ns
	spin   int64
	allocs uint64 // cumulative heap bytes allocated
	gcs    uint64
	sent   uint64 // frames issued
	injNs  int64
	injN   uint64
}

var sampleMetrics = [...]metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (d *loadgen) sample() sample {
	ms := sampleMetrics
	metrics.Read(ms[:])
	return sample{
		at: router.Nanotime(), cpu: cpuNanos(), spin: d.spin,
		allocs: ms[0].Value.Uint64(), gcs: ms[1].Value.Uint64(), sent: d.seq,
		injNs: d.injNs, injN: d.injN,
	}
}

// liveHeap reads the heap the last garbage collection found live.
func (d *loadgen) liveHeap() uint64 {
	metrics.Read(d.heapSample[:])
	return d.heapSample[0].Value.Uint64()
}

// phase is one measured stretch of the run.
type phase struct {
	windows  *phaseWindows
	marks    []sample // window boundaries: len(windows)+1 readings
	late     hist
	hostLate []int64 // per window: the longest the host held the generator past a due time
	heapPeak uint64
	first    uint64 // first sequence number of the phase
	end      int64  // when the last batch of the phase was sent
}

// run drives the plane for dur. With measure set it records a phase of
// nw windows; otherwise it only offers load (warm-up).
func (d *loadgen) run(dur time.Duration, nw int, measure bool) (*phase, error) {
	start := router.Nanotime()
	if d.interval > 0 {
		start = d.nextDue()
	}
	end := start + int64(dur)
	ph := &phase{first: d.seq}
	width := int64(dur) / int64(nw)
	if measure {
		ph.windows = &phaseWindows{start: start, width: width, w: make([]window, nw)}
		ph.hostLate = make([]int64, nw)
		d.s.setPhase(ph.windows)
	}
	nextMark, nextHeap := start, start
	for {
		var now int64
		if d.interval > 0 {
			due := d.nextDue()
			if due >= end {
				break
			}
			var hostLate int64
			now, hostLate = d.waitUntil(due)
			if measure {
				ph.late.add(uint64(now - due))
				i := (due - start) / width
				ph.hostLate[i] = max64(ph.hostLate[i], hostLate)
			}
		} else {
			now = router.Nanotime()
			if now >= end {
				break
			}
		}
		if measure {
			for now >= nextMark && len(ph.marks) < nw {
				ph.marks = append(ph.marks, d.sample())
				nextMark += width
				if d.onMark != nil {
					d.onMark(ph)
				}
			}
			if now >= nextHeap {
				if h := d.liveHeap(); h > ph.heapPeak {
					ph.heapPeak = h
				}
				nextHeap += int64(2 * time.Millisecond)
			}
		}
		if err := d.send(now); err != nil {
			return nil, err
		}
	}
	ph.end = router.Nanotime()
	if measure {
		for len(ph.marks) <= nw {
			ph.marks = append(ph.marks, d.sample())
		}
	}
	return ph, nil
}

// closePhase stops recording into the last phase's windows.
func (d *loadgen) closePhase() { d.s.setPhase(nil) }

// ---------------------------------------------------------------------------
// Meta-space control loop

// controller runs meta-space cycles. Every call is checked for failure;
// while tracing, every call is also a span.
type controller struct {
	mu       sync.Mutex
	failed   uint64
	calls    uint64
	tr       *tracer
	firstErr error
}

// do runs one cycle's operations back to back.
func (c *controller) do(ops []metaOp) {
	for _, op := range ops {
		t0 := router.Nanotime()
		err := op.do()
		t1 := router.Nanotime()
		c.mu.Lock()
		c.calls++
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
		}
		tr := c.tr
		c.mu.Unlock()
		if tr != nil {
			tr.record(op.layer, t0, t1)
		}
	}
}

func (c *controller) setTracer(t *tracer) {
	c.mu.Lock()
	c.tr = t
	c.mu.Unlock()
}

// counts returns the calls made and failed so far.
func (c *controller) counts() (calls, failed uint64, first error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.failed, c.firstErr
}

// rescaleEvery is how many cycles pass between two rescales: a rescale
// fences intake while the lanes drain, for about a millisecond on the
// reference host, so it runs on every 32nd cycle (about every 80 ms).
const rescaleEvery = 32

// live runs a cycle every ~2 ms (seeded jitter of ±0.5 ms) until stop
// closes.
func (c *controller) live(p *plane, r *rng, stop <-chan struct{}) {
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		default:
		}
		c.do(p.cycle(r, n%rescaleEvery == 0))
		gap := 1500*time.Microsecond + time.Duration(r.next()%1000)*time.Microsecond
		select {
		case <-stop:
			return
		case <-time.After(gap):
		}
	}
}
