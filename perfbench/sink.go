package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"netkit/core"
	"netkit/router"
)

// The sink terminates every plane. It checks each frame against the
// oracle, records latency into the current phase's windows, and hands
// harness-owned packet wrappers back to the generator. It is the
// benchmark's own component, not nkload's, so harness work shows up
// only in the harness's per-layer numbers.

const typeSink = "perfbench.Sink"

// Oracle failure kinds.
const (
	errUnknown  = iota // too short, or a sequence number never issued
	errCorrupt         // header, length or check word differ from the schedule
	errDup             // sequence number delivered twice
	errReorder         // older than a frame already delivered on its flow
	errChecksum        // IPv4 header checksum invalid
	errTTL             // TTL not lowered by exactly the plane's fixed hops
	errPort            // classifier port (encoded in the TTL) differs from the VM verdict
	nErrKinds
)

var errNames = [nErrKinds]string{"unknown", "corrupt", "duplicate", "reorder", "checksum", "ttl", "port"}

// oracleCfg says what a workload's frames must look like at the sink.
type oracleCfg struct {
	// fixedDec is the TTL decrement every frame gets (fwd-64b: 1);
	// classifier ports add theirs on top. checkL3 enables the checksum
	// and TTL checks.
	fixedDec int
	checkL3  bool
	// owned marks packet wrappers as harness-owned: the sink recycles
	// them instead of releasing them to the plane's pools.
	owned bool
}

// window is one slice of a measured phase.
type window struct {
	lat       hist
	delivered uint64
	// sinkNs is the sink's own time on the window's frames, sinkN their
	// count: half of the window's harness speed index.
	sinkNs int64
	sinkN  uint64
}

// phaseWindows are the latency and delivery windows of one measured phase,
// keyed by each frame's due time.
type phaseWindows struct {
	start, width int64
	w            []window
}

func (pw *phaseWindows) slot(due int64) *window {
	if pw == nil || due < pw.start {
		return nil
	}
	i := (due - pw.start) / pw.width
	if i >= int64(len(pw.w)) {
		return nil
	}
	return &pw.w[i]
}

type sink struct {
	*core.Base
	tr  *traffic
	cfg oracleCfg
	// due maps a frame to the time it was due: its batch's scheduled
	// time (open loop) or its send time, the Born stamp (closed loop).
	due func(seq uint64, p *router.Packet) int64

	issued atomic.Uint64 // sequence numbers below this were handed to the plane
	in     atomic.Uint64
	first  chan struct{} // closed when the first frame arrives

	mu    sync.Mutex
	errs  [nErrKinds]uint64
	last  []int64  // per flow: last delivered seq, -1 before the first
	seen  []uint64 // bitmap of delivered seqs (off the Go heap)
	free  []*router.Packet
	phase *phaseWindows
	tk    *track // span track while tracing; nil otherwise
	batch int    // generator batch size, for span batch ids
	// workNs and workN total the sink's own time and frames.
	workNs int64
	workN  uint64
}

// seenBits bounds the duplicate bitmap: 2^31 sequence numbers (256 MiB of
// address space, touched only as far as the run goes).
const seenBits = 1 << 31

func newSink(tr *traffic, cfg oracleCfg, batch int) (*sink, error) {
	mem, err := syscall.Mmap(-1, 0, seenBits/8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("duplicate bitmap: %w", err)
	}
	s := &sink{
		Base:  core.NewBase(typeSink),
		tr:    tr,
		cfg:   cfg,
		last:  make([]int64, len(tr.flows)),
		seen:  bytesAsWords(mem),
		batch: batch,
		first: make(chan struct{}),
	}
	for i := range s.last {
		s.last[i] = -1
	}
	s.Provide(router.IPacketPushID, s)
	return s, nil
}

// close unmaps the duplicate bitmap; the sink must be idle.
func (s *sink) close() {
	if s.seen != nil {
		_ = syscall.Munmap(wordsAsBytes(s.seen))
		s.seen = nil
	}
}

// Push implements router.IPacketPush.
func (s *sink) Push(p *router.Packet) error {
	one := [1]*router.Packet{p}
	return s.PushBatch(one[:])
}

// PushBatch implements router.IPacketPushBatch: one clock read per batch,
// then every frame goes through the oracle.
func (s *sink) PushBatch(b []*router.Packet) error {
	s.mu.Lock()
	now := router.Nanotime()
	sp := int32(-1)
	if s.tk != nil {
		sp = s.tk.beginAt(lSink, s.batchID(b), len(b), now)
	}
	var w0 *window
	for _, p := range b {
		if w := s.take(p, now); w0 == nil {
			w0 = w
		}
	}
	t := router.Nanotime()
	if sp >= 0 {
		s.tk.endAt(sp, t)
	}
	if w0 != nil {
		w0.sinkNs += t - now
		w0.sinkN += uint64(len(b))
	}
	s.workNs += t - now
	s.workN += uint64(len(b))
	s.mu.Unlock()
	if s.in.Add(uint64(len(b))) == uint64(len(b)) {
		close(s.first)
	}
	return nil
}

func (s *sink) batchID(b []*router.Packet) uint64 {
	if len(b) == 0 || len(b[0].Data) < minFrame {
		return 0
	}
	return binary.LittleEndian.Uint64(b[0].Data[seqOff:]) / uint64(s.batch)
}

// take checks one frame, records it in the window it was due in (which
// it returns, nil outside a measured phase), and recycles or releases it.
// Caller holds s.mu.
func (s *sink) take(p *router.Packet, now int64) *window {
	seq, kind := s.check(p.Data)
	var w *window
	if kind >= 0 {
		s.errs[kind]++
	} else {
		due := s.due(seq, p)
		if w = s.phase.slot(due); w != nil {
			w.delivered++
			w.lat.add(uint64(max64(now-due, 0)))
		}
	}
	if s.cfg.owned {
		*p = router.Packet{Data: p.Data[:cap(p.Data)]}
		s.free = append(s.free, p)
	} else {
		p.Release()
	}
	return w
}

// check runs the oracle over one frame: it returns the frame's sequence
// number and -1, or the first failure kind found.
func (s *sink) check(d []byte) (uint64, int) {
	if len(d) < minFrame {
		return 0, errUnknown
	}
	seq := binary.LittleEndian.Uint64(d[seqOff:])
	if seq >= s.issued.Load() || seq >= seenBits {
		return seq, errUnknown
	}
	fl, class := s.tr.slot(seq)
	h := &s.tr.hdr[fl*len(s.tr.spec.sizes)+class]
	if len(d) != s.tr.spec.sizes[class] ||
		binary.LittleEndian.Uint64(d[tagOff:]) != checkWord(s.tr.seed, seq) ||
		string(d[0:8]) != string(h[0:8]) || d[9] != h[9] ||
		string(d[12:hdrLen]) != string(h[12:hdrLen]) {
		return seq, errCorrupt
	}
	word, bit := seq/64, uint64(1)<<(seq%64)
	if s.seen[word]&bit != 0 {
		return seq, errDup
	}
	s.seen[word] |= bit
	if int64(seq) < s.last[fl] {
		return seq, errReorder
	}
	s.last[fl] = int64(seq)
	if s.cfg.checkL3 {
		if !ipv4ChecksumOK(d[:packetIHL(d)]) {
			return seq, errChecksum
		}
		if want := s.tr.expectedTTL(fl, s.cfg.fixedDec); d[8] != want {
			if s.tr.verdict != nil {
				return seq, errPort
			}
			return seq, errTTL
		}
	}
	return seq, -1
}

func packetIHL(d []byte) int { return int(d[0]&0x0f) * 4 }

// ipv4ChecksumOK verifies an IPv4 header checksum independently of the
// packet package the plane uses.
func ipv4ChecksumOK(h []byte) bool {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		sum += uint32(h[i])<<8 | uint32(h[i+1])
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return sum == 0xffff
}

// reuse hands the generator up to n recycled wrappers.
func (s *sink) reuse(dst []*router.Packet, n int) []*router.Packet {
	s.mu.Lock()
	k := len(s.free)
	if k > n {
		k = n
	}
	dst = append(dst, s.free[len(s.free)-k:]...)
	s.free = s.free[:len(s.free)-k]
	s.mu.Unlock()
	return dst
}

// oracleErrors returns the total oracle failures so far.
func (s *sink) oracleErrors() (total uint64, byKind [nErrKinds]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.errs {
		total += e
	}
	return total, s.errs
}

// setPhase installs (or, with nil, removes) the windows frames are
// recorded into.
func (s *sink) setPhase(pw *phaseWindows) {
	s.mu.Lock()
	s.phase = pw
	s.mu.Unlock()
}

// setTrack installs (or removes) the span track sink spans go to.
func (s *sink) setTrack(tk *track) {
	s.mu.Lock()
	s.tk = tk
	s.mu.Unlock()
}

// Stats implements core.IStats, so conservation checks see the sink's
// intake like any element's.
func (s *sink) Stats() []core.Stat {
	return []core.Stat{core.C("packets_in", "packets", s.in.Load())}
}

func bytesAsWords(b []byte) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func wordsAsBytes(w []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*8)
}

var (
	_ router.IPacketPushBatch = (*sink)(nil)
	_ core.IStats             = (*sink)(nil)
)
