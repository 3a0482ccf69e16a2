package router

import (
	"context"
	"fmt"
	"testing"
	"time"

	"netkit/internal/buffers"
	"netkit/internal/osabs"
)

// devRig wires a NICSource over dev into a collecting sink inside a
// started capsule and returns the sink plus a stopper.
func devRig(t *testing.T, dev osabs.Device, pool *buffers.Pool, cfg PumpConfig) (*sink, *NICSource) {
	t.Helper()
	src, err := NewNICSourcePump(dev, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := newCap()
	out := newSink()
	if err := c.Insert("src", src); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("out", out); err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectPush(c, "src", "out", "out"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.StopAll(ctx) })
	return out, src
}

func waitCount(t *testing.T, s *sink, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.count() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.count(); got != want {
		t.Fatalf("sink holds %d of %d packets", got, want)
	}
}

// TestNICSourceUDPArenaZeroCopy drives real loopback UDP through the
// polling pump with an arena-backed device: packets must adopt the slab
// reference zero-copy, keep their bytes intact while held, and return
// every slab to the arena once released.
func TestNICSourceUDPArenaZeroCopy(t *testing.T) {
	arena, err := osabs.NewFrameArena(512, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := osabs.NewUDPDevice(osabs.UDPConfig{
		Name: "udp-rx", Listen: "127.0.0.1:0", Batch: 8, FrameSize: 512, Arena: arena,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := osabs.NewUDPDevice(osabs.UDPConfig{Listen: "127.0.0.1:0", Peer: rx.LocalAddr(), Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	out, _ := devRig(t, rx, nil, PumpConfig{Batch: 8})
	const frames = 24
	for base := 0; base < frames; base += 8 {
		batch := make([][]byte, 0, 8)
		for i := base; i < base+8; i++ {
			batch = append(batch, []byte(fmt.Sprintf("pkt-%03d", i)))
		}
		if n, err := tx.SendBatch(batch); err != nil || n != 8 {
			t.Fatalf("send: n=%d err=%v", n, err)
		}
	}
	waitCount(t, out, frames)

	out.mu.Lock()
	seen := map[string]bool{}
	for _, p := range out.pkts {
		if p.Buf == nil {
			t.Fatal("arena-backed packet lost its slab reference")
		}
		if p.InPort != "udp-rx" {
			t.Fatalf("InPort %q", p.InPort)
		}
		seen[string(p.Data)] = true
	}
	for i := 0; i < frames; i++ {
		if want := fmt.Sprintf("pkt-%03d", i); !seen[want] {
			t.Fatalf("payload %q never surfaced (held: %v)", want, seen)
		}
	}
	if live := arena.Stats().Live; live == 0 {
		t.Fatal("arena reports no live slabs while packets are held")
	}
	for _, p := range out.pkts {
		p.Release()
	}
	out.pkts = nil
	out.mu.Unlock()
	if live := arena.Stats().Live; live != 0 {
		t.Fatalf("arena has %d live slabs after releasing every packet", live)
	}
}

// TestNICSourcePoolCopyVsWrapAliasing pins the pooled-vs-nil-pool
// contract under batched receive: the pooled path copies (mutating the
// injected frame afterwards must not reach the packet) and returns every
// buffer on Release; the nil-pool path wraps the device's bytes.
func TestNICSourcePoolCopyVsWrapAliasing(t *testing.T) {
	mk := func(name string) (*osabs.NIC, [][]byte) {
		nic, err := osabs.NewNIC(name, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		frames := make([][]byte, 16)
		for i := range frames {
			frames[i] = []byte(fmt.Sprintf("frame-%02d", i))
		}
		return nic, frames
	}

	t.Run("pooled-copies", func(t *testing.T) {
		nic, frames := mk("nic-pool")
		pool := buffers.MustNewPool([]int{256}, 32, 0)
		// Spin > 0 forces the polling pump onto the channel-backed NIC,
		// exercising RecvBatchInto batch receive.
		out, _ := devRig(t, nic, pool, PumpConfig{Batch: 8, Spin: 4, Park: time.Millisecond})
		for _, f := range frames {
			if err := nic.Inject(f); err != nil {
				t.Fatal(err)
			}
		}
		waitCount(t, out, len(frames))
		// Scribble over every injected frame; copies must not see it.
		for _, f := range frames {
			for i := range f {
				f[i] = '!'
			}
		}
		out.mu.Lock()
		for i, p := range out.pkts {
			if want := fmt.Sprintf("frame-%02d", i); string(p.Data) != want {
				t.Fatalf("packet %d aliases the injected frame: %q", i, p.Data)
			}
			if p.Buf == nil {
				t.Fatalf("packet %d: pooled path produced no buffer", i)
			}
			p.Release()
		}
		out.pkts = nil
		out.mu.Unlock()
		if live := pool.Stats().Live; live != 0 {
			t.Fatalf("pool has %d live buffers after release", live)
		}
	})

	t.Run("nil-pool-wraps", func(t *testing.T) {
		nic, frames := mk("nic-wrap")
		out, _ := devRig(t, nic, nil, PumpConfig{Batch: 8, Spin: 4, Park: time.Millisecond})
		for _, f := range frames {
			if err := nic.Inject(f); err != nil {
				t.Fatal(err)
			}
		}
		waitCount(t, out, len(frames))
		out.mu.Lock()
		defer out.mu.Unlock()
		p0 := out.pkts[0]
		if p0.Buf != nil {
			t.Fatal("nil-pool path allocated a buffer")
		}
		frames[0][0] = 'Z'
		if p0.Data[0] != 'Z' {
			t.Fatal("nil-pool path copied; expected zero-copy wrap")
		}
	})
}

// TestNICSourceBusyPollTelemetry checks the spin-then-park idle policy
// surfaces in the component's stats.
func TestNICSourceBusyPollTelemetry(t *testing.T) {
	rx, err := osabs.NewUDPDevice(osabs.UDPConfig{Listen: "127.0.0.1:0", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	_, src := devRig(t, rx, nil, PumpConfig{Batch: 8, Spin: 16, Park: 200 * time.Microsecond})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var spins, parks uint64
		for _, st := range src.Stats() {
			switch st.Name {
			case "pump_spins":
				spins = uint64(st.Value)
			case "pump_parks":
				parks = uint64(st.Value)
			}
		}
		if spins > 0 && parks > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("idle pump never reported both spins and parks")
}

// TestNICSinkBatchesDeviceSend verifies the sink gathers a packet batch
// into one device SendBatch call (one syscall on the mmsg backend) and
// releases every pooled buffer afterwards.
func TestNICSinkBatchesDeviceSend(t *testing.T) {
	rx, err := osabs.NewUDPDevice(osabs.UDPConfig{Listen: "127.0.0.1:0", Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := osabs.NewUDPDevice(osabs.UDPConfig{Name: "udp-tx", Listen: "127.0.0.1:0", Peer: rx.LocalAddr(), Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	snk, err := NewNICSink(tx)
	if err != nil {
		t.Fatal(err)
	}

	pool := buffers.MustNewPool([]int{256}, 64, 0)
	batch := make([]*Packet, 32)
	for i := range batch {
		p, err := NewPooledPacket(pool, []byte(fmt.Sprintf("tx-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = p
	}
	if err := snk.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if live := pool.Stats().Live; live != 0 {
		t.Fatalf("sink left %d pooled buffers live", live)
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < 32 && time.Now().Before(deadline) {
		frames, slab, err := rx.RecvBatchInto(nil, 32)
		if err != nil {
			t.Fatal(err)
		}
		for range frames {
			got++
			if slab != nil {
				_ = slab.Release()
			}
		}
	}
	if got != 32 {
		t.Fatalf("receiver saw %d of 32 frames", got)
	}
	if osabs.MmsgSupported() {
		if st := tx.Stats(); st.TxSyscalls != 1 {
			t.Fatalf("tx spent %d syscalls on one 32-frame PushBatch", st.TxSyscalls)
		}
	}
}

// TestNICSourceStampsBornPerBatch pre-fills a simulated NIC so both pumps
// receive every frame in one batch: the polling pump (Spin > 0) in one
// RecvBatchInto, the channel pump in one drained burst. With StampBorn
// all packets of the batch share one nonzero Born; without it Born stays 0.
func TestNICSourceStampsBornPerBatch(t *testing.T) {
	const frames = 16
	for _, tc := range []struct {
		name  string
		spin  int
		stamp bool
	}{
		{"poll/stamp", 1, true},
		{"poll/off", 1, false},
		{"chan/stamp", 0, true},
		{"chan/off", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nic, err := osabs.NewNIC("eth-born", frames, frames)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < frames; i++ {
				if err := nic.Inject([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			out, _ := devRig(t, nic, nil, PumpConfig{Batch: frames, Spin: tc.spin, StampBorn: tc.stamp})
			waitCount(t, out, frames)
			out.mu.Lock()
			defer out.mu.Unlock()
			born := out.pkts[0].Born
			if tc.stamp != (born != 0) {
				t.Fatalf("StampBorn %v: Born = %d", tc.stamp, born)
			}
			for i, p := range out.pkts {
				if p.Born != born {
					t.Fatalf("packet %d: Born %d, packet 0: %d", i, p.Born, born)
				}
			}
		})
	}
}
