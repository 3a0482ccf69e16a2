package osabs

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// udpPair opens a transmit device aimed at a fresh receive device over
// loopback, with each side's backend forced portable or left to the
// platform default.
func udpPair(t *testing.T, txPortable, rxPortable bool, batch int) (tx, rx *UDPDevice) {
	t.Helper()
	rx, err := NewUDPDevice(UDPConfig{
		Name: "rx", Listen: "127.0.0.1:0", Batch: batch, ForcePortable: rxPortable,
	})
	if err != nil {
		t.Fatalf("rx device: %v", err)
	}
	t.Cleanup(func() { _ = rx.Close() })
	tx, err = NewUDPDevice(UDPConfig{
		Name: "tx", Listen: "127.0.0.1:0", Peer: rx.LocalAddr(),
		Batch: batch, ForcePortable: txPortable,
	})
	if err != nil {
		t.Fatalf("tx device: %v", err)
	}
	t.Cleanup(func() { _ = tx.Close() })
	return tx, rx
}

// recvAll polls rx until want frames arrive (or the deadline lapses),
// releasing every arena reference before returning the payload copies.
func recvAll(t *testing.T, rx *UDPDevice, want int, deadline time.Duration) [][]byte {
	t.Helper()
	var got [][]byte
	stop := time.Now().Add(deadline)
	for len(got) < want && time.Now().Before(stop) {
		frames, slab, err := rx.RecvBatchInto(nil, rx.Batch())
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		for _, f := range frames {
			got = append(got, append([]byte(nil), f...))
			if slab != nil {
				if err := slab.Release(); err != nil {
					t.Fatalf("slab release: %v", err)
				}
			}
		}
	}
	return got
}

func TestUDPDeviceRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		txPortable, rxPortable bool
	}{
		{"default-backends", false, false},
		{"portable-backends", true, true},
		{"mmsg-to-portable", false, true},
		{"portable-to-mmsg", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tx, rx := udpPair(t, tc.txPortable, tc.rxPortable, 32)
			const frames = 96
			batch := make([][]byte, 0, 32)
			sent := 0
			for sent < frames {
				batch = batch[:0]
				for i := 0; i < 32 && sent+i < frames; i++ {
					batch = append(batch, []byte(fmt.Sprintf("frame-%03d", sent+i)))
				}
				n, err := tx.SendBatch(batch)
				if err != nil {
					t.Fatalf("send: %v", err)
				}
				if n != len(batch) {
					t.Fatalf("sent %d of %d", n, len(batch))
				}
				sent += n
			}
			got := recvAll(t, rx, frames, 5*time.Second)
			if len(got) != frames {
				t.Fatalf("received %d of %d frames", len(got), frames)
			}
			// Loopback UDP from one connected socket preserves order.
			for i, f := range got {
				if want := fmt.Sprintf("frame-%03d", i); string(f) != want {
					t.Fatalf("frame %d: got %q want %q", i, f, want)
				}
			}
			st := rx.Stats()
			if st.RxFrames != frames {
				t.Fatalf("rx_frames %d want %d", st.RxFrames, frames)
			}
			if st.RxSyscalls == 0 || st.RxSyscalls > st.RxFrames {
				t.Fatalf("rx_syscalls %d out of range (frames %d)", st.RxSyscalls, st.RxFrames)
			}
			tst := tx.Stats()
			if tst.TxFrames != frames {
				t.Fatalf("tx_frames %d want %d", tst.TxFrames, frames)
			}
			if !tc.txPortable && mmsgSupported && tst.TxSyscalls >= frames {
				t.Fatalf("mmsg tx spent %d syscalls for %d frames: no amortisation", tst.TxSyscalls, frames)
			}
		})
	}
}

// TestUDPPortableDrainTimeoutAccounting pins the rx_syscalls contract
// ("syscalls that returned >=1 frame") on the portable backend, whose
// polls end with a read that times out: that read is an empty poll, not a
// productive syscall. Every poll here returns fewer frames than the
// batch, so each one ends in exactly one timed-out read, whatever the
// arrival timing.
func TestUDPPortableDrainTimeoutAccounting(t *testing.T) {
	tx, rx := udpPair(t, true, true, 8)
	const frames = 3
	batch := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	if n, err := tx.SendBatch(batch); err != nil || n != frames {
		t.Fatalf("send: %d, %v", n, err)
	}
	got, polls := 0, 0
	for stop := time.Now().Add(5 * time.Second); got < frames && time.Now().Before(stop); {
		before := rx.Stats()
		fs, slab, err := rx.RecvBatchInto(nil, rx.Batch())
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		for range fs {
			if err := slab.Release(); err != nil {
				t.Fatalf("slab release: %v", err)
			}
		}
		after := rx.Stats()
		if d := after.RxSyscalls - before.RxSyscalls; d != uint64(len(fs)) {
			t.Fatalf("poll %d: %d frames counted %d productive syscalls", polls, len(fs), d)
		}
		if d := after.RxEmptyPolls - before.RxEmptyPolls; d != 1 {
			t.Fatalf("poll %d: %d frames counted %d empty polls, want 1", polls, len(fs), d)
		}
		got += len(fs)
		polls++
	}
	st := rx.Stats()
	if st.RxFrames != frames || st.RxSyscalls != frames || st.RxEmptyPolls != uint64(polls) {
		t.Fatalf("stats %+v after %d polls, want %d frames in %d productive syscalls", st, polls, frames, frames)
	}
}

func TestUDPSendBatchAmortizesSyscalls(t *testing.T) {
	if !mmsgSupported {
		t.Skip("batched syscall backend not compiled on this platform")
	}
	tx, rx := udpPair(t, false, false, 32)
	batch := make([][]byte, 32)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("b-%02d", i))
	}
	if _, err := tx.SendBatch(batch); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got := recvAll(t, rx, 32, 5*time.Second); len(got) != 32 {
		t.Fatalf("received %d of 32", len(got))
	}
	if st := tx.Stats(); st.TxSyscalls != 1 {
		t.Fatalf("tx syscalls %d for one 32-frame batch, want 1", st.TxSyscalls)
	}
	// The receive side should also have moved multiple frames per
	// syscall once the socket queue held the burst.
	if st := rx.Stats(); st.RxSyscalls >= st.RxFrames {
		t.Fatalf("rx %d frames in %d syscalls: no batching", st.RxFrames, st.RxSyscalls)
	}
}

func TestUDPArenaSlabRecycles(t *testing.T) {
	arena, err := NewFrameArena(512, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewUDPDevice(UDPConfig{
		Listen: "127.0.0.1:0", Batch: 8, FrameSize: 512, Arena: arena,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := NewUDPDevice(UDPConfig{Listen: "127.0.0.1:0", Peer: rx.LocalAddr(), Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if _, err := tx.SendBatch([][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}); err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	stop := time.Now().Add(5 * time.Second)
	for len(frames) < 3 && time.Now().Before(stop) {
		var slab interface{ Release() error }
		fs, s, err := rx.RecvBatchInto(nil, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) == 0 {
			continue
		}
		slab = s
		if s == nil {
			t.Fatal("arena-backed device returned nil slab for non-empty batch")
		}
		frames = append(frames, fs...)
		// One release per carved frame; the last one must recycle.
		for range fs {
			if err := slab.Release(); err != nil {
				t.Fatalf("release: %v", err)
			}
		}
	}
	if len(frames) != 3 {
		t.Fatalf("received %d of 3", len(frames))
	}
	if live := arena.Stats().Live; live != 0 {
		t.Fatalf("arena has %d live slabs after full release", live)
	}
	// An empty poll must not leak its slab either.
	if _, slab, err := rx.RecvBatchInto(nil, 8); err != nil || slab != nil {
		t.Fatalf("empty poll: slab=%v err=%v", slab, err)
	}
	if live := arena.Stats().Live; live != 0 {
		t.Fatalf("arena has %d live slabs after empty poll", live)
	}
}

func TestUDPDeviceGroupSpreadsFlows(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("SO_REUSEPORT groups are Linux-gated")
	}
	group, err := NewUDPDeviceGroup(UDPConfig{Name: "grp", Listen: "127.0.0.1:0", Batch: 16}, 4)
	if err != nil {
		t.Fatalf("group: %v", err)
	}
	defer func() {
		for _, d := range group {
			_ = d.Close()
		}
	}()
	if got := group[1].Name(); got != "grp:q1" {
		t.Fatalf("queue name %q", got)
	}
	target := group[0].LocalAddr()
	// Many distinct source sockets = many kernel-hashed "flows".
	const senders, perSender = 16, 8
	for s := 0; s < senders; s++ {
		tx, err := NewUDPDevice(UDPConfig{Listen: "127.0.0.1:0", Peer: target, Batch: 16})
		if err != nil {
			t.Fatal(err)
		}
		batch := make([][]byte, perSender)
		for i := range batch {
			batch[i] = []byte(fmt.Sprintf("s%02d-%d", s, i))
		}
		if n, err := tx.SendBatch(batch); err != nil || n != perSender {
			t.Fatalf("sender %d: n=%d err=%v", s, n, err)
		}
		_ = tx.Close()
	}
	const want = senders * perSender
	got := 0
	stop := time.Now().Add(5 * time.Second)
	for got < want && time.Now().Before(stop) {
		for _, d := range group {
			frames, slab, err := d.RecvBatchInto(nil, 16)
			if err != nil {
				t.Fatal(err)
			}
			for range frames {
				got++
				_ = slab.Release()
			}
		}
	}
	if got != want {
		t.Fatalf("group received %d of %d frames", got, want)
	}
}

func TestUDPSendWithoutPeerFails(t *testing.T) {
	for _, portable := range []bool{false, true} {
		d, err := NewUDPDevice(UDPConfig{Listen: "127.0.0.1:0", ForcePortable: portable})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.SendBatch([][]byte{[]byte("x")}); err == nil {
			t.Fatalf("portable=%v: send without peer succeeded", portable)
		}
		_ = d.Close()
	}
}

func TestUDPDeviceClosedErrors(t *testing.T) {
	d, err := NewUDPDevice(UDPConfig{Listen: "127.0.0.1:0", Peer: "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.RecvBatchInto(nil, 8); err == nil {
		t.Fatal("recv on closed device succeeded")
	}
	if _, err := d.SendBatch([][]byte{[]byte("x")}); err == nil {
		t.Fatal("send on closed device succeeded")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestUDPStatListShape(t *testing.T) {
	tx, rx := udpPair(t, false, false, 32)
	batch := make([][]byte, 32)
	for i := range batch {
		batch[i] = []byte("payload")
	}
	if _, err := tx.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := recvAll(t, rx, 32, 5*time.Second); len(got) != 32 {
		t.Fatalf("received %d of 32", len(got))
	}
	stats := map[string]bool{}
	for _, s := range rx.StatList() {
		stats[s.Name] = true
	}
	for _, want := range []string{
		"udp_rx_frames", "udp_tx_frames", "udp_rx_syscalls", "udp_tx_syscalls",
		"udp_rx_frames_per_syscall", "udp_batch_fill", "udp_sock_drops", "udp_tx_drops",
	} {
		if !stats[want] {
			t.Fatalf("StatList lacks %s (have %v)", want, stats)
		}
	}
}
