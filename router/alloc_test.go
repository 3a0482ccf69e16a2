//go:build !race

// The race detector makes sync.Pool drop a share of its Puts at random,
// so the pooled frame batch behind NICSink would allocate under it.

package router

import (
	"testing"

	"netkit/core"
	"netkit/internal/buffers"
)

// txDevice is a transmit-only osabs.Device that accepts every frame or
// refuses every frame, allocating nothing either way, so the allocation
// count below is the sink's own.
type txDevice struct{ accept bool }

func (d *txDevice) Name() string { return "tx" }

func (d *txDevice) RecvBatchInto(dst [][]byte, _ int) ([][]byte, *buffers.Buffer, error) {
	return dst, nil, nil
}

func (d *txDevice) SendBatch(frames [][]byte) (int, error) {
	if d.accept {
		return len(frames), nil
	}
	return 0, nil
}

func (d *txDevice) StatList() []core.Stat { return nil }

func (d *txDevice) Close() error { return nil }

// TestBatchOfOnePushAllocs pins that the per-packet Push of the elements
// that implement it as a batch of one (FIFOQueue, REDQueue, NICSink)
// allocates nothing, on the accept path and on the drop path.
func TestBatchOfOnePushAllocs(t *testing.T) {
	p := NewPacket(make([]byte, 64)) // caller-owned: Release is a no-op
	fifo, err := NewFIFOQueue(1)
	if err != nil {
		t.Fatal(err)
	}
	red, err := NewREDQueue(REDConfig{
		Capacity: 4, MinTh: 1, MaxTh: 3, MaxP: 0.1,
		Rand: func() float64 { return 0.5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	accept, err := NewNICSink(&txDevice{accept: true})
	if err != nil {
		t.Fatal(err)
	}
	refuse, err := NewNICSink(&txDevice{})
	if err != nil {
		t.Fatal(err)
	}
	push := func(dst IPacketPush) {
		if err := dst.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	pull := func(src IPacketPull) {
		if _, err := src.Pull(); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name  string
		setup func()
		run   func()
		check func() bool
	}{
		{"fifo/accept", nil, func() { push(fifo); pull(fifo) },
			func() bool { return fifo.ElemStats().Dropped == 0 }},
		{"fifo/drop", func() { push(fifo) }, func() { push(fifo) },
			func() bool { return fifo.ElemStats().Dropped > 0 }},
		{"red/accept", nil, func() { push(red); pull(red) },
			func() bool { return red.ElemStats().Dropped == 0 }},
		{"red/drop", func() {
			for i := 0; i < len(red.ring); i++ {
				push(red)
			}
		}, func() { push(red) },
			func() bool { return red.ForcedDrops() > 0 }},
		{"nicsink/accept", nil, func() { push(accept) },
			func() bool { return accept.ElemStats().Dropped == 0 && accept.ElemStats().Out > 0 }},
		{"nicsink/drop", nil, func() { push(refuse) },
			func() bool { return refuse.ElemStats().Dropped > 0 }},
	} {
		if tc.setup != nil {
			tc.setup()
		}
		if allocs := testing.AllocsPerRun(200, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocations per Push, want 0", tc.name, allocs)
		}
		if !tc.check() {
			t.Errorf("%s: did not take the path under test", tc.name)
		}
	}
}
