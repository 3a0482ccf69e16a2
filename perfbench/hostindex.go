package main

import (
	"fmt"
	"time"

	"netkit/router"
)

// Host interference. On a shared host, neighbours on the same physical
// cores slow this process by up to about 1.8x, in stretches of 0.1 s to
// several seconds. The slowdown hits the harness and the program under
// test alike: the ratio of plane time to harness time stays within a few
// percent while both double. The benchmark therefore times its own
// harness work alongside the measured work, every window: the generator's
// frame building and the sink's oracle checks, both fixed code. Their
// cost per frame, divided by the workload's reference value (the same
// index on the reference host, undisturbed), is the window's slowdown
// factor. Time figures are divided by it, and rates multiplied, before
// the medians are taken; the raw figures are printed beside them.
//
// Only the closed loop is corrected. There the harness work runs on the
// measuring thread, interleaved with the plane's at batch granularity.
// In an open loop the sink runs on the lanes' threads, where its cost
// also depends on the plane (cache state of the frames it receives), so
// the index would partly cancel the plane's own changes.

// harnessIndex is the harness's own time per frame: building plus sink.
func harnessIndex(injNs int64, injN uint64, sinkNs int64, sinkN uint64) float64 {
	if injN == 0 || sinkN == 0 {
		return 0
	}
	return float64(injNs)/float64(injN) + float64(sinkNs)/float64(sinkN)
}

// slowdown converts a harness index to a slowdown factor against ref;
// without a reference or a reading it is 1.
func slowdown(index, ref float64) float64 {
	if index <= 0 || ref <= 0 {
		return 1
	}
	return index / ref
}

// nullCalibration runs the null loop: the generator straight into a
// sink, no plane, closed loop, for dur. It returns the harness's own wall
// time per frame.
func nullCalibration(w *workload, tr *traffic, dur time.Duration) (float64, error) {
	s, err := newSink(tr, oracleCfg{owned: true}, w.batch)
	if err != nil {
		return 0, err
	}
	defer s.close()
	nw := *w
	nw.rate = 0
	d := newLoadgen(&nw, tr, &plane{sink: s, entry: s})
	start := router.Nanotime()
	ph, err := d.run(dur, 1, false)
	if err != nil {
		return 0, err
	}
	n := d.seq - ph.first
	if n == 0 {
		return 0, fmt.Errorf("null calibration sent nothing")
	}
	return float64(ph.end-start) / float64(n), nil
}
