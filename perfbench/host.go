package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"netkit/internal/osabs"
	"netkit/router"
)

// hostInfo is the fingerprint printed with every result, so a change of
// host reads as one and not as a regression.
type hostInfo struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	NanotimeNs float64 `json:"nanotime_ns"`
	UDPBackend string  `json:"udp_backend"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
		NanotimeNs: nanotimeCost(), UDPBackend: "portable",
	}
	if osabs.MmsgSupported() {
		h.UDPBackend = "mmsg"
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision run.py found in the checkout's git
// metadata, or "unknown" (a checkout without history).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// nanotimeCost is the median cost of one router.Nanotime call over 9
// rounds of 100k calls.
func nanotimeCost() float64 {
	const n = 100000
	var rounds []float64
	for r := 0; r < 9; r++ {
		t := time.Now()
		var sink int64
		for i := 0; i < n; i++ {
			sink += router.Nanotime()
		}
		_ = sink
		rounds = append(rounds, float64(time.Since(t))/n)
	}
	sort.Float64s(rounds)
	return rounds[len(rounds)/2]
}
