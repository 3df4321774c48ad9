package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// envInfo records the machine a result was measured on; a number without it
// cannot be compared with anything.
type envInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	// Workers is W, the load threads of the serve workloads.
	Workers int `json:"workers"`
}

func readEnv() envInfo {
	e := envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     "unknown",
		Commit:     "unknown",
		Workers:    loadWorkers(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// Outside a git checkout (the driver's copy is one) the commit stays
	// unknown; nothing else depends on it.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// loadWorkers is W = max(1, nproc−1): one core is left to the servers. At
// W = nproc the staleness check trips on an oversubscribed box (README,
// "Known defects at the baseline").
func loadWorkers() int { return max(1, runtime.NumCPU()-1) }

// procSnapshot is the process-wide resource state at one instant.
type procSnapshot struct {
	user, sys time.Duration
	mallocs   uint64
	gcCycles  uint32
}

// liveHeapMB forces a collection and reports the heap still in use: what the
// deployment retains, without the garbage a GC cycle happened to leave. Call
// it while the deployment is still up.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func readProc() procSnapshot {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		gcCycles: ms.NumGC,
	}
}

// peakRSSMB is the process's high-water resident set. ru_maxrss is in KiB on
// Linux, the only platform the benchmark's numbers are quoted for.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// procMetrics turns two snapshots around ops operations into cpu_us_per_op
// and the proc.* layer metrics.
func procMetrics(before, after procSnapshot, ops uint64, e2e, layers metrics) {
	user, sys := after.user-before.user, after.sys-before.sys
	e2e.set("cpu_us_per_op", ratio(us(user+sys), float64(ops)), "us")
	layers.set("proc.sys_cpu_share", ratio(float64(sys), float64(user+sys)), "share")
	layers.set("proc.mallocs_per_op", ratio(float64(after.mallocs-before.mallocs), float64(ops)), "count")
	layers.set("proc.gc_cycles", float64(after.gcCycles-before.gcCycles), "count")
}
