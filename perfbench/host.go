package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// host identifies the machine a run measured, plus two calibration
// loops timed just before set-up. The loops do fixed work, so a slow
// episode of the host shows in them as well as in the workload's
// figures, and can be told apart from a regression of the program.
type host struct {
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	CPULoopMS  float64 `json:"cpu_loop_ms"`
	MemCopyMS  float64 `json:"memcopy_loop_ms"`
}

func probeHost(seed int64) host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
	h.CPULoopMS = cpuLoop()
	h.MemCopyMS = memCopyLoop()
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
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

// calibrationSink keeps the calibration loops' results alive.
var calibrationSink uint64

// cpuLoop times 50M steps of an xorshift generator: pure integer work
// with no memory traffic.
func cpuLoop() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink += x
	return ms(int64(time.Since(t0)))
}

// memCopyLoop times 16 copies of a 16 MiB buffer, larger than any
// last-level cache of the hosts this runs on.
func memCopyLoop() float64 {
	src := make([]byte, 16<<20)
	dst := make([]byte, len(src))
	for i := range src {
		src[i] = byte(i)
	}
	t0 := time.Now()
	for i := 0; i < 16; i++ {
		copy(dst, src)
		src[i]++
	}
	calibrationSink += uint64(dst[len(dst)-1])
	return ms(int64(time.Since(t0)))
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
