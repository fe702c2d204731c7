package main

import (
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opStart readies the process for one exploration and returns the
// process CPU time at its start. It first returns the heap's free pages to
// the system and restarts the kernel's peak-RSS counter, so that the peak
// resident set read after the exploration (peakRSSMB) is its own and not
// an earlier exploration's. This preparation is not charged to the
// exploration's CPU time.
func opStart() time.Duration {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current resident set.
	// Where that is refused the counter keeps the process's peak so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return processCPU()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB since the
// last opStart, or since process start where it cannot be reset.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goRuntime is a snapshot of the Go runtime counters the ledger reports.
type goRuntime struct {
	allocBytes, mallocs, gcCycles float64
	gcCPUSeconds                  float64
}

var goRuntimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoRuntime() goRuntime {
	s := make([]metrics.Sample, len(goRuntimeSamples))
	for i, name := range goRuntimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goRuntime{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

func (g goRuntime) sub(o goRuntime) goRuntime {
	return goRuntime{g.allocBytes - o.allocBytes, g.mallocs - o.mallocs, g.gcCycles - o.gcCycles, g.gcCPUSeconds - o.gcCPUSeconds}
}
