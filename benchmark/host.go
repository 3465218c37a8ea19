package main

import (
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// fingerprint identifies the machine and settings a results file was
// measured with; -compare refuses to compare files whose fingerprints
// differ (timings from different hosts are not comparable).
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Sizes      sizes  `json:"sizes"` // includes the rank count
}

// hostProcs is the core budget the benchmark gives itself: one rank per
// core up to four. More ranks than cores would measure the scheduler's
// time-slicing inside every Barrier, not the runtime.
func hostProcs() int { return min(runtime.NumCPU(), 4) }

func newFingerprint(sz sizes, seed int64, seconds int) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernelRelease(),
		Seed:       seed,
		Seconds:    seconds,
		Sizes:      sz,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// processCPU returns the user+system CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's high-water resident set (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// calibSink keeps the calibration kernel's result alive.
var calibSink atomic.Uint64

// calibBufs is the memory half of the calibration kernel: a private
// 2 x 8 MiB pair per core, allocated once so that calibration allocates
// nothing around a measured window.
var calibBufs [][2][]byte

// calibrate times a fixed kernel run on every core the benchmark uses
// at once — independent integer and floating-point chains, then 32 MiB
// of memory copies, per core — and returns the fastest of three rounds
// in milliseconds. It has to load all the cores and keep their pipelines
// full: this sandbox's dominant noise is the two vCPUs being slowed
// together (epochs of a workload flip between 37 ms and 68 ms for
// seconds at a time), which a single-threaded or dependent-chain probe
// does not see at all.
func calibrate() float64 {
	procs := hostProcs()
	if calibBufs == nil {
		calibBufs = make([][2][]byte, procs)
		for i := range calibBufs {
			calibBufs[i] = [2][]byte{make([]byte, 8<<20), make([]byte, 8<<20)}
		}
	}
	best := time.Duration(1<<63 - 1)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, buf := range calibBufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, b, c, d := uint64(88172645463325252), uint64(1234567), uint64(987654321), uint64(5)
				var f float64
				for i := 0; i < 2_000_000; i++ {
					a ^= a << 13
					a ^= a >> 7
					b ^= b << 17
					b ^= b >> 5
					c = c*6364136223846793005 + 1442695040888963407
					d += c >> 3
					f += float64(i&7) * 0.25
				}
				copy(buf[1], buf[0])
				copy(buf[0], buf[1])
				calibSink.Add(a + b + c + d + uint64(f) + uint64(buf[0][0]))
			}()
		}
		wg.Wait()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / 1e6
}

// hostWarmUp is the throw-away spin before the first window: the first
// work after an idle period runs up to 50% slow on this host.
func hostWarmUp() {
	for i := 0; i < 4; i++ {
		calibrate()
	}
}
