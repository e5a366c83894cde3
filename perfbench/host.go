package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// rtSample is a point-in-time read of the Go runtime counters the
// runtime layer's metrics are differences of.
type rtSample struct {
	allocObjs, allocBytes uint64
	gcCPU, totalCPU       float64
	sched                 *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocObjs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[3].Value.Float64()
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		r.sched = s[4].Value.Float64Histogram()
	}
	return r
}

// allocMeter sums heap allocations over the timed segments of a run only,
// so the benchmark's own checks do not count against the program.
type allocMeter struct {
	objs, bytes uint64
	open        rtSample
}

func (m *allocMeter) begin() { m.open = readRuntime() }

func (m *allocMeter) end() {
	r := readRuntime()
	m.objs += r.allocObjs - m.open.allocObjs
	m.bytes += r.allocBytes - m.open.allocBytes
}

// schedP99us is the p99 of goroutine run-queue wait between two samples,
// from the runtime's scheduling-latency histogram, in microseconds.
func schedP99us(a, b rtSample) float64 {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0
	}
	d := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range d {
		d[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := (total*99 + 99) / 100
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= want {
			// Buckets[i+1] is the bucket's upper edge; the last is +Inf.
			hi := b.sched.Buckets[i+1]
			if hi > 1e9 {
				hi = b.sched.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal: guest time is
	// already included in user and nice.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealFrac is the share of all CPU time between a and b that the
// hypervisor gave to other guests.
func stealFrac(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// processCPU is the CPU time all threads of the process have used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the CPU time of the calling OS thread. Steal and time
// spent descheduled do not count. The caller must be locked to its thread
// (runtime.LockOSThread) for differences to mean anything.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set (getrusage maxrss).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the Go sources and module files under root,
// identifying the code under test when no VCS revision is available.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
