package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs (sorted in place), linearly
// interpolated between the two nearest ranks.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + time.Duration(float64(xs[i+1]-xs[i])*(pos-float64(i)))
}

// beyond counts the samples strictly above the q-quantile of xs.
func beyond(xs []time.Duration, q float64) int {
	v := quantile(xs, q)
	i := sort.Search(len(xs), func(i int) bool { return xs[i] > v })
	return len(xs) - i
}

// mean returns the mean of xs in seconds.
func mean(xs []time.Duration) float64 {
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum.Seconds() / float64(max(len(xs), 1))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// medianFloat returns the median of xs (sorted in place).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// heapSampler samples the live heap (the heap the last GC found
// reachable) every 5ms into storage allocated up front.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []uint64
}

// newHeapSampler allocates room for d of samples. Allocate it before
// baselineHeap, so the benchmark's share includes it.
func newHeapSampler(d time.Duration) *heapSampler {
	return &heapSampler{samples: make([]uint64, 0, int(d/(5*time.Millisecond))+64)}
}

const liveHeap = "/gc/heap/live:bytes"

func readLive() uint64 {
	s := []metrics.Sample{{Name: liveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// baselineHeap returns the live heap in MiB once everything already
// unreachable is freed. Taken after the inputs and the run's records
// are allocated and before the program is constructed, it is the
// benchmark's own share of the heap, which peak_heap_mb leaves out.
// The second collection frees what sync.Pools (the planner's memo pool
// among them) still held in their victim caches after the first.
func baselineHeap() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readLive()) / (1 << 20)
}

// start begins sampling, from a collection so the first sample is what
// is live when timing starts.
func (h *heapSampler) start() {
	runtime.GC()
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	h.samples = append(h.samples, readLive())
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if len(h.samples) < cap(h.samples) {
					h.samples = append(h.samples, readLive())
				}
			}
		}
	}()
}

// finish stops the sampler and returns, in MiB, the level the live
// heap stayed under for 90% of the timed phase. The absolute maximum is
// set by whichever single collection found the most transient state
// live (a pooled memo still in a victim cache, an in-flight
// enumeration) and repeats poorly from run to run; the 90th percentile
// over time is the heap the program holds.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	xs := make([]time.Duration, len(h.samples))
	for i, v := range h.samples {
		xs[i] = time.Duration(v)
	}
	return float64(quantile(xs, 0.90)) / (1 << 20)
}

// runtimeSnap is a point-in-time reading of the process counters the
// runtime.* layer metrics are differences of.
type runtimeSnap struct {
	at              time.Time
	allocs, bytes   uint64
	gcCPU, totalCPU float64
	userCPU, sysCPU time.Duration
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeSnap{
		at:       time.Now(),
		allocs:   s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
		userCPU:  time.Duration(ru.Utime.Nano()),
		sysCPU:   time.Duration(ru.Stime.Nano()),
	}
}

// runtimeMetrics reports allocation, GC and CPU use per op between two
// snapshots. The GC fraction is the runtime's own estimate of GC CPU
// over all CPU it accounted; cpu_util is process CPU ÷ (wall ×
// GOMAXPROCS).
func runtimeMetrics(a, b runtimeSnap, ops int) map[string]metric {
	m := map[string]metric{}
	n := float64(max(ops, 1))
	m["runtime.allocs_per_op"] = metric{float64(b.allocs-a.allocs) / n, "count"}
	m["runtime.alloc_bytes_per_op"] = metric{float64(b.bytes-a.bytes) / n, "B"}
	gcFrac := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	m["runtime.gc_cpu_fraction"] = metric{gcFrac, "ratio"}
	wall := b.at.Sub(a.at).Seconds()
	cpu := (b.userCPU + b.sysCPU - a.userCPU - a.sysCPU).Seconds()
	m["runtime.cpu_util"] = metric{cpu / (wall * float64(runtime.GOMAXPROCS(0))), "ratio"}
	return m
}

// fingerprint identifies the machine, toolchain and source a result
// came from.
type fingerprint struct {
	CPUModel     string `json:"cpu_model"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unknown (not built from a git checkout)",
		SourceSHA256: sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
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

// sourceDigest hashes the Go sources and module files under root, so a
// result names the exact code it measured even outside a git checkout.
// Build output directories (any whose name starts with a dot) are
// skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
