// Command perfbench is the repository's benchmark: four workloads that
// drive the planner the way its two kinds of users do, through
// Planner.PlanJSON in-process and through POST /plan to a
// service.Server on a loopback listener. It prints the end-to-end
// metrics of one run, or with -trace 1 the per-layer metrics of a
// traced run, as the last line of its standard output. README.md
// describes the workloads and metrics; run.sh builds and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runOptions are one run's settings.
type runOptions struct {
	seed    int64
	seconds time.Duration
	trace   bool
	scratch string // directory for the run's temporary files
}

// outcome is one run's result line plus what the fingerprint line
// reports about it.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int
	failures          []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]int{}}
}

// typicalLatency is the median over segments of the mean op latency
// in seconds; trace.overhead compares it between a traced and an
// untraced phase, so that a cold first segment moves neither.
func typicalLatency(segs [][]time.Duration) float64 {
	means := make([]float64, 0, len(segs))
	for _, s := range segs {
		if len(s) > 0 {
			means = append(means, mean(s))
		}
	}
	return medianFloat(means)
}

// quietShare is the share of a timed phase's segments that timings
// reads: the segments whose ops took least time on average.
const quietShare = 0.25

// timings records throughput and latency from the latencies of a
// timed phase's segments, measured in a closed loop with the given
// number of callers. Every segment holds the same kind of work (whole
// blocks of a library mix, or a fixed slice of time of a serve loop).
// Other tenants of a shared machine only ever make a segment slower, so
// the metrics are read from the quietest quarter of the segments, those
// with the lowest mean op latency, pooled: throughput is callers ÷ the
// pool's mean latency (ops per second of the loop, not counting the
// benchmark's own checking between ops), and each latency percentile is
// taken over the pool. A change that slows the program slows every
// segment, and shows in the quiet ones as in the rest.
func (o *outcome) timings(segs [][]time.Duration, callers int) {
	full := make([][]time.Duration, 0, len(segs))
	for _, s := range segs {
		if len(s) > 0 {
			full = append(full, s)
		}
	}
	sort.SliceStable(full, func(i, j int) bool { return mean(full[i]) < mean(full[j]) })
	keep := full[:max(1, int(math.Ceil(quietShare*float64(len(full)))))]
	var pool []time.Duration
	for _, s := range keep {
		pool = append(pool, s...)
	}
	o.metrics["throughput_ops_s"] = metric{float64(callers) / mean(pool), "ops/s"}
	o.samples["segments"] = len(full)
	o.samples["quiet_segments"] = len(keep)
	o.samples["latency"] = len(pool)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		o.metrics["latency_"+p.name+"_ms"] = metric{ms(quantile(pool, p.q)), "ms"}
		o.samples["beyond_"+p.name] = beyond(pool, p.q)
	}
}

// benchProcs is the number of CPUs the benchmark runs the program on,
// whatever the machine has: the 2-CPU set-up its workloads are sized
// for, so that results from machines with more CPUs compare.
const benchProcs = 2

var workloads = []string{"plan-sparse", "plan-dense", "serve-hot", "serve-churn"}

func main() {
	name := flag.String("workload", "", "workload: plan-sparse | plan-dense | serve-hot | serve-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "tmp"), "directory for temporary files")
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	o := runOptions{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		scratch: *scratch,
	}
	if err := run(*name, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, o runOptions) error {
	set, err := generateInputs(name, o.seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return fmt.Errorf("creating scratch directory: %w", err)
	}
	ctx := context.Background()
	var out *outcome
	if name == "serve-hot" || name == "serve-churn" {
		out, err = runServe(ctx, name, set, o)
	} else {
		out, err = runLibrary(ctx, set, o)
	}
	if err != nil {
		return err
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	info := struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Seconds  float64        `json:"seconds"`
		Trace    bool           `json:"trace"`
		Machine  fingerprint    `json:"machine"`
		Samples  map[string]int `json:"samples,omitempty"`
	}{name, o.seed, o.seconds.Seconds(), o.trace, machineFingerprint(), out.samples}
	if err := printJSON("fingerprint ", info); err != nil {
		return err
	}
	names := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %-34s %14.6g %s\n", k, out.metrics[k].Value, out.metrics[k].Unit)
	}
	return printJSON("", struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, out.metrics})
}

func printJSON(prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(prefix + string(b))
	return nil
}
