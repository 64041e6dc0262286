package main

import (
	"context"
	"runtime"
	"time"

	"repro"
)

// newLibraryPlanner is the embedder's planner: SolverAuto over the
// library defaults (Cout, DefaultPlanCacheSize, GOMAXPROCS workers).
func newLibraryPlanner() *repro.Planner {
	return repro.NewPlanner(repro.WithAlgorithm(repro.SolverAuto))
}

// plannerSink keeps the set-up loop's planners observable, so the
// compiler cannot drop their construction.
var plannerSink *repro.Planner

// librarySetup is the median, over 41 batches, of the mean time one
// NewPlanner takes in a batch of 100. Each batch starts right after a
// collection, so garbage from earlier work is not collected on its
// clock.
func librarySetup() float64 {
	const reps, batch = 41, 100
	per := make([]float64, reps)
	for r := range per {
		runtime.GC()
		start := time.Now()
		for i := 0; i < batch; i++ {
			plannerSink = newLibraryPlanner()
		}
		per[r] = time.Since(start).Seconds() / batch
	}
	return medianFloat(per)
}

// maxLibraryRate bounds the ops per second a library run records; a
// run that reaches it ends its timed phase early.
const maxLibraryRate = 20_000

// libraryLoop plans inputs in order, starting at *next and wrapping
// around, for d or until t is full. It cuts t into segments of segOps
// ops. Each returned plan is checked, untimed, right after its call.
// With l non-nil every op runs traced and is attributed to layers.
func libraryLoop(ctx context.Context, p *repro.Planner, ins []input, next *int, d time.Duration, segOps int, t *tally, l *layers) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) && !t.full() {
		i := *next % len(ins)
		*next++
		in := &ins[i]
		var (
			res *repro.Result
			lat time.Duration
			err error
		)
		if l == nil {
			start := time.Now()
			res, err = p.PlanJSON(ctx, in.Doc)
			lat = time.Since(start)
		} else {
			res, lat, err = tracedPlanJSON(ctx, p, in, l)
		}
		var cost float64
		var alg repro.Algorithm
		if err == nil {
			cost, alg = res.Cost(), res.Algorithm
			err = checkPlan(in.Doc, fromPlan(res.Plan), cost)
		}
		t.record(ins, i, lat, cost, alg, err)
		if len(t.lats)%segOps == 0 {
			t.cut()
		}
	}
}

// tracedPlanJSON is PlanJSON split at its layer boundaries: BuildQuery
// and Freeze are timed inline, the planner call carries an explain
// trace, and the remainder of the op's wall time is unattributed.
// ParseQuery, Fingerprint and Classify, which the op does not call
// from outside, are timed on the same input afterwards.
func tracedPlanJSON(ctx context.Context, p *repro.Planner, in *input, l *layers) (*repro.Result, time.Duration, error) {
	t0 := time.Now()
	q, err := in.Doc.BuildQuery()
	t1 := time.Now()
	if err != nil {
		return nil, t1.Sub(t0), err
	}
	q.Graph().Freeze()
	t2 := time.Now()
	tr := new(repro.PlanTrace)
	res, err := p.Plan(ctx, q, repro.WithExplain(tr))
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, err
	}
	covered := t2.Sub(t0) + l.addPlanner(res, tr)
	l.wall += wall
	l.covered += covered
	l.add("jsonio.build_us", t1.Sub(t0))
	l.add("hypergraph.freeze_us", t2.Sub(t1))
	l.add("planner.unattributed_us", wall-covered)
	l.addStandalone(timeStandalone(in), false)
	return res, wall, nil
}

// runLibrary runs plan-sparse or plan-dense.
func runLibrary(ctx context.Context, set *inputSet, o runOptions) (*outcome, error) {
	ins := set.Inputs
	maxOps := int(o.seconds.Seconds()*maxLibraryRate) + 1
	t := newTally(len(ins), maxOps)
	heap := newHeapSampler(o.seconds)
	base := baselineHeap()
	out := newOutcome()
	out.metrics["setup_s"] = metric{librarySetup(), "s"}
	p := newLibraryPlanner()

	// Segments start at input 0 and hold whole blocks of the mix.
	next := 0
	segOps := set.Segment

	untimed := o.seconds
	if o.trace {
		untimed = o.seconds / 3
	}
	heap.start()
	rt0 := readRuntime()
	libraryLoop(ctx, p, ins, &next, untimed, segOps, t, nil)
	rt1 := readRuntime()
	peak := heap.finish()
	ops := len(t.lats)
	attempted := ops

	untracedSegs := t.complete()
	l := newLayers()
	var tracedSegs [][]time.Duration
	if o.trace {
		m0 := p.Metrics()
		tt := newTally(len(ins), maxOps)
		libraryLoop(ctx, p, ins, &next, o.seconds-untimed, segOps, tt, l)
		attempted += len(tt.lats)
		l.cache(m0, p.Metrics(), len(tt.lats))
		tracedSegs = tt.complete()
		tt.lats = tt.lats[:0]
		t.merge(ins, tt)
	}

	refs, err := references(ctx, ins, t.used())
	if err != nil {
		return nil, err
	}
	ratio := t.settle(ins, refs, nil)
	out.attempted, out.failed, out.failures = attempted, t.failed, t.failures

	if !o.trace {
		out.timings(untracedSegs, 1)
		out.metrics["ok_ratio"] = metric{1 - float64(out.failed)/float64(max(out.attempted, 1)), "ratio"}
		out.metrics["plan_cost_ratio"] = metric{ratio, "ratio"}
		out.metrics["peak_heap_mb"] = metric{peak - base, "MiB"}
		return out, nil
	}
	m := l.metrics()
	for k, v := range runtimeMetrics(rt0, rt1, ops) {
		m[k] = v
	}
	m["trace.overhead"] = metric{typicalLatency(tracedSegs)/typicalLatency(untracedSegs) - 1, "ratio"}
	out.metrics = m
	return out, nil
}
