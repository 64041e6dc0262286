package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/shape"
)

// routedAlgorithms are the solvers SolverAuto can pick for the four
// workloads' inputs. Greedy is left out: no input exceeds its
// shape's exact-tier limit without also exceeding 64 relations.
var routedAlgorithms = []string{"dpsize", "dpccp", "dphyp", "dpsub", "topdown", "iterdp"}

// layers accumulates the per-layer measurements of a traced phase.
// Times are kept per op, so each *_us and *_ms metric is a per-op
// median over the ops that reached the layer.
type layers struct {
	samples  map[string][]time.Duration
	enumTime map[string]time.Duration // Σ enumerator time by algorithm

	wall, covered time.Duration

	// Counters over ops that enumerated (cache hits excluded).
	enumerated, parallel, arenaReused int
	pairs, costed, entries, grows     int64
	enumWall                          time.Duration
	imbalance                         float64
	iterdpOps, rounds                 int

	requests, leaders, rejected int
	hits, evictions             float64
	restores                    []time.Duration
}

func newLayers() *layers {
	return &layers{samples: map[string][]time.Duration{}, enumTime: map[string]time.Duration{}}
}

func (l *layers) add(name string, d time.Duration) { l.samples[name] = append(l.samples[name], d) }

// enumeration phases partition the work an enumerator did at depth 0.
var enumPhases = map[obs.Phase]bool{
	obs.PhaseEnumerate: true, obs.PhaseCluster: true, obs.PhaseRecost: true, obs.PhaseFallback: true,
}

// addPlanner attributes one planning call from its explain trace and
// result, and returns the time its depth-0 spans cover.
func (l *layers) addPlanner(res *repro.Result, tr *repro.PlanTrace) time.Duration {
	var covered, route, lookup, mat, enum, recost time.Duration
	var routed, looked, materialized, rec bool
	for _, s := range tr.Spans() {
		if s.Phase == obs.PhaseMaterialize {
			mat += s.Dur
			materialized = true
			if s.Depth > 0 {
				enum -= s.Dur
			}
		}
		if s.Depth > 0 {
			continue
		}
		covered += s.Dur
		switch {
		case s.Phase == obs.PhaseRoute:
			route += s.Dur
			routed = true
		case s.Phase == obs.PhaseCacheLookup:
			lookup += s.Dur
			looked = true
		case s.Phase == obs.PhaseCluster:
			l.add("iterdp.round_ms", s.Dur)
		}
		if s.Phase == obs.PhaseRecost {
			recost += s.Dur
			rec = true
		}
		if enumPhases[s.Phase] {
			enum += s.Dur
		}
	}
	if routed {
		l.add("planner.route_us", route)
	}
	if looked {
		l.add("planner.cache_lookup_us", lookup)
	}
	if materialized {
		l.add("planner.materialize_us", mat)
	}
	if rec {
		l.add("iterdp.recost_ms", recost)
	}
	st := &res.Stats
	if st.CacheHit {
		return covered
	}
	alg := res.Algorithm.String()
	l.add("enumerate."+alg+".ms_per_op", enum)
	l.enumTime[alg] += enum
	l.enumWall += enum
	l.enumerated++
	l.pairs += int64(st.CsgCmpPairs)
	l.costed += int64(st.CostedPlans)
	l.entries += int64(st.TableEntries)
	l.grows += int64(st.MemoGrows)
	if st.ArenaReused {
		l.arenaReused++
	}
	if st.Workers > 1 && len(st.WorkerPairs) > 0 {
		l.parallel++
		var sum, top int
		for _, p := range st.WorkerPairs {
			sum += p
			top = max(top, p)
		}
		if sum > 0 {
			l.imbalance += float64(top) / (float64(sum) / float64(len(st.WorkerPairs)))
		}
	}
	if res.Algorithm == repro.IterDP {
		l.iterdpOps++
		l.rounds += st.Rounds
	}
	return covered
}

// standaloneTimes are the public layer functions timed on an op's own
// input outside the op's wall time.
type standaloneTimes struct {
	parse, build, freeze, fingerprint, classify time.Duration
}

// timeStandalone calls ParseQuery, BuildQuery, Freeze, Fingerprint and
// Classify on in. The results are dropped; any error already failed the
// op itself.
func timeStandalone(in *input) standaloneTimes {
	var t standaloneTimes
	t0 := time.Now()
	doc, err := repro.ParseQuery(in.Body)
	t.parse = time.Since(t0)
	if err != nil {
		return t
	}
	t0 = time.Now()
	q, err := doc.BuildQuery()
	t.build = time.Since(t0)
	if err != nil {
		return t
	}
	g := q.Graph()
	t0 = time.Now()
	g.Freeze()
	t.freeze = time.Since(t0)
	t0 = time.Now()
	_ = g.Fingerprint()
	t.fingerprint = time.Since(t0)
	t0 = time.Now()
	_ = shape.Classify(g)
	t.classify = time.Since(t0)
	return t
}

// addStandalone records the standalone timings of one op. Build and
// freeze are recorded only when the op did not time them inline.
func (l *layers) addStandalone(a standaloneTimes, buildFreeze bool) {
	l.add("jsonio.parse_us", a.parse)
	l.add("hypergraph.fingerprint_us", a.fingerprint)
	l.add("shape.classify_us", a.classify)
	if buildFreeze {
		l.add("jsonio.build_us", a.build)
		l.add("hypergraph.freeze_us", a.freeze)
	}
}

// cache records the plan-cache deltas of the traced phase.
func (l *layers) cache(a, b repro.PlannerMetrics, ops int) {
	lookups := float64((b.CacheHits - a.CacheHits) + (b.CacheMisses - a.CacheMisses))
	if lookups > 0 {
		l.hits = float64(b.CacheHits-a.CacheHits) / lookups
	}
	l.evictions = float64(b.CacheEvictions-a.CacheEvictions) / float64(max(ops, 1))
}

// metrics renders every per-layer metric. A layer the workload never
// reached reports 0.
func (l *layers) metrics() map[string]metric {
	m := map[string]metric{}
	med := func(name string) time.Duration {
		return quantile(l.samples[name], 0.5)
	}
	for _, name := range []string{
		"service.pre_plan_us", "service.plan_us", "service.post_plan_us", "service.transport_us",
		"jsonio.parse_us", "jsonio.build_us", "hypergraph.freeze_us", "hypergraph.fingerprint_us",
		"shape.classify_us", "planner.route_us", "planner.cache_lookup_us", "planner.materialize_us",
		"planner.unattributed_us",
	} {
		m[name] = metric{us(med(name)), "us"}
	}
	for _, name := range []string{"iterdp.round_ms", "iterdp.recost_ms"} {
		m[name] = metric{ms(med(name)), "ms"}
	}
	for _, alg := range routedAlgorithms {
		m["enumerate."+alg+".ms_per_op"] = metric{ms(med("enumerate." + alg + ".ms_per_op")), "ms"}
		m["enumerate."+alg+".share"] = metric{ratio(float64(l.enumTime[alg]), float64(l.wall)), "ratio"}
	}
	en := float64(max(l.enumerated, 1))
	m["enumerate.pairs_per_ms"] = metric{ratio(float64(l.pairs), ms(l.enumWall)), "1/ms"}
	m["enumerate.costed_per_op"] = metric{float64(l.costed) / en, "count"}
	m["parallel.ops_ratio"] = metric{float64(l.parallel) / en, "ratio"}
	m["parallel.imbalance"] = metric{ratio(l.imbalance, float64(l.parallel)), "ratio"}
	m["memo.entries_per_op"] = metric{float64(l.entries) / en, "count"}
	m["memo.grows_per_op"] = metric{float64(l.grows) / en, "count"}
	m["memo.arena_reuse_ratio"] = metric{float64(l.arenaReused) / en, "ratio"}
	m["iterdp.rounds_per_op"] = metric{ratio(float64(l.rounds), float64(l.iterdpOps)), "count"}
	m["service.leader_ratio"] = metric{ratio(float64(l.leaders), float64(l.requests)), "ratio"}
	m["service.rejected_ratio"] = metric{ratio(float64(l.rejected), float64(l.requests)), "ratio"}
	m["cache.hit_ratio"] = metric{l.hits, "ratio"}
	m["cache.evictions_per_op"] = metric{l.evictions, "count"}
	m["snapshot.restore_ms"] = metric{ms(quantile(l.restores, 0.5)), "ms"}
	m["trace.coverage"] = metric{ratio(float64(l.covered), float64(l.wall)), "ratio"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opHeader carries a traced request's sequence number from the client
// to the handler wrapper.
const opHeader = "X-Perfbench-Op"

type tagKey struct{}

// reqTag is one traced request's handler-side timeline.
type reqTag struct {
	mu                 sync.Mutex
	in, out            time.Time
	planStart, planEnd time.Time
	planned            bool
	res                *repro.Result
	trace              *repro.PlanTrace
}

// tracer is the serve workloads' measurement harness: a handler
// wrapper that timestamps entry and exit of every request, and a
// service.Planner decorator that timestamps the planner call and adds
// an explain trace to it. Both are inert until on is set.
type tracer struct {
	on  atomic.Bool
	seq atomic.Uint64

	mu       sync.Mutex
	tags     map[uint64]*reqTag
	restored []time.Duration
}

func newTracer() *tracer { return &tracer{tags: map[uint64]*reqTag{}} }

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		seq, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		tag := &reqTag{in: time.Now()}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tagKey{}, tag)))
		tag.mu.Lock()
		tag.out = time.Now()
		tag.mu.Unlock()
		t.mu.Lock()
		t.tags[seq] = tag
		t.mu.Unlock()
	})
}

func (t *tracer) restores() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.restored...)
}

// attribute splits one traced request into service phases and planner
// spans.
func (t *tracer) attribute(op tracedOp, l *layers) {
	l.requests++
	t.mu.Lock()
	tag := t.tags[op.seq]
	t.mu.Unlock()
	l.wall += op.lat
	l.covered += op.lat
	if tag == nil {
		return // transport error: the request never reached the handler
	}
	tag.mu.Lock()
	defer tag.mu.Unlock()
	handler := tag.out.Sub(tag.in)
	l.add("service.transport_us", op.lat-handler)
	if !tag.planned {
		// A coalesced follower, or a request refused before planning:
		// its whole handler time waits on (or instead of) a plan.
		l.add("service.plan_us", handler)
		return
	}
	l.leaders++
	plan := tag.planEnd.Sub(tag.planStart)
	l.add("service.pre_plan_us", tag.planStart.Sub(tag.in))
	l.add("service.plan_us", plan)
	l.add("service.post_plan_us", tag.out.Sub(tag.planEnd))
	if tag.res != nil {
		l.add("planner.unattributed_us", plan-l.addPlanner(tag.res, tag.trace))
	}
}

// tracingPlanner decorates the real planner for traced serve runs. The
// embedded *repro.Planner keeps every optional backend interface the
// service looks for (snapshots, plan metrics, baseline history).
type tracingPlanner struct {
	*repro.Planner
	t *tracer
}

func (p *tracingPlanner) Plan(ctx context.Context, q *repro.Query, opts ...repro.Option) (*repro.Result, error) {
	tag, _ := ctx.Value(tagKey{}).(*reqTag)
	if tag == nil || !p.t.on.Load() {
		return p.Planner.Plan(ctx, q, opts...)
	}
	tr := new(repro.PlanTrace)
	opts = append(opts[:len(opts):len(opts)], repro.WithExplain(tr))
	start := time.Now()
	res, err := p.Planner.Plan(ctx, q, opts...)
	end := time.Now()
	tag.mu.Lock()
	tag.planStart, tag.planEnd, tag.planned = start, end, true
	tag.res, tag.trace = res, tr
	tag.mu.Unlock()
	return res, err
}

func (p *tracingPlanner) LoadCacheSnapshot(path string) (int, error) {
	start := time.Now()
	n, err := p.Planner.LoadCacheSnapshot(path)
	d := time.Since(start)
	p.t.mu.Lock()
	p.t.restored = append(p.t.restored, d)
	p.t.mu.Unlock()
	return n, err
}
