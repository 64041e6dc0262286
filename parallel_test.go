package repro

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/shape"
	"repro/internal/workload"
)

// forks reports whether the planner forks workers for g under alg at
// the default parallelism: whether the predicted work of the algorithm
// that actually runs (on SolverAuto, the serial route) reaches the
// parallel gate, parallelMinWork. SolverAuto runs that route to Greedy
// or IterDP never fork.
func forks(g *Graph, alg Algorithm) bool {
	g.Freeze()
	prof := shape.Classify(g)
	if alg == SolverAuto {
		alg = routeAuto(prof, 1)
		if alg == Greedy || alg == IterDP {
			return false
		}
	}
	return predictedWork(prof, alg) >= parallelMinWork
}

// aboveGate returns gen(k) for the first step k whose graph forks under
// alg, or for the step after it (when that one forks too) on a coin
// flip, so sizes vary from graph to graph while every draw stays above
// the crossover.
func aboveGate(rng *rand.Rand, alg Algorithm, gen func(k int) *Graph) *Graph {
	grow := rng.Intn(2) == 1
	for k := 0; k < 64; k++ {
		g := gen(k)
		if !forks(g, alg) {
			continue
		}
		if grow {
			if h := gen(k + 1); forks(h, alg) {
				return h
			}
		}
		return g
	}
	panic("no size above the parallel gate")
}

// gridSizes lists grids by ascending relation count, the steps
// aboveGate walks for the grid cases.
var gridSizes = [][2]int{{2, 4}, {2, 5}, {2, 6}, {3, 4}, {2, 7}, {3, 5}, {4, 4}, {3, 6}}

// detGraph derives the i-th determinism-test graph for alg: shapes and
// random graphs mixed, each drawn at the first or second size above the
// parallel gate for alg, so the parallel paths actually engage. The
// gate forks a run only when its predicted work (predictedWork: the §4
// csg-cmp-pair count of the graph's shape, plus 3ⁿ/24 for DPsub's and
// TopDown's subset tests) reaches parallelMinWork, 6 000 pairs, the
// crossover measured on a 2-vCPU box at GOMAXPROCS 2. So TopDown draws
// 11–12 relations on every shape, while DPhyp draws chains of 34–35
// relations, cycles of 24–25 and stars of 12–13. Chains on the
// SolverAuto route never fork — they reach the gate only past the
// exact tier's 24-relation cutoff — so that case draws a 10–13-relation
// chain and checks the serial route.
func detGraph(i int, alg Algorithm) *Graph {
	seed := int64(7000 + i)
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	switch i % 8 {
	case 0:
		if alg == SolverAuto {
			return workload.Chain(10+rng.Intn(4), cfg)
		}
		return aboveGate(rng, alg, func(k int) *Graph { return workload.Chain(4+k, cfg) })
	case 1:
		return aboveGate(rng, alg, func(k int) *Graph { return workload.Cycle(4+k, cfg) })
	case 2:
		return aboveGate(rng, alg, func(k int) *Graph { return workload.Star(4+k, cfg) })
	case 3:
		return aboveGate(rng, alg, func(k int) *Graph { return workload.Clique(4+k, cfg) })
	case 4:
		return aboveGate(rng, alg, func(k int) *Graph { return workload.Grid(gridSizes[k][0], gridSizes[k][1], cfg) })
	case 5:
		extra := 1 + rng.Intn(3)
		return aboveGate(rng, alg, func(k int) *Graph { return workload.RandomHyper(rng, 6+k, extra, cfg) })
	default:
		extra := rng.Intn(5)
		return aboveGate(rng, alg, func(k int) *Graph { return workload.RandomSimple(rng, 6+k, extra, cfg) })
	}
}

// TestParallelPlansDeterministic is the headline determinism guarantee:
// over 200 random graphs, the plan JSON produced with parallel
// enumeration is byte-identical to the serial plan at every worker
// count, and the csg-cmp-pair counts (the §2.2 effort yardstick) agree
// exactly. SolverAuto exercises the routed mix (DPccp on cycles, DPsub
// on parallel cliques, DPhyp elsewhere).
func TestParallelPlansDeterministic(t *testing.T) {
	graphs := 200
	if testing.Short() {
		graphs = 40
	}
	ctx := context.Background()
	serial := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0), WithParallelism(1))
	par2 := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0), WithParallelism(2))
	par4 := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0), WithParallelism(4))

	for i := 0; i < graphs; i++ {
		g := detGraph(i, SolverAuto)
		rs, err := serial.PlanGraph(ctx, g)
		if err != nil {
			t.Fatalf("graph %d serial: %v", i, err)
		}
		want, err := json.Marshal(rs.Plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range []struct {
			name string
			p    *Planner
		}{{"par2", par2}, {"par4", par4}} {
			rp, err := pp.p.PlanGraph(ctx, g)
			if err != nil {
				t.Fatalf("graph %d %s: %v", i, pp.name, err)
			}
			got, err := json.Marshal(rp.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("graph %d (%s, routed %s): plan differs from serial\nserial:   %s\nparallel: %s",
					i, pp.name, rp.Stats.RoutedAlgorithm, want, got)
			}
			if rp.Stats.CsgCmpPairs != rs.Stats.CsgCmpPairs {
				t.Errorf("graph %d (%s): csg-cmp-pairs %d != serial %d",
					i, pp.name, rp.Stats.CsgCmpPairs, rs.Stats.CsgCmpPairs)
			}
		}
	}
}

// depGraph derives the i-th dependent-relation graph for alg: a
// join-only shape at the first or second size above the parallel gate
// for alg (see detGraph), with exactly one relation marked dependent on
// relation 0 — the class the dp.ParallelSafe admissibility precheck
// admits (every emitted pair keeps at least one valid orientation, so
// memo membership stays purely structural). The shape steps with i/2,
// so the odd indices the engagement test draws reach every case.
func depGraph(i int, alg Algorithm) *Graph {
	seed := int64(9000 + i)
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	var g *Graph
	switch (i / 2) % 4 {
	case 0:
		g = aboveGate(rng, alg, func(k int) *Graph { return workload.Chain(4+k, cfg) })
	case 1:
		g = aboveGate(rng, alg, func(k int) *Graph { return workload.Cycle(4+k, cfg) })
	case 2:
		g = aboveGate(rng, alg, func(k int) *Graph { return workload.Star(4+k, cfg) })
	default:
		g = aboveGate(rng, alg, func(k int) *Graph { return workload.Grid(gridSizes[k][0], gridSizes[k][1], cfg) })
	}
	g.SetFree(1+rng.Intn(g.NumRels()-1), bitset.New(0))
	return g
}

// TestNewParallelModesDeterministic pins the parallel DPhyp enumeration
// spine and the parallel TopDown partition search to the byte-identical
// contract at workers ∈ {1,2,4}. Half the graphs carry one dependent
// relation — previously blanket-rejected by dp.ParallelSafe, now
// admitted by the precheck — and every parallel run must actually
// engage its workers (Stats.Workers), not silently fall back to serial.
// Each algorithm draws its graphs above its own crossover (detGraph,
// depGraph): DPhyp's from the csg-cmp-pair count alone, TopDown's with
// its 3ⁿ/24 partition tests added.
func TestNewParallelModesDeterministic(t *testing.T) {
	graphs := 200
	if testing.Short() {
		graphs = 20
	}
	ctx := context.Background()
	for _, alg := range []Algorithm{DPhyp, TopDown} {
		serial := NewPlanner(WithAlgorithm(alg), WithPlanCacheSize(0), WithParallelism(1))
		par := []struct {
			workers int
			p       *Planner
		}{
			{2, NewPlanner(WithAlgorithm(alg), WithPlanCacheSize(0), WithParallelism(2))},
			{4, NewPlanner(WithAlgorithm(alg), WithPlanCacheSize(0), WithParallelism(4))},
		}
		for i := 0; i < graphs; i++ {
			var g *Graph
			if i%2 == 0 {
				g = detGraph(i, alg)
			} else {
				g = depGraph(i, alg)
			}
			rs, err := serial.PlanGraph(ctx, g)
			if err != nil {
				t.Fatalf("%v graph %d serial: %v", alg, i, err)
			}
			want, err := json.Marshal(rs.Plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, pp := range par {
				rp, err := pp.p.PlanGraph(ctx, g)
				if err != nil {
					t.Fatalf("%v graph %d workers=%d: %v", alg, i, pp.workers, err)
				}
				if rp.Stats.Workers != pp.workers {
					t.Errorf("%v graph %d: ran with %d workers, want %d (parallel mode did not engage)",
						alg, i, rp.Stats.Workers, pp.workers)
				}
				got, err := json.Marshal(rp.Plan)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("%v graph %d workers=%d: plan differs from serial\nserial:   %s\nparallel: %s",
						alg, i, pp.workers, want, got)
				}
				if rp.Stats.CsgCmpPairs != rs.Stats.CsgCmpPairs {
					t.Errorf("%v graph %d workers=%d: csg-cmp-pairs %d != serial %d",
						alg, i, pp.workers, rp.Stats.CsgCmpPairs, rs.Stats.CsgCmpPairs)
				}
			}
		}
	}
}

// TestParallelWorkerStats: a parallel run records its worker count and
// per-worker built-pair counts (summing exactly to the run's pair
// total in the direct and the deferred modes alike), and the planner's
// session metrics see the run.
func TestParallelWorkerStats(t *testing.T) {
	cases := []struct {
		name string
		alg  Algorithm
		g    *Graph
	}{
		{"dpsub-direct", DPsub, workload.Clique(10, workload.DefaultConfig())},
		{"dpccp-deferred", DPccp, workload.Cycle(24, workload.DefaultConfig())},
		{"dphyp-deferred", DPhyp, workload.Star(12, workload.DefaultConfig())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewPlanner(WithAlgorithm(c.alg), WithPlanCacheSize(0), WithParallelism(3))
			res, err := p.PlanGraph(context.Background(), c.g)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.Workers != 3 {
				t.Fatalf("Workers = %d, want 3", st.Workers)
			}
			if len(st.WorkerPairs) != 3 {
				t.Fatalf("WorkerPairs = %v, want 3 entries", st.WorkerPairs)
			}
			sum := 0
			for _, wp := range st.WorkerPairs {
				sum += wp
			}
			if sum != st.CsgCmpPairs {
				t.Errorf("sum(WorkerPairs) = %d, want CsgCmpPairs = %d", sum, st.CsgCmpPairs)
			}
			m := p.Metrics()
			if m.ParallelRuns != 1 {
				t.Errorf("ParallelRuns = %d, want 1", m.ParallelRuns)
			}
			if m.ParallelPairs != uint64(sum) {
				t.Errorf("ParallelPairs = %d, want %d", m.ParallelPairs, sum)
			}
		})
	}
}

// TestParallelSmallQueriesStaySerial: below the crossover the serial
// engine runs even when parallelism was requested — fork/join overhead
// must not regress small queries (star8 predicts 448 pairs).
func TestParallelSmallQueriesStaySerial(t *testing.T) {
	p := NewPlanner(WithPlanCacheSize(0), WithParallelism(4))
	res, err := p.PlanGraph(context.Background(), workload.Star(8, workload.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers > 1 {
		t.Fatalf("star(8) ran with %d workers, want serial", res.Stats.Workers)
	}
	if m := p.Metrics(); m.ParallelRuns != 0 {
		t.Fatalf("ParallelRuns = %d, want 0", m.ParallelRuns)
	}
}

// TestParallelGateCrossover: at default parallelism each §4 shape plans
// serially just below the predicted-work crossover (parallelMinWork,
// 6 000 pairs of predictedWork) and with every allowed worker just
// above it, on the SolverAuto route and for the generate-and-test
// solvers named directly. Chains only cross it for DPhyp past
// SolverAuto's exact cutoff, so they name DPhyp. On a single-CPU runner
// the default cap is one worker and every case plans serially.
func TestParallelGateCrossover(t *testing.T) {
	cfg := workload.DefaultConfig()
	cases := []struct {
		name  string
		g     *Graph
		alg   Algorithm
		above bool
	}{
		{"chain33", workload.Chain(33, cfg), DPhyp, false},                   // 5 984 pairs
		{"chain34", workload.Chain(34, cfg), DPhyp, true},                    // 6 545
		{"cycle23", workload.Cycle(23, cfg), SolverAuto, false},              // 5 566
		{"cycle24", workload.Cycle(24, cfg), SolverAuto, true},               // 6 348
		{"star11", workload.Star(11, cfg), SolverAuto, false},                // 5 120
		{"star12", workload.Star(12, cfg), SolverAuto, true},                 // 11 264
		{"clique8", workload.Clique(8, cfg), SolverAuto, false},              // 3 025 + 3⁸/24
		{"clique9", workload.Clique(9, cfg), SolverAuto, true},               // 9 330 + 3⁹/24
		{"grid2x5", workload.Grid(2, 5, cfg), SolverAuto, false},             // 2 063 predicted
		{"grid2x6", workload.Grid(2, 6, cfg), SolverAuto, true},              // 8 912 predicted
		{"cyclehyper22", workload.CycleHyper(22, 1, cfg), SolverAuto, false}, // 4 851
		{"cyclehyper24", workload.CycleHyper(24, 1, cfg), SolverAuto, true},  // 6 348
		{"dpsub-chain10", workload.Chain(10, cfg), DPsub, false},             // 165 + 3¹⁰/24 = 2 625
		{"dpsub-chain11", workload.Chain(11, cfg), DPsub, true},              // 220 + 3¹¹/24 = 7 601
		{"topdown-star10", workload.Star(10, cfg), TopDown, false},           // 2 304 + 2 460
		{"topdown-star11", workload.Star(11, cfg), TopDown, true},            // 5 120 + 7 381
		{"dpsize-cycle13", workload.Cycle(13, cfg), DPsize, false},           // 5.5 × 936
		{"dpsize-cycle14", workload.Cycle(14, cfg), DPsize, true},            // 5.5 × 1 183
	}
	parallel := min(runtime.GOMAXPROCS(0), 64)
	p := NewPlanner(WithPlanCacheSize(0))
	for _, c := range cases {
		if forks(c.g, c.alg) != c.above {
			t.Fatalf("%s: predicted work on the wrong side of the %d crossover for this case",
				c.name, parallelMinWork)
		}
		res, err := p.PlanGraph(context.Background(), c.g, WithAlgorithm(c.alg))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := 1
		if c.above {
			want = parallel
		}
		if got := max(res.Stats.Workers, 1); got != want {
			t.Errorf("%s (%s): ran with %d workers, want %d", c.name, res.Algorithm, got, want)
		}
	}
}

// TestParallelTracedRunsStaySerial: traces (and observation hooks)
// need the serial emission order, so observed runs are pinned to one
// worker even above the parallel crossover.
func TestParallelTracedRunsStaySerial(t *testing.T) {
	p := NewPlanner(WithPlanCacheSize(0), WithParallelism(4))
	var tr Trace
	res, err := p.PlanGraph(context.Background(),
		workload.Star(12, workload.DefaultConfig()), WithTrace(&tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers > 1 {
		t.Fatalf("traced run used %d workers, want serial", res.Stats.Workers)
	}
	if len(tr.Steps) == 0 {
		t.Fatal("trace recorded no steps")
	}
}

// TestParallelBudgetFallsBackToGreedy: a budget trip under parallel
// enumeration degrades to the serial Greedy plan exactly like a serial
// trip, and the cancellation path returns promptly.
func TestParallelBudgetFallsBackToGreedy(t *testing.T) {
	g := workload.Clique(11, workload.DefaultConfig())
	p := NewPlanner(WithAlgorithm(DPsub), WithPlanCacheSize(0), WithParallelism(4),
		WithBudget(Budget{MaxCsgCmpPairs: 500}))
	res, err := p.PlanGraph(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.FallbackGreedy || !res.Stats.BudgetExhausted {
		t.Fatalf("stats = %+v, want greedy fallback after budget trip", res.Stats)
	}
	if res.Algorithm != Greedy {
		t.Fatalf("Algorithm = %v, want Greedy", res.Algorithm)
	}
	if res.Stats.Workers != 4 {
		t.Fatalf("Workers = %d, want the aborted exact pass's 4", res.Stats.Workers)
	}

	hard := NewPlanner(WithAlgorithm(DPsub), WithPlanCacheSize(0), WithParallelism(4),
		WithBudget(Budget{MaxCsgCmpPairs: 500}), WithoutGreedyFallback())
	if _, err := hard.PlanGraph(context.Background(), g); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.PlanGraph(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelConcurrentPlans drives many concurrent Planner.Plan calls
// that each enumerate in parallel (parallel-inside-parallel) through a
// shared planner — the cache-miss hot path of a loaded server. Run
// under -race in CI.
func TestParallelConcurrentPlans(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(4), WithParallelism(2))
	graphs := make([]*Graph, 8)
	for i := range graphs {
		graphs[i] = detGraph(i, SolverAuto)
	}
	want := make([]float64, len(graphs))
	for i, g := range graphs {
		res, err := p.PlanGraph(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Cost()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				gi := (w + i) % len(graphs)
				res, err := p.PlanGraph(context.Background(), graphs[gi])
				if err != nil {
					errs <- err
					return
				}
				if res.Cost() != want[gi] {
					t.Errorf("graph %d: cost %g != %g", gi, res.Cost(), want[gi])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
