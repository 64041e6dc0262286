// Package core implements DPhyp, the join enumeration algorithm of
// "Dynamic Programming Strikes Back" (Moerkotte & Neumann, SIGMOD 2008).
//
// DPhyp enumerates exactly the csg-cmp-pairs of a query hypergraph in an
// order valid for dynamic programming: every pair (S1',S2') with
// S1' ⊆ S1 and S2' ⊆ S2 is enumerated before (S1,S2). The algorithm is
// structured as the five member functions of §3:
//
//   - Solve initializes the DP table with single-relation plans and
//     seeds the enumeration from every node in decreasing ≺ order;
//   - EnumerateCsgRec grows connected subgraphs by adding subsets of the
//     neighborhood, using DP-table lookups as the connectivity test;
//   - EmitCsg finds complement seeds in the neighborhood of a finished
//     connected subgraph;
//   - EnumerateCmpRec grows those seeds into connected complements;
//   - EmitCsgCmp builds and prices plans for each csg-cmp-pair (shared
//     with the other algorithms via internal/dp).
//
// Hyperedges are traversed as n:1 edges leading to a canonical
// representative node of the far side (Equation 1); the remaining nodes
// of a hypernode are picked up by recursive growth and validated against
// the DP table ("this exploits the fact that DP strategies enumerate
// subsets before supersets").
//
// Duplicate complements are avoided with the refinement inherited from
// DPccp [17]: the seed v additionally forbids all neighborhood members
// ordered before it, so every complement is grown from its ≺-minimal
// neighbor exactly once.
package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Options configures a DPhyp run.
type Options struct {
	// Model is the cost model; cost.Default() when nil.
	Model cost.Model

	// Filter enables the generate-and-test paradigm of §5.8: candidate
	// plans are enumerated from the (smaller-edged) graph and rejected
	// late, inside EmitCsgCmp. Used to reproduce the "DPhyp TESs" curve
	// of Fig. 8a. Nil for the pure hypergraph-driven mode.
	Filter dp.Filter

	// OnEmit observes csg-cmp-pairs in emission order (tests, traces).
	OnEmit func(S1, S2 bitset.Set)

	// Trace, when non-nil, records the traversal steps analogous to
	// Fig. 3.
	Trace *Trace

	// Explain, when non-nil, receives phase spans for the run (the
	// engine records the materialize phase; the planner wraps the whole
	// enumeration). Unlike Trace/OnEmit it does not force the serial
	// engine — spans are recorded at phase boundaries by the
	// orchestrating goroutine, never by workers.
	Explain *obs.Trace

	// Limits bounds the run: cancellation is polled inside the
	// enumeration recursion, and budget trips abort with
	// dp.ErrBudgetExhausted. The zero value imposes no bounds.
	Limits dp.Limits

	// Pool, when non-nil, supplies recycled memo engines (table,
	// arena, and backend scratch) from previous runs.
	Pool *memo.Pool

	// Parallelism > 1 enables the parallel spine: the csg-cmp
	// enumeration itself is partitioned across workers by start vertex
	// (every csg grown from vertex v has min = v, so its intra-vertex
	// membership tests are worker-local), with cross-vertex membership
	// — complements whose minimum is a vertex possibly still in flight
	// on another worker — answered by a structural Definition-3
	// connectivity test cached per worker. Under the dp.ParallelSafe
	// admissibility precheck table membership is exactly connectivity,
	// so the partitioned enumeration admits the same pairs as the
	// serial order. Admitted pairs are collected per worker and then
	// priced level-by-level across workers (dp.ParRun.PriceLevels).
	// Graphs failing the precheck fall back to the serial engine.
	// 0 or 1 runs today's serial engine.
	Parallelism int
}

// Solver runs DPhyp over one hypergraph. It is a pure enumerator: all
// memoization, budget accounting, and plan construction route through
// the memo engine (e) and its dp.Builder backend (b).
type Solver struct {
	g    *hypergraph.Graph
	e    *memo.Engine
	b    *dp.Builder
	opts Options

	// emit and contains are the enumeration's two memo touch points.
	// In the serial mode they are the engine's EmitPair/Contains; the
	// parallel mode redirects them to a pair recorder backed by a
	// membership-only table.
	emit     func(S1, S2 bitset.Set)
	contains func(S bitset.Set) bool

	// sc is the reusable neighborhood candidate buffer; together with
	// the incrementally maintained simple-neighbor unions it removes
	// the remaining per-csg allocations from the recursion.
	sc hypergraph.NeighborScratch
}

// New prepares a solver. The graph must stay unmodified during Run.
func New(g *hypergraph.Graph, opts Options) *Solver {
	e, b := dp.NewRun(opts.Pool, g, opts.Model)
	b.Filter = opts.Filter
	e.OnEmit = opts.OnEmit
	e.SetLimits(opts.Limits)
	e.SetTrace(opts.Explain)
	s := &Solver{g: g, e: e, b: b, opts: opts}
	s.emit = e.EmitPair
	s.contains = e.Contains
	return s
}

// Solve is the convenience entry point: it runs DPhyp on g and returns
// the optimal bushy plan without cross products. When opts.Pool is set,
// the engine's scratch state is returned to the pool before Solve
// returns (the plan itself is materialized out of the arena and stays
// valid).
func Solve(g *hypergraph.Graph, opts Options) (*plan.Node, dp.Stats, error) {
	s := New(g, opts)
	p, err := s.Run()
	st := s.Stats()
	opts.Pool.Put(s.e)
	return p, st, err
}

// Stats returns the enumeration statistics of the last Run.
func (s *Solver) Stats() dp.Stats { return s.e.Stats }

// Engine exposes the memo engine (read-only use) for tests and tooling.
func (s *Solver) Engine() *memo.Engine { return s.e }

// Run executes the Solve routine of §3.1.
func (s *Solver) Run() (*plan.Node, error) {
	n := s.g.NumRels()
	if n == 0 {
		return nil, errEmpty
	}
	s.b.Init()
	s.opts.Trace.init(n)

	// Mirror the planner's serial gates for direct solver callers:
	// filters may carry shared per-analysis state, and hooks/traces need
	// the serial emission order (dp.ParallelSafe additionally requires
	// cost-free pair acceptance for the deferred mode).
	if s.opts.Parallelism > 1 && s.opts.Filter == nil && s.opts.OnEmit == nil &&
		s.opts.Trace == nil && dp.ParallelSafe(s.g) {
		return s.runParallel(n)
	}
	s.enumerate(n)
	return s.b.Final()
}

// enumerate drives the §3.1 outer loop, feeding pairs to s.emit.
//
//dp:hotpath
func (s *Solver) enumerate(n int) {
	// "for each v ∈ V descending according to ≺: EmitCsg({v});
	// EnumerateCsgRec({v}, B_v)"
	for v := n - 1; v >= 0 && s.e.Aborted() == nil; v-- {
		S := bitset.Single(v)
		su := s.g.SimpleNeighborUnion(S)
		s.opts.Trace.add(StepStartNode, S, bitset.Empty)
		s.emitCsg(S, su)
		s.enumerateCsgRec(S, bitset.BelowEq(v), su)
	}
}

// runParallel is the parallel spine: the csg-cmp enumeration itself is
// partitioned across workers. Workers claim start vertices dynamically
// (descending, matching the serial seeding order); each runs the full
// §3 member-function body for its vertices with the two memo touch
// points redirected — emit records pairs into the worker's deferred
// bucket, and contains answers with a structural Definition-3
// connectivity test (hypergraph.ConnectedSet) cached in the worker's
// scratch table.
//
// Why structural connectivity is the correct membership oracle: under
// dp.ParallelSafe every admitted pair stores a plan, so the serial DP
// table holds S iff S is a connected csg. Queries with min(S) equal to
// the worker's own start vertex concern csgs the worker grows itself;
// queries with a smaller min concern vertices another worker owns —
// the serial order would have completed them already, and connectivity
// is exactly the answer the finished table would give. The partitioned
// enumeration therefore admits the same pair set as the serial order,
// and the order-independent barrier merge makes the final plan
// byte-identical at any worker count.
//
// After the single collect barrier (memo.LevelCollected folds the
// workers' pair counters; their tables carry no plans), the pairs —
// recorded straight into each worker's pooled result-set-size buckets
// — are priced level-by-level across the same workers
// (dp.ParRun.PriceLevels).
func (s *Solver) runParallel(n int) (*plan.Node, error) {
	pr := dp.NewParRun(s.b, s.opts.Parallelism)
	pr.Par.StartLevel()
	collect := s.opts.Explain.Start(obs.PhaseCollect)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := range pr.Bs {
		wb := pr.Bs[w]
		we := wb.Engine
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := we.Scratch(1 << uint(min(n, 12)))
			var cs hypergraph.ConnScratch
			col := &Solver{g: s.g, e: we, b: wb}
			col.emit = func(S1, S2 bitset.Set) {
				if we.EmitDeferred(S1, S2) {
					wb.DeferPair(S1, S2)
				}
			}
			col.contains = func(S bitset.Set) bool {
				if v, ok := conn.Get(S); ok {
					return v != 0
				}
				var v int32
				if s.g.ConnectedSet(S, &cs) {
					v = 1
				}
				conn.Put(S, v)
				return v != 0
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n || we.Aborted() != nil {
					return
				}
				v := n - 1 - i
				S := bitset.Single(v)
				su := s.g.SimpleNeighborUnion(S)
				col.emitCsg(S, su)
				col.enumerateCsgRec(S, bitset.BelowEq(v), su)
			}
		}()
	}
	wg.Wait()
	pr.Par.FinishLevel(memo.LevelCollected)
	s.opts.Explain.Annotate(collect, int64(s.e.Stats.CsgCmpPairs), 0, s.opts.Parallelism, 0)
	s.opts.Explain.End(collect)
	if pr.Par.Aborted() == nil {
		price := s.opts.Explain.Start(obs.PhasePrice)
		pr.PriceLevels()
		s.opts.Explain.Annotate(price, 0, s.e.Entries(), s.opts.Parallelism, 0)
		s.opts.Explain.End(price)
	}
	return s.b.Final()
}

// enumerateCsgRec extends the connected subgraph S1 (§3.2). X is the set
// of forbidden nodes; every node the function will consider itself is
// forbidden in recursive calls to avoid duplicate enumeration. su is
// the incrementally maintained SimpleNeighborUnion of S1.
//
//dp:hotpath
func (s *Solver) enumerateCsgRec(S1, X, su bitset.Set) {
	if !s.e.Step() {
		return
	}
	N := s.g.NeighborhoodWith(S1, X, su, &s.sc)
	if N.IsEmpty() {
		return
	}
	// First pass: emit smaller sets before growing them further. The
	// Vance–Maier order enumerates every proper subset of a subset
	// before it, so the DP order is respected within the loop, too.
	for n := bitset.Empty.NextSubset(N); ; n = n.NextSubset(N) {
		if !s.e.Step() {
			return
		}
		next := S1.Union(n)
		if s.contains(next) {
			s.opts.Trace.add(StepCsg, next, bitset.Empty)
			s.emitCsg(next, su.Union(s.g.SimpleNeighborUnion(n)))
		}
		if n.Equal(N) {
			break
		}
	}
	// Second pass: recursive growth with the whole neighborhood
	// forbidden ("when a function performs a recursive call it forbids
	// all nodes it will investigate itself").
	newX := X.Union(N)
	for n := bitset.Empty.NextSubset(N); ; n = n.NextSubset(N) {
		s.enumerateCsgRec(S1.Union(n), newX, su.Union(s.g.SimpleNeighborUnion(n)))
		if n.Equal(N) {
			break
		}
	}
}

// emitCsg generates the seeds of all complements of the connected
// subgraph S1 (§3.3). su is the SimpleNeighborUnion of S1.
//
//dp:hotpath
func (s *Solver) emitCsg(S1, su bitset.Set) {
	if !s.e.Step() {
		return
	}
	X := S1.Union(bitset.BelowEq(S1.Min()))
	N := s.g.NeighborhoodWith(S1, X, su, &s.sc)
	if N.IsEmpty() {
		return
	}
	// "for each v ∈ N descending according to ≺"
	for v := N.Max(); v >= 0 && s.e.Aborted() == nil; v = prevElem(N, v) {
		S2 := bitset.Single(v)
		// "if ∃(u,v) ∈ E : u ⊆ S1 ∧ v ⊆ S2": the neighborhood may
		// contain representatives of larger hypernodes that do not yet
		// connect (§3.3's step 20: no edge between {R1,R2,R3} and {R4}).
		if s.g.ConnectsTo(S1, S2) {
			s.opts.Trace.add(StepCmp, S1, S2)
			s.emit(S1, S2)
		}
		// Forbid the smaller-ordered neighbors while growing this seed so
		// each complement is produced from its ≺-minimal seed only (the
		// duplicate-avoidance scheme of DPccp [17]).
		s.enumerateCmpRec(S1, S2, X.Union(N.Intersect(bitset.BelowEq(v))), s.g.SimpleNeighborUnion(S2))
	}
}

// prevElem returns the largest element of N strictly below v, or -1.
//
//dp:hotpath
func prevElem(N bitset.Set, v int) int {
	below := N.Intersect(bitset.Below(v))
	if below.IsEmpty() {
		return -1
	}
	return below.Max()
}

// enumerateCmpRec grows the complement S2 of S1 (§3.4). su is the
// SimpleNeighborUnion of S2.
//
//dp:hotpath
func (s *Solver) enumerateCmpRec(S1, S2, X, su bitset.Set) {
	if !s.e.Step() {
		return
	}
	N := s.g.NeighborhoodWith(S2, X, su, &s.sc)
	if N.IsEmpty() {
		return
	}
	for n := bitset.Empty.NextSubset(N); ; n = n.NextSubset(N) {
		if !s.e.Step() {
			return
		}
		next := S2.Union(n)
		// "if dpTable[S2 ∪ N] ≠ ∅ ∧ ∃(u,v) ∈ E : u ⊆ S1 ∧ v ⊆ S2 ∪ N"
		if s.contains(next) && s.g.ConnectsTo(S1, next) {
			s.opts.Trace.add(StepCmp, S1, next)
			s.emit(S1, next)
		}
		if n.Equal(N) {
			break
		}
	}
	// "X = X ∪ N(S2,X)" before the recursive descent.
	newX := X.Union(N)
	for n := bitset.Empty.NextSubset(N); ; n = n.NextSubset(N) {
		s.enumerateCmpRec(S1, S2.Union(n), newX, su.Union(s.g.SimpleNeighborUnion(n)))
		if n.Equal(N) {
			break
		}
	}
}

type solverError string

func (e solverError) Error() string { return string(e) }

const errEmpty = solverError("dphyp: empty hypergraph")
