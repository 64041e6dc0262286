// Package dpccp implements DPccp, the csg-cmp-pair enumerator for
// ordinary (simple) query graphs from Moerkotte & Neumann, VLDB 2006
// [17] — the starting point the DPhyp paper generalizes.
//
// On simple graphs connectivity is preserved by construction (subgraphs
// grow along adjacency), so DPccp needs no failing tests at all: every
// emission is a valid csg-cmp-pair, which is why it meets the §2.2 lower
// bound exactly. The package exists as a cross-check for §4.4's claim
// that "DPhyp performs exactly like DPccp on regular graphs": the tests
// verify both emit identical pair sequences.
//
// The solver is a pure enumerator: memoization, budgets, and plan
// construction route through the shared memo engine (internal/memo),
// and neighborhood subsets are generated with the bitset.SubsetsOf
// iterator.
//
// Solve panics if the graph contains hyperedges; use DPhyp for those.
package dpccp

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

// Options mirrors the options of the other enumerators.
type Options struct {
	Model  cost.Model
	Filter dp.Filter
	OnEmit func(S1, S2 bitset.Set)
	Limits dp.Limits
	Pool   *memo.Pool

	// Explain, when non-nil, receives phase spans for the run (the
	// engine records the materialize phase; the planner wraps the whole
	// enumeration). Unlike OnEmit it does not force the serial engine.
	Explain *obs.Trace

	// Parallelism > 1 enables the two-phase parallel mode: the csg-cmp
	// enumeration — which on simple graphs needs no DP-table access at
	// all — partitions across start vertices claimed dynamically by
	// workers, and the collected pairs are then priced level-by-level
	// in parallel (dp.ParRun.PriceLevels). Graphs with dependent
	// relations fall back to the serial engine (dp.ParallelSafe).
	// 0 or 1 runs today's serial engine.
	Parallelism int
}

type solver struct {
	g *hypergraph.Graph
	e *memo.Engine

	// emit receives every csg-cmp-pair: the engine's EmitPair in the
	// serial mode, a deferred-pair recorder in the parallel mode. One
	// enumeration body serves both, so the modes cannot drift apart.
	emit func(S1, S2 bitset.Set)
}

// Solve runs DPccp over the simple graph g.
func Solve(g *hypergraph.Graph, opts Options) (*plan.Node, dp.Stats, error) {
	for i := 0; i < g.NumEdges(); i++ {
		if !g.Edge(i).Simple() {
			panic("dpccp: hyperedge in input graph; DPccp handles simple graphs only")
		}
	}
	e, b := dp.NewRun(opts.Pool, g, opts.Model)
	defer opts.Pool.Put(e)
	b.Filter = opts.Filter
	e.OnEmit = opts.OnEmit
	e.SetLimits(opts.Limits)
	e.SetTrace(opts.Explain)
	n := g.NumRels()
	if n == 0 {
		return nil, e.Stats, errEmpty
	}
	b.Init()

	// The parallel mode needs plan-construction acceptance to be
	// cost-free (dp.ParallelSafe) and has no serial emission order to
	// offer observation hooks; filters may carry per-analysis state the
	// worker builders must not share. The planner enforces the same
	// gates; they are repeated here so direct solver callers are safe.
	if opts.Parallelism > 1 && opts.Filter == nil && opts.OnEmit == nil && dp.ParallelSafe(g) {
		solveParallel(g, b, n, opts.Parallelism)
		p, err := b.Final()
		return p, e.Stats, err
	}

	s := &solver{g: g, e: e, emit: e.EmitPair}
	for v := n - 1; v >= 0 && e.Aborted() == nil; v-- {
		S := bitset.Single(v)
		s.emitCmp(S)
		s.enumerateCsgRec(S, bitset.BelowEq(v))
	}
	p, err := b.Final()
	return p, e.Stats, err
}

// solveParallel runs the two-phase parallel DPccp. Phase 1 partitions
// the enumeration — the serial solver body with emit redirected to a
// deferred-pair recorder that buckets each pair by result-set size
// into the worker's pooled storage; on simple graphs it needs no
// DP-table access — across start vertices that workers claim
// dynamically (descending, matching the serial order), so skewed
// shapes — a star's hub vertex emits almost every pair — cost at most
// one worker's imbalance. Phase 2 prices the buckets level-parallel
// (bucket order is irrelevant under the order-independent merge
// tie-break).
func solveParallel(g *hypergraph.Graph, b *dp.Builder, n, workers int) {
	pr := dp.NewParRun(b, workers)
	pr.Par.StartLevel()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wb := pr.Bs[w]
		we := wb.Engine
		wg.Add(1)
		go func() {
			defer wg.Done()
			col := solver{g: g, e: we, emit: func(S1, S2 bitset.Set) {
				if we.EmitDeferred(S1, S2) {
					wb.DeferPair(S1, S2)
				}
			}}
			for {
				i := int(next.Add(1)) - 1
				if i >= n || we.Aborted() != nil {
					return
				}
				v := n - 1 - i
				S := bitset.Single(v)
				col.emitCmp(S)
				col.enumerateCsgRec(S, bitset.BelowEq(v))
			}
		}()
	}
	wg.Wait()
	pr.Par.FinishLevel(memo.LevelCollected)
	if pr.Par.Aborted() != nil {
		return
	}
	pr.PriceLevels()
}

// enumerateCsgRec grows connected subgraphs along the adjacency
// structure. On simple graphs S1 ∪ N' is connected for every non-empty
// N' ⊆ N(S1), so no membership test is required.
//
//dp:hotpath
func (s *solver) enumerateCsgRec(S1, X bitset.Set) {
	if !s.e.Step() {
		return
	}
	N := s.g.Neighborhood(S1, X)
	if N.IsEmpty() {
		return
	}
	for n := range N.SubsetsOf() {
		if !s.e.Step() {
			return
		}
		s.emitCmp(S1.Union(n))
	}
	newX := X.Union(N)
	for n := range N.SubsetsOf() {
		s.enumerateCsgRec(S1.Union(n), newX)
	}
}

// emitCmp enumerates all connected complements of the csg S1. Nodes
// ordered before min(S1) are excluded to avoid duplicate pairs; each
// complement is grown from its ≺-minimal neighbor.
//
//dp:hotpath
func (s *solver) emitCmp(S1 bitset.Set) {
	if !s.e.Step() {
		return
	}
	X := S1.Union(bitset.BelowEq(S1.Min()))
	N := s.g.Neighborhood(S1, X)
	if N.IsEmpty() {
		return
	}
	for v := N.Max(); v >= 0 && s.e.Aborted() == nil; v = prevElem(N, v) {
		S2 := bitset.Single(v)
		s.emit(S1, S2)
		s.growCmp(S1, S2, X.Union(N.Intersect(bitset.BelowEq(v))))
	}
}

// growCmp extends the complement S2; every grown set remains connected
// and adjacent to S1, so every subset is emitted unconditionally.
//
//dp:hotpath
func (s *solver) growCmp(S1, S2, X bitset.Set) {
	if !s.e.Step() {
		return
	}
	N := s.g.Neighborhood(S2, X)
	if N.IsEmpty() {
		return
	}
	for n := range N.SubsetsOf() {
		if !s.e.Step() {
			return
		}
		s.emit(S1, S2.Union(n))
	}
	newX := X.Union(N)
	for n := range N.SubsetsOf() {
		s.growCmp(S1, S2.Union(n), newX)
	}
}

//dp:hotpath
func prevElem(N bitset.Set, v int) int {
	below := N.Intersect(bitset.Below(v))
	if below.IsEmpty() {
		return -1
	}
	return below.Max()
}

type solverError string

func (e solverError) Error() string { return string(e) }

const errEmpty = solverError("dpccp: empty graph")
