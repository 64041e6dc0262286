// Package dp provides the plan-construction semantics shared by all
// join enumeration algorithms in this repository (DPhyp, DPsize, DPsub,
// DPccp, TopDown, and the GOO fallback).
//
// Storage and accounting live one layer down, in internal/memo: the
// open-addressing DP table, the flat plan-node arena, budget and
// cancellation enforcement, and the counting hooks. This package
// contributes the Backend the engine calls for every admitted
// csg-cmp-pair: Builder implements the plan-construction logic of
// EmitCsgCmp (§3.5) — recovering the operator attached to the connecting
// hyperedges (§5.4), switching to dependent variants when the right side
// references the left (§5.6), applying the optional generate-and-test
// filter (the TES-check alternative measured in Fig. 8a), estimating
// cardinalities, and costing both orientations of commutative operators
// — and materializes the winning plan tree out of the engine's arena.
package dp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/plan"
)

// ErrBudgetExhausted reports that an enumeration stopped because it
// reached its Limits before connecting the full graph. It is the memo
// engine's sentinel, re-exported for the solver and planner layers.
var ErrBudgetExhausted = memo.ErrBudgetExhausted

// Limits bounds one enumeration run; see memo.Limits.
type Limits = memo.Limits

// Stats counts the work an enumeration performed; see memo.Stats.
type Stats = memo.Stats

// Pool recycles memo engines across planning calls; see memo.Pool.
type Pool = memo.Pool

// EdgeRef identifies a hyperedge connecting a concrete csg-cmp-pair.
// Flipped is true when the edge's stored (U,V) orientation is reversed
// relative to the pair: U ⊆ S2 rather than U ⊆ S1.
type EdgeRef struct {
	Idx     int
	Flipped bool
}

// Filter decides whether a candidate join of left and right (in that
// argument order) may be built. conn lists the connecting edges with
// Flipped relative to (left, right). It implements the generate-and-test
// paradigm of §5.8: the TES test rejects plans after they have been
// enumerated, which is exactly the overhead Fig. 8a measures.
type Filter func(left, right bitset.Set, conn []EdgeRef) bool

// Builder is the plan-construction backend of one enumeration run: it
// holds the graph and cost model the memo engine is deliberately
// ignorant of, plus reusable scratch buffers for edge recovery. It
// implements memo.Backend and stays attached to its engine across pool
// round-trips so the buffers are recycled too.
type Builder struct {
	G      *hypergraph.Graph
	Model  cost.Model
	Filter Filter

	// Engine is the memo this run stores plans into.
	Engine *memo.Engine

	connBuf []EdgeRef
	flipBuf []EdgeRef
	edgeBuf []int

	// Deferred-pair storage for the enumerate-first parallel modes:
	// levels[s] holds the pairs this builder collected whose result set
	// has s relations. Each worker Builder collects into its own, and
	// PriceLevels reads them in place, so a collected pair is stored
	// once. The buckets keep their backing arrays across pool
	// round-trips, so steady-state deferred pricing allocates nothing
	// (see BenchmarkMemo/deferred-buckets).
	levels [][]PairRec
}

// NewRun obtains an engine (recycled from pool when possible), resets it
// for a run over g, and attaches a Builder using the given cost model
// (cost.Default() if nil). Return the engine to the pool with pool.Put
// when the run's statistics have been read.
func NewRun(pool *memo.Pool, g *hypergraph.Graph, m cost.Model) (*memo.Engine, *Builder) {
	if m == nil {
		m = cost.Default()
	}
	e := pool.Get()
	e.Reset(g.NumRels())
	b, _ := e.Backend().(*Builder)
	if b == nil {
		b = &Builder{}
		e.SetBackend(b)
	}
	b.G, b.Model, b.Engine = g, m, e
	return e, b
}

// ParRun couples the memo engine's parallel orchestration with one
// Builder per worker view, so plan construction — edge recovery,
// dependency checks, costing — runs lock-free on every worker: the
// scratch buffers the Builder reuses are private to its view.
type ParRun struct {
	Par *memo.Par
	Bs  []*Builder
	n   int // relations in the graph: the largest pair level
}

// NewParRun prepares n parallel worker views over b's engine. Like the
// engine views themselves, the worker Builders ride the pool: a
// recycled engine revives them with their scratch buffers intact.
func NewParRun(b *Builder, n int) *ParRun {
	par := b.Engine.Parallel(n)
	rels := b.G.NumRels()
	bs := make([]*Builder, n)
	for i, w := range par.Workers() {
		wb, _ := w.Backend().(*Builder)
		if wb == nil {
			wb = &Builder{}
			w.SetBackend(wb)
		}
		wb.G, wb.Model, wb.Filter, wb.Engine = b.G, b.Model, b.Filter, w
		wb.ResetPairs(rels)
		bs[i] = wb
	}
	return &ParRun{Par: par, Bs: bs, n: rels}
}

// DeferPair records an admitted csg-cmp-pair for deferred pricing into
// this builder's pooled bucket for its result-set size. Callers gate on
// Engine.EmitDeferred first, so budget and emission accounting happen
// exactly once.
//
//dp:hotpath
func (b *Builder) DeferPair(S1, S2 bitset.Set) {
	s := S1.Len() + S2.Len() // the pair is disjoint
	//nolint:hotpathalloc // append into a pooled buffer: capacity survives pool round-trips, so steady state does not grow
	b.levels[s] = append(b.levels[s], PairRec{S1: S1, S2: S2})
}

// ResetPairs empties the deferred-pair buckets for a run over n
// relations, keeping their storage.
func (b *Builder) ResetPairs(n int) {
	if cap(b.levels) < n+1 {
		grown := make([][]PairRec, n+1)
		copy(grown, b.levels[:cap(b.levels)])
		b.levels = grown
	}
	b.levels = b.levels[:n+1]
	for i := range b.levels {
		b.levels[i] = b.levels[i][:0]
	}
}

// PairRec is one csg-cmp-pair whose pricing was deferred: the
// enumerate-first parallel modes of DPhyp and DPccp collect the pairs
// their (serial or per-start-vertex) enumeration admits, then price
// them level-synchronously with PriceLevels.
type PairRec struct {
	S1, S2 bitset.Set
}

// priceChunk bounds the deferred pairs per parallel work unit. Pricing
// a pair costs two O(|E|) edge scans plus the cost model, so even
// small chunks amortize the atomic claim while keeping skewed levels
// (a star's hub level holds almost everything) balanced.
const priceChunk = 128

// PriceLevels prices the workers' deferred pairs level-by-level: level
// s holds the pairs whose result set has s relations, and all pairs
// within a level are independent given the merged smaller levels, so
// workers claim fixed chunks of the level's per-worker buckets
// dynamically. Which worker prices a pair does not affect the outcome:
// the engine's Improve tie-break is order-independent, so plans stay
// byte-identical at any worker count. Emission was already counted
// when the pairs were collected, so the per-level merges add only
// per-worker built counts, not run totals. On abort (budget or
// cancellation) the remaining levels are skipped; the main engine
// carries the cause.
func (pr *ParRun) PriceLevels() {
	for s := 2; s <= pr.n; s++ {
		if _, ok := pr.Chunk(s, 0); !ok {
			continue // no pairs of this size
		}
		pr.Par.StartLevel()
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for w := range pr.Bs {
			we := pr.Bs[w].Engine
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					chunk, ok := pr.Chunk(s, int(next.Add(1))-1)
					if !ok || we.Aborted() != nil {
						return
					}
					for _, p := range chunk {
						if !we.Step() {
							return
						}
						we.BuildDeferred(p.S1, p.S2)
					}
				}
			}()
		}
		wg.Wait()
		pr.Par.FinishLevel(memo.LevelPriced)
		if pr.Par.Aborted() != nil {
			return
		}
	}
}

// Chunk returns the k-th work unit of level s, the unit PriceLevels'
// workers claim: the level's per-worker buckets are cut into
// priceChunk-sized chunks, numbered in worker order, so k = 0, 1, …
// visits every pair deferred at level s once. ok is false past the
// last chunk.
func (pr *ParRun) Chunk(s, k int) (c []PairRec, ok bool) {
	lo := k * priceChunk
	for _, wb := range pr.Bs {
		bucket := wb.levels[s]
		if lo < len(bucket) {
			return bucket[lo:min(lo+priceChunk, len(bucket))], true
		}
		lo -= (len(bucket) + priceChunk - 1) / priceChunk * priceChunk
	}
	return nil, false
}

// ParallelSafe reports whether g admits the enumerate-first parallel
// modes (DPhyp, DPccp, TopDown). Deferred pricing requires that every
// admitted pair actually produces a memo entry — otherwise a later
// level would price against a missing subplan, and the parallel spines
// could not substitute a structural connectivity test for mid-level
// DP-table membership. Plans are only rejected after admission by
// dependency constraints (§5.6), which need free variables, so graphs
// without dependent relations qualify outright.
//
// The admissibility precheck extends this to one class of dependent
// graphs, cost-free (it inspects only relation Free sets and edge
// operators): when at most ONE relation carries free variables and
// every edge operator is the commutative inner join, BuildPair always
// stores at least one orientation. Proof sketch: for a pair (S1,S2)
// with the dependent relation in S1, FreeTables(S2) is empty, so the
// orientation (S2,S1) passes the left-references-right rejection; if
// S1's free tables overlap S2 that orientation becomes Join's
// dependent variant (DepJoin), which is valid. Two dependent relations
// can reference each other across the pair and reject both
// orientations, and a non-commutative operator pins the orientation so
// only one is ever tried — both cases stay serial. (The
// generate-and-test Filter rejects after admission too; the planner
// and the solvers keep filtered runs serial.)
func ParallelSafe(g *hypergraph.Graph) bool {
	dependent := 0
	for i := 0; i < g.NumRels(); i++ {
		if !g.Relation(i).Free.IsEmpty() {
			dependent++
		}
	}
	if dependent == 0 {
		return true
	}
	if dependent > 1 {
		return false
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(i).Op != algebra.Join {
			return false
		}
	}
	return true
}

// NewBuilder returns a Builder over g with a fresh engine, for tests and
// tooling that drive plan construction directly. Production runs go
// through NewRun.
func NewBuilder(g *hypergraph.Graph, m cost.Model) *Builder {
	_, b := NewRun(nil, g, m)
	return b
}

// Release drops the per-run references so a pooled engine does not pin
// the graph or model; the scratch buffers stay for the next run.
func (b *Builder) Release() {
	b.G = nil
	b.Model = nil
	b.Filter = nil
	b.Engine = nil
	b.connBuf = b.connBuf[:0]
	b.flipBuf = b.flipBuf[:0]
	b.edgeBuf = b.edgeBuf[:0]
	for i := range b.levels {
		b.levels[i] = b.levels[i][:0]
	}
}

// Init seeds the DP table with access plans for single relations
// ("dpTable[{v}] = plan for v"). A session arriving with its context
// already canceled (or its budget already spent by an earlier solver
// on the same engine) must not seed fresh entries, so the loop polls
// like every other emission loop.
//
//dp:hotpath
func (b *Builder) Init() {
	for i := 0; i < b.G.NumRels(); i++ {
		if !b.Engine.Step() {
			return
		}
		b.Engine.EmitBase(i, b.G.Relation(i).Card)
	}
}

// Best materializes the memoed plan for S, or nil. Intended for tests;
// the enumeration-side membership test is Engine.Contains.
func (b *Builder) Best(S bitset.Set) *plan.Node { return b.Engine.Plan(S) }

// Final returns the plan covering all relations, or an error when the
// enumeration could not connect the graph (the hypergraph was not
// Definition-3 connected, or every candidate plan was filtered out).
func (b *Builder) Final() (*plan.Node, error) {
	return b.Engine.Final(b.G.AllNodes())
}

// BuildPair implements memo.Backend, following §3.5: it recovers the
// connecting edges and their predicates, resolves the operator, and
// prices one orientation for non-commutative operators or both for
// commutative ones. Budget and emission bookkeeping has already happened
// in Engine.EmitPair.
//
//dp:hotpath
func (b *Builder) BuildPair(S1, S2 bitset.Set) {
	conn := b.connBuf[:0]
	//nolint:hotpathalloc // EachConnectingEdge does not retain the callback, so it stays on the stack
	b.G.EachConnectingEdge(S1, S2, func(idx int, flipped bool) {
		conn = append(conn, EdgeRef{Idx: idx, Flipped: flipped})
	})
	b.connBuf = conn
	if len(conn) == 0 {
		// Not a csg-cmp-pair; callers are expected to have checked, so
		// this indicates an enumeration bug.
		panic(fmt.Sprintf("dp: EmitPair(%v,%v) without connecting edge", S1, S2))
	}

	// Operator recovery (§5.4): every hyperedge carries the operator it
	// was derived from. Simple predicate edges carry the inner join. At
	// most one connecting edge should be non-inner for TES-derived
	// graphs; if several are, the latest wins and the event is counted.
	op := algebra.Join
	leftIsS1 := true
	nonInner := 0
	for _, ref := range conn {
		e := b.G.Edge(ref.Idx)
		if e.Op != algebra.Join {
			nonInner++
			op = e.Op
			leftIsS1 = !ref.Flipped
		}
	}
	if nonInner > 1 {
		b.Engine.Stats.AmbiguousOps++
	}

	if op.Commutative() {
		b.tryBuild(S1, S2, op, conn, false)
		b.tryBuild(S2, S1, op, conn, true)
		return
	}
	if leftIsS1 {
		b.tryBuild(S1, S2, op, conn, false)
	} else {
		b.tryBuild(S2, S1, op, conn, true)
	}
}

// tryBuild prices "left op right" and stores it through Engine.Improve
// if it beats the incumbent for left ∪ right. connFlipped indicates that
// the EdgeRef.Flipped flags in conn are relative to the swapped
// orientation.
func (b *Builder) tryBuild(left, right bitset.Set, op algebra.Op, conn []EdgeRef, connFlipped bool) {
	e := b.Engine
	lh, lok := e.Lookup(left)
	rh, rok := e.Lookup(right)
	if !lok || !rok {
		panic(fmt.Sprintf("dp: missing subplan for %v or %v", left, right))
	}

	// Dependency constraints (§5.6). The left argument must not reference
	// the right side; if the right side references the left, the operator
	// becomes its dependent counterpart.
	if b.G.FreeTables(left).Overlaps(right) {
		e.Stats.InvalidReject++
		return
	}
	if b.G.FreeTables(right).Overlaps(left) {
		op = op.DependentVariant()
		if !op.Valid() {
			e.Stats.InvalidReject++
			return
		}
	}

	if b.Filter != nil {
		fc := conn
		if connFlipped {
			fc = b.flipRefs(conn)
		}
		if !b.Filter(left, right, fc) {
			e.Stats.FilterReject++
			return
		}
	}

	// Predicate application (§3.5): a predicate is evaluated at the first
	// node that covers all relations it references. For simple edges this
	// is the join separating the two endpoints, but a hyperedge can
	// become fully covered at a join that splits its hypernodes across
	// sides in a way that never satisfies u ⊆ S1 ∧ v ⊆ S2; its
	// selectivity must still be charged exactly once. We therefore apply
	// every edge covered by S = left ∪ right but by neither child alone,
	// which keeps cardinality estimates independent of the join order.
	S := left.Union(right)
	sel := 1.0
	applied := b.edgeBuf[:0]
	for i := 0; i < b.G.NumEdges(); i++ {
		ed := b.G.Edge(i)
		nodes := ed.Nodes()
		if nodes.SubsetOf(S) && !nodes.SubsetOf(left) && !nodes.SubsetOf(right) {
			sel *= ed.Sel
			applied = append(applied, i)
		}
	}
	b.edgeBuf = applied
	if !e.ChargePlan() {
		return
	}
	lcard, lcost := e.PlanInfo(lh)
	rcard, rcost := e.PlanInfo(rh)
	card := cost.EstimateCard(op, lcard, rcard, sel)
	var (
		c    float64
		phys algebra.PhysOp
	)
	if pm, ok := b.Model.(cost.PhysicalModel); ok {
		phys, c = pm.ChooseJoin(op, lcost, rcost, lcard, rcard, card)
	} else {
		c = b.Model.JoinCost(op, lcost, rcost, lcard, rcard, card)
	}

	e.Improve(S, lh, rh, op, phys, card, c, applied)
}

// flipRefs inverts the Flipped flags into the reusable flip buffer.
func (b *Builder) flipRefs(conn []EdgeRef) []EdgeRef {
	out := b.flipBuf[:0]
	for _, r := range conn {
		out = append(out, EdgeRef{Idx: r.Idx, Flipped: !r.Flipped})
	}
	b.flipBuf = out
	return out
}
