// Package topdown implements a naive top-down memoization join
// enumerator — the "main competitor for dynamic programming" discussed in
// §1 of the paper. It recursively partitions relation sets, memoizing
// best plans, and needs generate-and-test over all 2^(|S|-1) partitions
// of every set it visits: exactly the overhead that DeHaan and Tompa's
// Top-Down Partition Search [7] removes with minimal graph cuts, and
// that DPccp/DPhyp avoid bottom-up.
//
// The paper does not measure this baseline (it measures DPsize and
// DPsub); it is included as an extension so the repository can
// demonstrate the §1 claim that naive memoization pays for failing
// partition tests the same way DPsub does.
//
// The solver is a pure enumerator: plan memoization, budgets, and plan
// construction route through the shared memo engine, and the failure
// memo (sets whose partitions have been fully explored without a plan)
// uses the same open-addressing memo.Table instead of a Go map.
package topdown

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

	// Parallelism > 1 enables the parallel partition search: exploration
	// proceeds level-synchronously by descending set size (discovery only
	// flows from supersets to proper subsets, so by the time a level is
	// processed every set it must explore is known), with each level's
	// 2^(|S|-1) partition indices chunked across workers claimed by
	// atomic counter. Workers answer "does a plan for S exist" — the
	// serial recursion's solve() result — with a structural Definition-3
	// connectivity test cached per worker, which under the dp.ParallelSafe
	// admissibility precheck is exactly the answer the finished memo
	// would give. Discovered sets merge into the shared exploration memo
	// at level barriers; admitted pairs are collected per worker and
	// priced level-by-level (dp.ParRun.PriceLevels) afterwards, so the
	// final plan is byte-identical at any worker count. Graphs failing
	// the precheck, n ≥ 63, filters, and emission hooks fall back to the
	// serial recursion. 0 or 1 runs today's serial engine.
	Parallelism int
}

// Solve runs top-down memoization over g.
func Solve(g *hypergraph.Graph, opts Options) (*plan.Node, dp.Stats, error) {
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
	// cost-free (dp.ParallelSafe: membership ⇔ connectivity) and has no
	// serial emission order to offer observation hooks; the partition-
	// index arithmetic packs into one word, hence n < 63 (DPsub's gate).
	if opts.Parallelism > 1 && opts.Filter == nil && opts.OnEmit == nil &&
		n >= 2 && n < 63 && dp.ParallelSafe(g) {
		solveParallel(g, e, b, n, opts.Parallelism, opts.Explain)
		p, err := b.Final()
		return p, e.Stats, err
	}

	// done marks sets whose partitions have all been explored, whether or
	// not a plan was found (failure memoization matters: disconnected
	// sets are re-encountered exponentially often otherwise). It lives in
	// the engine's scratch table so its storage is pooled across runs.
	s := solver{g: g, e: e, done: e.Scratch(1 << uint(min(n, 12)))}
	s.solve(g.AllNodes())
	p, err := b.Final()
	return p, e.Stats, err
}

// exploreChunk is the number of consecutive partition indices one work
// unit covers. Large enough that the atomic claim amortizes, small
// enough that a level of one huge set (the first level is always the
// single set V with 2^(n-1) partitions) still spreads across workers.
const exploreChunk = 256

// solveParallel runs the level-synchronous parallel partition search.
//
// The serial recursion explores a uniquely determined set space: V is
// explored, and while exploring S, a partition (S1,S2) that passes
// ConnectsTo explores S1, and additionally explores S2 iff S1 turned
// out connected (the && short-circuit). That space is the least
// fixpoint of those discovery rules — independent of visit order — and
// since every discovered set is a proper subset of its discoverer, it
// can be computed level-by-level in descending set size. Each level's
// sets are exploded into (set, partition-chunk) work units claimed
// dynamically; discoveries collect per worker and fold into the shared
// exploration memo at the level barrier, exactly reproducing the
// serial explored space, pair set, and CsgCmpPairs count.
func solveParallel(g *hypergraph.Graph, e *memo.Engine, b *dp.Builder, n, workers int, tr *obs.Trace) {
	pr := dp.NewParRun(b, workers)
	pr.Par.StartLevel()
	collect := tr.Start(obs.PhaseCollect)

	// seen is the merged exploration memo (the parallel counterpart of
	// the serial done table); it is written only at level barriers, so
	// workers read it lock-free between them.
	seen := e.Scratch(1 << uint(min(n, 12)))
	all := g.AllNodes()
	seen.Put(all, 1)
	bySize := make([][]bitset.Set, n+1)
	bySize[n] = []bitset.Set{all}

	ws := make([]*wstate, workers)
	for w := range ws {
		we := pr.Bs[w].Engine
		ws[w] = &wstate{g: g, we: we, wb: pr.Bs[w], cache: we.Scratch(1 << uint(min(n, 12)))}
	}

	for size := n; size >= 2; size-- {
		level := bySize[size]
		if len(level) == 0 {
			continue
		}
		parts := uint64(1) << uint(size-1) // subsets of S \ min(S), incl. the empty-complement one
		chunksPerSet := (parts + exploreChunk - 1) / exploreChunk
		total := uint64(len(level)) * chunksPerSet
		var (
			next atomic.Uint64
			wg   sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			st := ws[w]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					u := next.Add(1) - 1
					if u >= total || st.we.Aborted() != nil {
						return
					}
					st.explore(level[u/chunksPerSet], u%chunksPerSet, parts, seen)
				}
			}()
		}
		wg.Wait()
		if pr.Par.Aborted() != nil {
			break
		}
		// Level barrier: fold each worker's discoveries into the shared
		// memo. Two workers may have found the same set; the memo check
		// dedups, so every set enters a worklist exactly once.
		for _, st := range ws {
			for _, T := range st.found {
				if _, ok := seen.Get(T); !ok {
					seen.Put(T, 1)
					bySize[T.Len()] = append(bySize[T.Len()], T)
				}
			}
			st.found = st.found[:0]
		}
	}
	pr.Par.FinishLevel(memo.LevelCollected)
	tr.Annotate(collect, int64(e.Stats.CsgCmpPairs), 0, workers, 0)
	tr.End(collect)
	if pr.Par.Aborted() != nil {
		return
	}
	price := tr.Start(obs.PhasePrice)
	pr.PriceLevels()
	tr.Annotate(price, 0, e.Entries(), workers, 0)
	tr.End(price)
}

// Per-worker connectivity-cache bits: connKnown marks a memoized
// Definition-3 answer (connYes its value); noted marks a set already
// appended to this worker's discovery list this run.
const (
	connYes   = 1
	connKnown = 2
	noted     = 4
)

// wstate is one worker's run-long exploration state. The cache lives in
// the worker engine's scratch table (pooled across runs); the found
// list is drained at every level barrier.
type wstate struct {
	g     *hypergraph.Graph
	we    *memo.Engine
	wb    *dp.Builder
	cache *memo.Table
	cs    hypergraph.ConnScratch
	found []bitset.Set
}

// explore runs one chunk of the partition generate-and-test loop of S:
// packed indices [chunk·exploreChunk, …) over the subsets of S\min(S)
// in Vance–Maier order (ascending packed index), mirroring the serial
// loop body with solve() answered structurally and pricing deferred.
//
//dp:hotpath
func (st *wstate) explore(S bitset.Set, chunk, parts uint64, seen *memo.Table) {
	lo := S.MinSet()
	rest := S.MinusMin()
	i := chunk * exploreChunk
	end := i + exploreChunk
	if last := parts - 1; end > last {
		end = last // index parts-1 is a == rest: S2 empty, the serial break
	}
	if i >= end {
		return
	}
	a := subsetAt(rest, i)
	for {
		if !st.we.Step() {
			return
		}
		S1 := lo.Union(a)
		S2 := S.Minus(S1)
		if st.g.ConnectsTo(S1, S2) {
			st.note(S1, seen)
			if st.conn(S1) {
				st.note(S2, seen)
				if st.conn(S2) && st.we.EmitDeferred(S1, S2) {
					st.wb.DeferPair(S1, S2)
				}
			}
		}
		i++
		if i >= end {
			return
		}
		a = a.NextSubset(rest)
	}
}

// conn answers the serial recursion's solve(S) — "does the finished
// memo hold a plan for S" — structurally: under dp.ParallelSafe every
// admitted pair stores a plan, so memo membership after full
// exploration is exactly Definition-3 connectivity.
//
//dp:hotpath
func (st *wstate) conn(S bitset.Set) bool {
	if S.IsSingleton() {
		return true // seeded by Init
	}
	v, _ := st.cache.Get(S)
	if v&connKnown == 0 {
		v |= connKnown
		if st.g.ConnectedSet(S, &st.cs) {
			v |= connYes
		}
		st.cache.Put(S, v)
	}
	return v&connYes != 0
}

// note records S for exploration at its own (strictly smaller) level:
// skipped if the shared memo already has it or this worker already
// found it. Runs per-discovery, not per-partition, so the append's
// amortized growth is off the hot path.
func (st *wstate) note(S bitset.Set, seen *memo.Table) {
	if S.IsSingleton() {
		return
	}
	if _, ok := seen.Get(S); ok {
		return
	}
	v, _ := st.cache.Get(S)
	if v&noted != 0 {
		return
	}
	st.cache.Put(S, v|noted)
	//nolint:hotpathalloc // append fires once per newly discovered set, not per partition tested; the buffer is re-sliced to zero at each barrier so its capacity is a once-per-run warmup cost
	st.found = append(st.found, S)
}

// subsetAt returns the subset of rest with packed index i: bit k of i
// selects the k-th smallest element of rest. NextSubset enumerates
// subsets in ascending packed index, so subsetAt(rest, i) is the i-th
// set of that order — the chunk seek for the partition loop.
func subsetAt(rest bitset.Set, i uint64) bitset.Set {
	a := bitset.Empty
	for v := rest.Min(); i != 0; v = rest.NextElem(v + 1) {
		if i&1 != 0 {
			a = a.Add(v)
		}
		i >>= 1
	}
	return a
}

// solver carries the recursion state of one top-down run, so the
// recursive partition search is a named method rather than a closure
// (closures allocate and cannot carry directives).
type solver struct {
	g    *hypergraph.Graph
	e    *memo.Engine
	done *memo.Table
}

// solve reports whether a plan for S exists in the memo after
// exploring S's partitions.
//
//dp:hotpath
func (s *solver) solve(S bitset.Set) bool {
	if S.IsSingleton() {
		return true // seeded by Init
	}
	if _, ok := s.done.Get(S); ok {
		return s.e.Contains(S)
	}
	s.done.Put(S, 1)
	// Generate-and-test over all partitions with min(S) ∈ S1,
	// recursing first so subplans are final before pricing.
	lo := S.MinSet()
	rest := S.MinusMin()
	for a := bitset.Empty; ; a = a.NextSubset(rest) {
		// The partition generate-and-test loop is where this
		// enumerator spends its time; poll cancellation here.
		if !s.e.Step() {
			return false
		}
		S1 := lo.Union(a)
		S2 := S.Minus(S1)
		if S2.IsEmpty() {
			break // a == rest: S1 == S
		}
		if s.g.ConnectsTo(S1, S2) && s.solve(S1) && s.solve(S2) {
			s.e.EmitPair(S1, S2)
		}
		if a.Equal(rest) {
			break
		}
	}
	return s.e.Contains(S)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

type solverError string

func (e solverError) Error() string { return string(e) }

const errEmpty = solverError("topdown: empty hypergraph")
