package repro

import (
	"math"

	"repro/internal/shape"
)

// Topology-dependent limits beyond which exact enumeration is routed to
// Greedy (GOO) instead. The numbers come from the growth of the
// csg-cmp-pair counts measured in §4: cliques emit Θ(3ⁿ) pairs and
// stars Θ(n·2ⁿ), so both leave the interactive regime in the mid-teens,
// while chains and cycles emit only polynomially many pairs and stay
// exact much longer. Unrecognized (mixed) and grid shapes sit in
// between and get a conservative cutoff.
const (
	autoMaxCliqueRels = 14
	autoMaxStarRels   = 18
	autoMaxDenseRels  = 16 // grid and mixed shapes
	autoMaxSparseRels = 24 // chain and cycle
)

// autoMaxGreedyRels is the ceiling of the plain Greedy degradation: the
// historical single-machine-word limit (§2.3). Up to here oversize
// queries keep their pre-multi-word behavior (GOO's O(n³) scan is still
// interactive and its plans are adequate at this scale); beyond it the
// IterDP simplification tier takes over — its greedy clustering plus
// exact subproblems beat pure GOO on plan quality, and its near-linear
// compression keeps 100–1000-relation queries inside an interactive
// budget where GOO's cubic scan would not.
const autoMaxGreedyRels = 64

// staticPairs predicts how many csg-cmp pairs an exact enumeration of
// a graph with profile p emits: the paper's §4 measure of enumeration
// work, and the base of predictedWork. The canonical
// shapes use the exact §4 counts, which DPhyp's Stats.CsgCmpPairs
// matches pair for pair:
//
//   - chain: (n³ − n)/6
//   - cycle: (n³ − 2n² + n)/2
//   - star: (n − 1)·2ⁿ⁻²
//   - clique: (3ⁿ − 2ⁿ⁺¹ + 1)/2
//
// Grids and mixed graphs have no closed form. Their estimate is
// 2·1.75ⁿ·1.4ᵉ, where e = SimpleEdges − (n − 1) counts the simple
// edges beyond a spanning tree. It was fitted to serial DPhyp pair
// counts of 41 graphs per size, n = 8…16, for random recursive trees
// with e = 0, with n/3 extra edges and with n extra edges, and for
// trees with three random hyperedges. Every family's median lands
// within 0.85–1.8× of the prediction; the 3×4 grid (12 275 pairs)
// predicts 12 470. Hyperedges add no term: the three hyperedges of a
// random hypergraph left its median count at its spanning tree's. The
// estimate is clamped below by the chain count and by a star at the
// graph's largest simple degree, and above by the clique count.
func staticPairs(p shape.Profile) float64 {
	n := float64(p.Rels)
	if n < 2 {
		return 1
	}
	chain := (n*n*n - n) / 6
	clique := (math.Pow(3, n) - math.Exp2(n+1) + 1) / 2
	switch p.Class {
	case shape.Chain:
		return chain
	case shape.Cycle:
		return n * (n - 1) * (n - 1) / 2
	case shape.Star:
		return (n - 1) * math.Exp2(n-2)
	case shape.Clique:
		return clique
	default: // grid, mixed
		excess := float64(max(0, p.SimpleEdges-(p.Rels-1)))
		d := float64(p.MaxDegree)
		hub := d * math.Exp2(d-1)
		return min(clique, max(2*math.Pow(1.75, n)*math.Pow(1.4, excess), chain, hub))
	}
}

// predictedWork is the planner's one prediction of how much work an
// exact enumeration of a graph with profile p costs alg, in csg-cmp
// pairs: the parallel gate (parallelMinWork) and the SLO static tables
// (staticPlanCost) both read it. Every exact solver builds the
// staticPairs(p) pairs. DPhyp and DPccp enumerate nothing else. The
// generate-and-test solvers add their failing tests, weighted by where
// two workers started to beat serial for them on a 2-vCPU box at
// GOMAXPROCS 2 (medians of 5 to 11 interleaved runs on chains, cycles
// and stars):
//
//   - DPsub probes every subset of every relation set, 3ⁿ steps
//     whatever the shape, and TopDown's partition search tests about
//     as many splits. Both crossed at about 11 relations on all three
//     shapes (at 10: 0.98–1.50× of serial, at 11: 0.76–1.23×, at 12:
//     0.60–1.12×, from 13 on 0.52–0.75×), so 3ⁿ/24 puts every
//     11-relation graph (7 381 + pairs) above the gate and every
//     10-relation sparse graph (2 460 + pairs) below it.
//   - DPsize pairs every plan of size s1 with every plan of size
//     s − s1 and pays a connectivity test for each disjoint
//     candidate. It crossed at about 1 100 emitted pairs on chains
//     and cycles (chain18, 969 pairs: 0.90×; chain20, 1 330: 0.79×;
//     cycle13, 936: 1.07×; cycle14, 1 183: 0.93×) and between star9
//     (1 024: 1.42×) and star10 (2 304: 0.96×), so each pair counts
//     5.5.
func predictedWork(p shape.Profile, alg Algorithm) float64 {
	pairs := staticPairs(p)
	switch alg {
	case DPsub, TopDown:
		return pairs + math.Pow(3, float64(p.Rels))/24
	case DPsize:
		return 5.5 * pairs
	default:
		return pairs
	}
}

// parallelMinWork is the predicted work (predictedWork, in csg-cmp
// pairs) from which an enumeration forks workers; below it every run
// is serial, whatever WithParallelism allows. It was measured on a
// 2-vCPU box at GOMAXPROCS 2, timing each routed solver serially and
// at 2 workers on the same pooled engine (medians of 9 interleaved
// runs per graph, 9 graphs per random size). Two workers lose or tie
// below about 4 000 actual pairs: chain24 (2 300 pairs) took 1.13×
// the serial time, star10 (2 304) 1.09×, cycle20 (3 610) 0.99×,
// random 11-relation graphs (1 200–3 000) 1.08× and 14-relation
// hypergraphs (1 800–5 700) 0.97×. Between about 4 000 and 6 000 they
// gain up to 14%: star11 (5 120) 0.93×, cycle23 (5 566) 0.86×, random
// 12-relation graphs (2 500–6 700) 0.92×. From about 6 000 they gain
// 20% or more: cycle24 (6 348) 0.79×, the 2×6 grid (6 244) 0.74×,
// star12 (11 264) 0.79×, random 13-relation graphs (1 900–11 400)
// 0.82×, clique9 on DPsub (9 330) 0.72× of serial TopDown. The
// constant sits at the top of the marginal band: the grid and mixed
// estimate is a median that single graphs miss by up to 2× either
// way, and every fork retains worker scratch on the pooled engine, so
// a fork has to win clearly.
const parallelMinWork = 6000

// routeAuto maps a topology profile to the enumeration algorithm,
// following the crossover data of the paper's evaluation (§4):
//
//   - Any query with hyperedges goes to DPhyp: Figures 5 and 6 show it
//     lowest on every hyperedge workload, often by orders of magnitude,
//     because it is the only enumerator that never generates a
//     connectivity-failing pair.
//   - Stars go to DPhyp (Fig. 7: DPhyp ≪ DPsub < DPsize, with the gap
//     growing exponentially in the number of relations).
//   - Chains go to DPhyp. It enumerates exactly the (n³ − n)/6 csg-cmp
//     pairs, while DPsize also tests every size-paired combination
//     that fails to connect. Serially on a 2-vCPU box, DPsize took
//     1.8× DPhyp's time on chain10 (0.31 against 0.17 ms), 2.2× on
//     chain16 (2.21 against 1.02 ms) and 2.8× on chain24 (9.81 against
//     3.49 ms). DPsize stays reachable through WithAlgorithm for the §4
//     reproductions.
//   - Cycles go to DPccp, the simple-graph specialization of the
//     csg-cmp-pair enumeration — exact and allocation-light on sparse
//     simple graphs.
//   - Cliques go to TopDown: on a clique every subset is connected, so
//     the failing connectivity tests that sink DPsize/DPsub vanish and
//     the memoizing partition search enumerates exactly the csg-cmp
//     pairs top-down.
//   - Everything else (grids, irregular graphs) goes to DPhyp, the
//     paper's overall winner.
//
// Queries whose class/size combination is beyond the exact cutoffs
// degrade to Greedy up front rather than tripping a budget mid-flight.
// Every routed exact solver explores the same bushy cross-product-free
// space, so routing never changes the cost of the returned plan — only
// the time to find it.
//
// workers is the call's worker count after the parallel gate, sized
// by the serial route's predicted work (routeAuto(p, 1)): more than
// one only when predictedWork reaches parallelMinWork (clique9 and up,
// for cliques). It matters in one place: parallel cliques route to
// the level-parallel DPsub instead of TopDown. TopDown has its own parallel
// partition search, but on a clique both solvers walk the same Θ(3ⁿ)
// partition space, and DPsub prices pairs in place during its level
// sweep while parallel TopDown pays an extra collect-then-price pass
// over every pair (clique12 at 4 workers: DPsub ≈ 0.93× of parallel
// TopDown's time on the 2-core reference box).
func routeAuto(p shape.Profile, workers int) Algorithm {
	limit := autoMaxDenseRels
	switch p.Class {
	case shape.Clique:
		limit = autoMaxCliqueRels
	case shape.Star:
		limit = autoMaxStarRels
	case shape.Chain, shape.Cycle:
		limit = autoMaxSparseRels
	}
	if p.Rels > autoMaxGreedyRels {
		return IterDP
	}
	if p.Rels > limit {
		return Greedy
	}
	if p.HyperEdges > 0 {
		return DPhyp
	}
	switch p.Class {
	case shape.Cycle:
		return DPccp
	case shape.Clique:
		if workers > 1 {
			return DPsub
		}
		return TopDown
	default: // Chain, Star, Grid, Mixed
		return DPhyp
	}
}
