// Package shape classifies the topology of a query hypergraph.
//
// The paper's evaluation (§4) shows that the relative performance of the
// enumeration algorithms is a function of query shape: on chains and
// cycles the three dynamic programming variants are within small factors
// of each other, while on stars and cliques DPsize and DPsub fall behind
// DPhyp by orders of magnitude (Figs. 5–7). An adaptive planner
// therefore needs a cheap, label-invariant classifier that recognizes
// the canonical shapes before enumeration starts; the Planner's
// SolverAuto mode routes on the result.
//
// Classify runs in O(|V| + |E|): it computes the degree sequence of the
// simple-edge skeleton (hyperedges are counted separately — they do not
// change the skeleton class, mirroring the paper's "cycle/star with
// hyperedges" families), checks connectivity with a union-find pass, and
// matches the degree profile against the canonical shapes. Degree
// profiles are permutation-invariant, so the classification cannot
// depend on relation labels or insertion order.
package shape

import (
	"fmt"

	"repro/internal/hypergraph"
)

// Class is a topology class of the simple-edge skeleton.
type Class int

// The recognized classes, in classification precedence order (a triangle
// is reported as Clique, not Cycle; a 2×2 grid as Cycle, not Grid; a
// 2-relation query as Chain, not Star).
const (
	// Mixed is everything that matches no canonical shape, including
	// graphs whose simple-edge skeleton is disconnected (e.g. queries
	// held together only by hyperedges).
	Mixed Class = iota
	// Chain is a path R0 – R1 – … – R(n-1); a single relation counts.
	Chain
	// Cycle is a closed chain (every relation has exactly two simple
	// neighbors).
	Cycle
	// Star has one hub connected to n-1 satellites (Fig. 7).
	Star
	// Clique has all n(n-1)/2 simple edges.
	Clique
	// Grid is an a×b lattice (a,b ≥ 2), matched by its degree profile.
	Grid
)

var classNames = map[Class]string{
	Mixed: "mixed", Chain: "chain", Cycle: "cycle",
	Star: "star", Clique: "clique", Grid: "grid",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Profile describes a hypergraph's topology: the skeleton class plus the
// quantitative features (relation count, edge counts, densities) the
// routing policy combines with the paper's §4 crossover data.
type Profile struct {
	// Class is the topology class of the simple-edge skeleton.
	Class Class
	// Rels is the number of relations, |V|.
	Rels int
	// SimpleEdges counts distinct unordered simple-edge pairs
	// (duplicate predicates between the same two relations collapse).
	SimpleEdges int
	// HyperEdges counts non-simple edges (complex and generalized
	// hyperedges, §2.1/§6), duplicates included.
	HyperEdges int
	// Density is SimpleEdges / (n choose 2): 0 for edgeless graphs,
	// 1 for cliques.
	Density float64
	// HyperDensity is HyperEdges / (SimpleEdges + HyperEdges), the
	// fraction of join predicates that are hyperedges.
	HyperDensity float64
	// MaxDegree is the largest simple-edge degree of any relation.
	MaxDegree int
	// Connected reports whether the full hypergraph (hyperedges
	// included) is one reachability component.
	Connected bool
}

// stackRels is the relation count up to which Classify keeps all its
// scratch in fixed-size arrays on the stack: SolverAuto classifies on
// every call, cache hits included, so the common case allocates nothing.
const stackRels = 64

// Classify computes the Profile of g in O(|V| + |E|) time (plus the
// inverse-Ackermann union-find factor). It never mutates the graph and
// is safe for concurrent use on a frozen graph. Up to stackRels
// relations it does not allocate.
//
// The Grid class is matched by its degree profile (edge count and degree
// histogram of some a×b factorization), which is a necessary but not
// sufficient condition for being a lattice; the router only uses the
// class to pick among exact solvers, so a false Grid positive costs at
// most a suboptimal-speed — never a suboptimal-plan — choice.
func Classify(g *hypergraph.Graph) Profile {
	n := g.NumRels()
	p := Profile{Rels: n}
	if n == 0 {
		return p
	}

	// adj is the simple-edge adjacency matrix, one words-wide bit row
	// per relation, which collapses duplicate predicates between the
	// same two relations.
	words := (n + 63) / 64
	var (
		degBuf, allBuf, skelBuf [stackRels]int32
		adjBuf                  [stackRels]uint64
		deg                     []int32
		all, skel               unionFind
		adj                     []uint64
	)
	if n <= stackRels {
		deg, all, skel, adj = degBuf[:n], allBuf[:n], skelBuf[:n], adjBuf[:n]
	} else {
		deg, all, skel = make([]int32, n), make(unionFind, n), make(unionFind, n)
		adj = make([]uint64, n*words)
	}
	all.reset()  // connectivity of the full hypergraph
	skel.reset() // connectivity of the simple skeleton

	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.Simple() {
			a, b := e.U.Min(), e.V.Min()
			lo, hi := min(a, b), max(a, b)
			w, bit := lo*words+hi/64, uint64(1)<<uint(hi%64)
			if adj[w]&bit == 0 {
				adj[w] |= bit
				deg[a]++
				deg[b]++
				p.SimpleEdges++
			}
			skel.union(a, b)
			all.union(a, b)
		} else {
			p.HyperEdges++
			nodes := e.Nodes()
			first := nodes.Min()
			for v := nodes.NextElem(first + 1); v >= 0; v = nodes.NextElem(v + 1) {
				all.union(first, v)
			}
		}
	}

	var hist degreeHist
	for _, d := range deg {
		hist.add(int(d))
		p.MaxDegree = max(p.MaxDegree, int(d))
	}
	p.Connected = all.components() == 1
	if n >= 2 {
		p.Density = float64(p.SimpleEdges) / float64(n*(n-1)/2)
	}
	if total := p.SimpleEdges + p.HyperEdges; total > 0 {
		p.HyperDensity = float64(p.HyperEdges) / float64(total)
	}

	m := p.SimpleEdges
	skelConnected := skel.components() == 1
	switch {
	case n == 1:
		p.Class = Chain
	case !skelConnected:
		p.Class = Mixed
	case m == n-1 && p.MaxDegree <= 2:
		// A connected graph with n-1 edges is a tree; max degree 2
		// makes it a path.
		p.Class = Chain
	case n >= 3 && m == n*(n-1)/2:
		// All distinct pairs present. Checked before Cycle so that the
		// triangle — which is both — reports as Clique.
		p.Class = Clique
	case m == n && p.MaxDegree == 2:
		// Connected and 2-regular (sum of degrees is 2n, so max 2
		// forces all 2): a single cycle.
		p.Class = Cycle
	case m == n-1 && p.MaxDegree == n-1:
		// A tree with a universal hub.
		p.Class = Star
	case gridDegreeProfile(n, m, hist):
		p.Class = Grid
	default:
		p.Class = Mixed
	}
	return p
}

// degreeHist is the part of a degree histogram a lattice match reads:
// how many relations have degree 2, 3 and 4, and how many have any
// other degree.
type degreeHist struct{ d2, d3, d4, other int }

func (h *degreeHist) add(d int) {
	switch d {
	case 2:
		h.d2++
	case 3:
		h.d3++
	case 4:
		h.d4++
	default:
		h.other++
	}
}

// gridDegreeProfile reports whether (n, m, degree histogram) matches an
// a×b lattice for some factorization n = a·b with 2 ≤ a ≤ b: m must be
// a(b-1) + b(a-1), the four corners have degree 2, border nodes degree
// 3, and interior nodes degree 4.
func gridDegreeProfile(n, m int, hist degreeHist) bool {
	for a := 2; a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		b := n / a
		if m != a*(b-1)+b*(a-1) {
			continue
		}
		// With a == 2 there is no interior: only corners and border.
		want := degreeHist{d2: 4, d3: 2*(a-2) + 2*(b-2), d4: (a - 2) * (b - 2)}
		if hist == want {
			return true
		}
	}
	return false
}

// unionFind is a small path-halving union-find over [0, n), backed by
// caller-provided storage.
type unionFind []int32

func (u unionFind) reset() {
	for i := range u {
		u[i] = int32(i)
	}
}

func (u unionFind) find(x int) int {
	for int(u[x]) != x {
		u[x] = u[u[x]]
		x = int(u[x])
	}
	return x
}

func (u unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u[ra] = int32(rb)
	}
}

func (u unionFind) components() int {
	c := 0
	for i := range u {
		if u.find(i) == i {
			c++
		}
	}
	return c
}
