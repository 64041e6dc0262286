package hypergraph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/bitset"
)

// fromBits builds a Set from a word-0 bit pattern, for quick.Check
// properties that generate random masks as integers.
func fromBits(raw uint64) bitset.Set {
	var s bitset.Set
	for e := 0; e < 64; e++ {
		if raw&(1<<uint(e)) != 0 {
			s = s.Add(e)
		}
	}
	return s
}

func chain(n int) *Graph {
	g := New()
	g.AddRelations(n, "R", 100)
	for i := 0; i+1 < n; i++ {
		g.AddSimpleEdge(i, i+1, 0.1)
	}
	return g
}

func TestAddRelationValidation(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Error("non-positive cardinality must panic")
		}
	}()
	g.AddRelation("bad", 0)
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	g.AddRelations(4, "R", 10)
	cases := []struct {
		name string
		e    Edge
	}{
		{"empty u", Edge{U: bitset.Empty, V: bitset.New(1), Sel: 0.5}},
		{"empty v", Edge{U: bitset.New(0), V: bitset.Empty, Sel: 0.5}},
		{"overlap uv", Edge{U: bitset.New(0, 1), V: bitset.New(1, 2), Sel: 0.5}},
		{"overlap uw", Edge{U: bitset.New(0), V: bitset.New(1), W: bitset.New(0), Sel: 0.5}},
		{"unknown rel", Edge{U: bitset.New(0), V: bitset.New(9), Sel: 0.5}},
		{"bad sel", Edge{U: bitset.New(0), V: bitset.New(1), Sel: 0}},
		{"sel > 1", Edge{U: bitset.New(0), V: bitset.New(1), Sel: 1.5}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			g.AddEdge(c.e)
		}()
	}
}

func TestEdgeDefaultsToInnerJoin(t *testing.T) {
	g := New()
	g.AddRelations(2, "R", 10)
	i := g.AddEdge(Edge{U: bitset.New(0), V: bitset.New(1), Sel: 0.5})
	if g.Edge(i).Op != algebra.Join {
		t.Errorf("default op = %v, want join", g.Edge(i).Op)
	}
}

func TestSimple(t *testing.T) {
	e := Edge{U: bitset.New(0), V: bitset.New(1)}
	if !e.Simple() {
		t.Error("binary edge must be simple")
	}
	e2 := Edge{U: bitset.New(0, 1), V: bitset.New(2)}
	if e2.Simple() {
		t.Error("hyperedge must not be simple")
	}
	e3 := Edge{U: bitset.New(0), V: bitset.New(1), W: bitset.New(2)}
	if e3.Simple() {
		t.Error("generalized edge must not be simple (Definition 6)")
	}
}

// TestNeighborhoodPaperExample replays the neighborhood computations that
// §2.3 works through on the Figure 2 hypergraph. Paper relations R1..R6
// are nodes 0..5 here.
func TestNeighborhoodPaperExample(t *testing.T) {
	g := PaperExampleGraph()

	// "For our hypergraph in Fig. 2 and with X = S = {R1,R2,R3}, we have
	// E↓(S,X) = {{R4,R5,R6}}."
	S := bitset.New(0, 1, 2)
	cands := g.CandidateHypernodes(S, S)
	if len(cands) != 1 || !cands[0].Equal(bitset.New(3, 4, 5)) {
		t.Fatalf("E↓ = %v, want [{R4,R5,R6}]", cands)
	}

	// "...we have N(S,X) = {R4}."
	if n := g.Neighborhood(S, S); !n.Equal(bitset.New(3)) {
		t.Errorf("N(S,X) = %v, want {R4} (node 3)", n)
	}

	// From the trace discussion in §3.2: for S1 = {R2} with R1 forbidden,
	// the neighborhood consists only of {R3}.
	if n := g.Neighborhood(bitset.New(1), bitset.New(0, 1)); !n.Equal(bitset.New(2)) {
		t.Errorf("N({R2}, {R1,R2}) = %v, want {R3}", n)
	}

	// From §3.4: for S2 = {R4} with X = {R1,R2,R3} ∪ B_{R1}, the
	// neighborhood is {R5}.
	if n := g.Neighborhood(bitset.New(3), bitset.New(0, 1, 2)); !n.Equal(bitset.New(4)) {
		t.Errorf("N({R4}, ...) = %v, want {R5}", n)
	}
}

func TestMinRepresentativePaperExample(t *testing.T) {
	// §2.3: with S = {R4,R5,R6}: min(S) = {R4}, min̄(S) = {R5,R6}.
	S := bitset.New(3, 4, 5)
	if !S.MinSet().Equal(bitset.New(3)) {
		t.Errorf("min(S) = %v", S.MinSet())
	}
	if !S.MinusMin().Equal(bitset.New(4, 5)) {
		t.Errorf("min̄(S) = %v", S.MinusMin())
	}
}

func TestNeighborhoodSubsumption(t *testing.T) {
	// A hyperedge whose target hypernode is a superset of a
	// simple-neighbor singleton must be dropped from E↓ (subsumed).
	g := New()
	g.AddRelations(4, "R", 10)
	g.AddSimpleEdge(0, 1, 0.5)                                       // candidate {R1}
	g.AddEdge(Edge{U: bitset.New(0), V: bitset.New(1, 2), Sel: 0.5}) // subsumed by {R1}
	g.AddEdge(Edge{U: bitset.New(0), V: bitset.New(2, 3), Sel: 0.5}) // minimal
	cands := g.CandidateHypernodes(bitset.New(0), bitset.New(0))
	want := map[string]bool{bitset.New(1).Key(): true, bitset.New(2, 3).Key(): true}
	if len(cands) != 2 {
		t.Fatalf("E↓ = %v", cands)
	}
	for _, c := range cands {
		if !want[c.Key()] {
			t.Errorf("unexpected candidate %v", c)
		}
	}
	// Neighborhood picks representatives: R1 and min({R2,R3}) = R2.
	if n := g.Neighborhood(bitset.New(0), bitset.New(0)); !n.Equal(bitset.New(1, 2)) {
		t.Errorf("N = %v, want {R1,R2}", n)
	}
}

func TestNeighborhoodSubsumptionAmongComplex(t *testing.T) {
	g := New()
	g.AddRelations(5, "R", 10)
	g.AddEdge(Edge{U: bitset.New(0), V: bitset.New(1, 2, 3), Sel: 0.5})
	g.AddEdge(Edge{U: bitset.New(0), V: bitset.New(1, 2), Sel: 0.5})
	cands := g.CandidateHypernodes(bitset.New(0), bitset.New(0))
	if len(cands) != 1 || !cands[0].Equal(bitset.New(1, 2)) {
		t.Fatalf("E↓ = %v, want [{R2,R3}]", cands)
	}
}

func TestNeighborhoodRespectsExclusion(t *testing.T) {
	g := PaperExampleGraph()
	// Excluding any node of the hyperedge target removes the candidate
	// entirely (v ∩ X = ∅ condition).
	S := bitset.New(0, 1, 2)
	X := S.Add(5) // forbid R6
	if n := g.Neighborhood(S, X); !n.IsEmpty() {
		t.Errorf("N = %v, want empty: hypernode overlaps X", n)
	}
}

func TestNeighborhoodDisconnectedSet(t *testing.T) {
	// Neighborhood is defined for any S, even one that does not induce a
	// connected subgraph (used during recursive growth).
	g := chain(5)
	S := bitset.New(0, 2) // not adjacent
	n := g.Neighborhood(S, S)
	if !n.Equal(bitset.New(1, 3)) {
		t.Errorf("N = %v, want {R1,R3}", n)
	}
}

func TestConnectsTo(t *testing.T) {
	g := PaperExampleGraph()
	cases := []struct {
		s1, s2 bitset.Set
		want   bool
	}{
		{bitset.New(0), bitset.New(1), true},
		{bitset.New(0), bitset.New(2), false},
		{bitset.New(0, 1, 2), bitset.New(3, 4, 5), true},
		{bitset.New(0, 1), bitset.New(3, 4, 5), false}, // hyperedge u ⊄ {R1,R2}
		{bitset.New(0, 1, 2), bitset.New(3, 4), false}, // v ⊄ {R4,R5}
		{bitset.New(3, 4, 5), bitset.New(0, 1, 2), true},
	}
	for _, c := range cases {
		if got := g.ConnectsTo(c.s1, c.s2); got != c.want {
			t.Errorf("ConnectsTo(%v,%v) = %v, want %v", c.s1, c.s2, got, c.want)
		}
	}
}

func TestGeneralizedEdgeConnectivity(t *testing.T) {
	// Definition 7: (u,v,w) connects V1, V2 iff u ⊆ V1, v ⊆ V2,
	// w ⊆ V1 ∪ V2 (or symmetric).
	g := New()
	g.AddRelations(4, "R", 10)
	g.AddEdge(Edge{U: bitset.New(0), V: bitset.New(1), W: bitset.New(2), Sel: 0.5})

	if !g.ConnectsTo(bitset.New(0, 2), bitset.New(1)) {
		t.Error("w on the left side must connect")
	}
	if !g.ConnectsTo(bitset.New(0), bitset.New(1, 2)) {
		t.Error("w on the right side must connect")
	}
	if g.ConnectsTo(bitset.New(0), bitset.New(1)) {
		t.Error("w missing entirely must not connect")
	}
	if g.ConnectsTo(bitset.New(0, 3), bitset.New(1)) {
		t.Error("w unplaced must not connect")
	}
}

func TestGeneralizedEdgeNeighborhood(t *testing.T) {
	// §6: given V1 and edge (u,v,w) with u ⊆ V1, the neighboring
	// hypernode is v ∪ (w ∖ V1).
	g := New()
	g.AddRelations(4, "R", 10)
	g.AddEdge(Edge{U: bitset.New(0), V: bitset.New(1), W: bitset.New(2, 3), Sel: 0.5})

	// Nothing of w in S: candidate {R1,R2,R3}, representative R1.
	cands := g.CandidateHypernodes(bitset.New(0), bitset.New(0))
	if len(cands) != 1 || !cands[0].Equal(bitset.New(1, 2, 3)) {
		t.Fatalf("E↓ = %v", cands)
	}

	// Part of w already in S: candidate shrinks to v ∪ (w ∖ S).
	cands = g.CandidateHypernodes(bitset.New(0, 2), bitset.New(0, 2))
	if len(cands) != 1 || !cands[0].Equal(bitset.New(1, 3)) {
		t.Fatalf("E↓ = %v, want [{R1,R3}]", cands)
	}

	// All of w in S: candidate is exactly v.
	cands = g.CandidateHypernodes(bitset.New(0, 2, 3), bitset.New(0, 2, 3))
	if len(cands) != 1 || !cands[0].Equal(bitset.New(1)) {
		t.Fatalf("E↓ = %v, want [{R1}]", cands)
	}
}

func TestIsConnectedChain(t *testing.T) {
	g := chain(5)
	if !g.IsConnected(bitset.New(0, 1, 2)) {
		t.Error("prefix of chain is connected")
	}
	if g.IsConnected(bitset.New(0, 2)) {
		t.Error("gap in chain is not connected")
	}
	if !g.IsConnected(bitset.New(3)) {
		t.Error("singleton is connected")
	}
	if g.IsConnected(bitset.Empty) {
		t.Error("empty set is not connected")
	}
	if !g.IsConnected(g.AllNodes()) {
		t.Error("whole chain is connected")
	}
}

// TestIsConnectedHyperedgeSubtlety captures the Definition-3 subtlety:
// a set bridged only by a hyperedge whose far side is internally
// disconnected is NOT connected — joining it would need a cross product.
func TestIsConnectedHyperedgeSubtlety(t *testing.T) {
	g := New()
	g.AddRelations(3, "R", 10)
	g.AddEdge(Edge{U: bitset.New(0), V: bitset.New(1, 2), Sel: 0.5})
	if g.IsConnected(bitset.New(0, 1, 2)) {
		t.Error("{R0,R1,R2} must not be connected: {R1,R2} has no internal edge")
	}
	// Adding an edge inside the far hypernode makes it connected.
	g.AddSimpleEdge(1, 2, 0.5)
	if !g.IsConnected(bitset.New(0, 1, 2)) {
		t.Error("{R0,R1,R2} must be connected after adding R1-R2")
	}
}

func TestIsConnectedPaperExample(t *testing.T) {
	g := PaperExampleGraph()
	for _, s := range []bitset.Set{
		bitset.New(0, 1), bitset.New(1, 2), bitset.New(0, 1, 2),
		bitset.New(3, 4, 5), g.AllNodes(),
	} {
		if !g.IsConnected(s) {
			t.Errorf("%v must be connected", s)
		}
	}
	for _, s := range []bitset.Set{
		bitset.New(0, 2), bitset.New(0, 3), bitset.New(2, 3),
		bitset.New(0, 1, 3), bitset.New(0, 1, 2, 3),
	} {
		if g.IsConnected(s) {
			t.Errorf("%v must not be connected", s)
		}
	}
}

func TestComponentsAndMakeConnected(t *testing.T) {
	g := New()
	g.AddRelations(5, "R", 10)
	g.AddSimpleEdge(0, 1, 0.5)
	g.AddSimpleEdge(2, 3, 0.5)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	added := g.MakeConnected()
	if added != 3 { // C(3,2) pairs
		t.Errorf("added %d edges, want 3", added)
	}
	if len(g.Components()) != 1 {
		t.Error("graph must have one component after repair")
	}
	if !g.IsConnected(g.AllNodes()) {
		t.Error("graph must be Definition-3 connected after repair")
	}
	// Repair edges are selectivity-1 cross joins.
	e := g.Edge(g.NumEdges() - 1)
	if e.Sel != 1 || e.Label != "cross" {
		t.Errorf("repair edge = %+v", e)
	}
}

func TestSelectivityBetween(t *testing.T) {
	g := New()
	g.AddRelations(3, "R", 10)
	g.AddSimpleEdge(0, 1, 0.1)
	g.AddSimpleEdge(1, 2, 0.2)
	g.AddSimpleEdge(0, 2, 0.5)
	got := g.SelectivityBetween(bitset.New(0, 1), bitset.New(2))
	if got != 0.2*0.5 {
		t.Errorf("sel = %g, want 0.1", got)
	}
	if g.SelectivityBetween(bitset.New(0), bitset.New(1)) != 0.1 {
		t.Error("single edge selectivity")
	}
}

func TestEachConnectingEdgeOrientation(t *testing.T) {
	g := New()
	g.AddRelations(3, "R", 10)
	g.AddEdge(Edge{U: bitset.New(0, 1), V: bitset.New(2), Sel: 0.5, Op: algebra.LeftOuter})
	var idx int
	var flipped bool
	count := 0
	g.EachConnectingEdge(bitset.New(2), bitset.New(0, 1), func(i int, f bool) {
		idx, flipped, count = i, f, count+1
	})
	if count != 1 || idx != 0 || !flipped {
		t.Errorf("idx=%d flipped=%v count=%d; want 0,true,1", idx, flipped, count)
	}
	g.EachConnectingEdge(bitset.New(0, 1), bitset.New(2), func(i int, f bool) {
		if f {
			t.Error("orientation must not be flipped")
		}
	})
}

// Property: the neighborhood of S never intersects S or X, and every
// representative is genuinely reachable (some candidate hypernode
// contains it as its minimum).
func TestNeighborhoodProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 10, 14)
	f := func(sRaw, xRaw uint16) bool {
		all := g.AllNodes()
		S := fromBits(uint64(sRaw)).Intersect(all)
		if S.IsEmpty() {
			return true
		}
		X := fromBits(uint64(xRaw)).Intersect(all)
		n := g.Neighborhood(S, X)
		if n.Overlaps(S) || n.Overlaps(X) {
			return false
		}
		cands := g.CandidateHypernodes(S, X)
		// Each representative must be the min of some candidate, and each
		// candidate must contribute its min.
		want := bitset.Empty
		for _, c := range cands {
			want = want.Union(c.MinSet())
		}
		return n.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ConnectsTo is symmetric.
func TestConnectsToSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 9, 12)
	f := func(aRaw, bRaw uint16) bool {
		all := g.AllNodes()
		a := fromBits(uint64(aRaw)).Intersect(all)
		b := fromBits(uint64(bRaw)).Intersect(all).Minus(a)
		if a.IsEmpty() || b.IsEmpty() {
			return true
		}
		return g.ConnectsTo(a, b) == g.ConnectsTo(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a connected random hypergraph with a spanning tree of
// simple edges plus extra simple and complex edges.
func randomGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New()
	g.AddRelations(n, "R", 100)
	for i := 1; i < n; i++ {
		g.AddSimpleEdge(rng.Intn(i), i, 0.1)
	}
	for k := 0; k < extra; k++ {
		if rng.Intn(2) == 0 {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddSimpleEdge(a, b, 0.2)
			}
			continue
		}
		// Random disjoint hypernodes.
		var u, v bitset.Set
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				u = u.Add(i)
			case 1:
				v = v.Add(i)
			}
		}
		if u.IsEmpty() || v.IsEmpty() || u.Overlaps(v) {
			continue
		}
		g.AddEdge(Edge{U: u, V: v, Sel: 0.3})
	}
	return g
}

func TestStringAndDot(t *testing.T) {
	g := PaperExampleGraph()
	s := g.String()
	if !strings.Contains(s, "6 relations") || !strings.Contains(s, "5 edges") {
		t.Errorf("String = %q", s)
	}
	d := g.Dot()
	for _, frag := range []string{"graph query", "R0 -- R1", "he4", "shape=box"} {
		if !strings.Contains(d, frag) {
			t.Errorf("Dot missing %q:\n%s", frag, d)
		}
	}
}

func TestClone(t *testing.T) {
	g := PaperExampleGraph()
	c := g.Clone()
	c.AddRelation("extra", 5)
	c.AddSimpleEdge(5, 6, 0.5)
	if g.NumRels() != 6 || g.NumEdges() != 5 {
		t.Error("clone mutation leaked into original")
	}
	if c.NumRels() != 7 || c.NumEdges() != 6 {
		t.Error("clone not mutated")
	}
}

func TestMemoInvalidation(t *testing.T) {
	g := New()
	g.AddRelations(3, "R", 10)
	g.AddSimpleEdge(0, 1, 0.5)
	if g.IsConnected(bitset.New(0, 1, 2)) {
		t.Fatal("not yet connected")
	}
	g.AddSimpleEdge(1, 2, 0.5)
	if !g.IsConnected(bitset.New(0, 1, 2)) {
		t.Fatal("memo must be invalidated by AddEdge")
	}
}

func BenchmarkNeighborhoodSimple(b *testing.B) {
	g := chain(20)
	S := bitset.Range(5, 10)
	X := bitset.Range(0, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Neighborhood(S, X)
	}
}

func BenchmarkNeighborhoodHyper(b *testing.B) {
	g := PaperExampleGraph()
	S := bitset.New(0, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Neighborhood(S, S)
	}
}

// TestFingerprintMemoInvalidated: the memoized fingerprint is reused
// while the graph is unchanged and recomputed after every kind of
// mutation.
func TestFingerprintMemoInvalidated(t *testing.T) {
	g := New()
	g.AddRelation("a", 10)
	g.AddRelation("b", 20)
	g.AddSimpleEdge(0, 1, 0.5)
	fp := g.Fingerprint()
	if allocs := testing.AllocsPerRun(10, func() { _ = g.Fingerprint() }); allocs != 0 {
		t.Errorf("memoized Fingerprint allocates %.0f times", allocs)
	}
	seen := map[string]bool{fp: true}
	for _, mutate := range []func(){
		func() { g.AddRelation("c", 30) },
		func() { g.SetFree(2, bitset.Single(0)) },
		func() { g.MakeConnected() }, // c is isolated: adds a cross edge
		func() { g.AddSimpleEdge(1, 2, 0.25) },
	} {
		mutate()
		fresh := g.Clone().Fingerprint()
		if got := g.Fingerprint(); got != fresh || seen[got] {
			t.Fatalf("after mutation: fingerprint %q, recomputed %q (stale: %v)", got, fresh, seen[got])
		}
		seen[g.Fingerprint()] = true
	}
}
