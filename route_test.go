package repro

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/shape"
	"repro/internal/workload"
)

// TestStaticPairsExact: on the canonical shapes the predicted pair
// count is the paper's §4 count, pair for pair what serial DPhyp emits.
// Cliques stop at 12 relations: clique14 alone emits 2.4 million pairs
// and takes seconds, and nine consecutive sizes already pin the
// closed form.
func TestStaticPairsExact(t *testing.T) {
	cfg := workload.DefaultConfig()
	for n := 4; n <= 14; n++ {
		graphs := []*Graph{workload.Chain(n, cfg), workload.Cycle(n, cfg), workload.Star(n, cfg)}
		if n <= 12 {
			graphs = append(graphs, workload.Clique(n, cfg))
		}
		for _, g := range graphs {
			g.Freeze()
			prof := shape.Classify(g)
			_, st, err := core.Solve(g, core.Options{})
			if err != nil {
				t.Fatalf("%v%d: %v", prof.Class, n, err)
			}
			if got := staticPairs(prof); math.Round(got) != float64(st.CsgCmpPairs) {
				t.Errorf("%v%d: predicted %g pairs, DPhyp emitted %d", prof.Class, n, got, st.CsgCmpPairs)
			}
		}
	}
}

// TestStaticPairsMixedCalibration: grids and irregular graphs have no
// closed-form count, so their estimate is fitted. It must stay within
// 3× of the median serial DPhyp count of the §4 random generators, at
// the sizes the sparse benchmark mix draws and beyond.
func TestStaticPairsMixedCalibration(t *testing.T) {
	cfg := workload.DefaultConfig()
	gens := []struct {
		name string
		gen  func(rng *rand.Rand, n int) *Graph
	}{
		{"RandomSimple(n, n/3)", func(rng *rand.Rand, n int) *Graph { return workload.RandomSimple(rng, n, n/3, cfg) }},
		{"RandomHyper(n, 3)", func(rng *rand.Rand, n int) *Graph { return workload.RandomHyper(rng, n, 3, cfg) }},
	}
	maxN := 16
	if testing.Short() {
		maxN = 13
	}
	const graphs = 11
	for _, gc := range gens {
		for n := 8; n <= maxN; n++ {
			rng := rand.New(rand.NewSource(int64(100 + n)))
			var predicted, emitted []float64
			for k := 0; k < graphs; k++ {
				g := gc.gen(rng, n)
				g.Freeze()
				_, st, err := core.Solve(g, core.Options{})
				if err != nil {
					t.Fatalf("%s n=%d: %v", gc.name, n, err)
				}
				predicted = append(predicted, staticPairs(shape.Classify(g)))
				emitted = append(emitted, float64(st.CsgCmpPairs))
			}
			slices.Sort(predicted)
			slices.Sort(emitted)
			pred, med := predicted[graphs/2], emitted[graphs/2]
			if r := pred / med; r < 1.0/3 || r > 3 {
				t.Errorf("%s n=%d: median prediction %.0f is %.2f× the median emitted count %.0f",
					gc.name, n, pred, r, med)
			}
		}
	}
}
