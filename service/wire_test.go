package service

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// wireNames are relation names for the parity test: plain ones, and
// every class of byte encoding/json escapes or replaces.
var wireNames = []string{
	"orders", "R7", "", "a<b>&c", `say "hi"`, `back\slash`, "tab\there",
	"nl\ncr\r", "bell\x07\x1f", "\x7f", "café", "line\u2028sep\u2029",
	"bad\xffutf8", "\xc3", "日本", "emoji\U0001F600",
}

// wireFloats are the special values of encoding/json's float format:
// both exponent cutoffs, the "e-07" clean-up, signed zero, extremes.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 123.456, 1e20, 1e21, 1.5e21,
	9.99999e20, 1e-6, 9.99e-7, 1e-7, 1.234e-9, 5e-324, math.MaxFloat64,
	-1e21, -1e-7, 1e100, 1e-100, 0.1 + 0.2, 1e-50,
}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return wireFloats[rng.Intn(len(wireFloats))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
}

func randPlan(rng *rand.Rand, depth int) *repro.PlanNode {
	n := &repro.PlanNode{Card: randFloat(rng), Cost: randFloat(rng), Rel: -1}
	if depth == 0 || rng.Intn(3) == 0 {
		n.Rel = rng.Intn(len(wireNames)+2) - 1 // out-of-range leaves have no name
		return n
	}
	ops := []repro.Op{repro.OpJoin, repro.OpLeftOuter, repro.OpFullOuter,
		repro.OpAntiJoin, repro.OpSemiJoin, repro.OpNestJoin}
	n.Op = ops[rng.Intn(len(ops))]
	phys := []repro.PhysicalOp{repro.PhysNone, repro.PhysHashJoin, repro.PhysSortMerge, repro.PhysIndexNLJ}
	n.Phys = phys[rng.Intn(len(phys))]
	n.Left = randPlan(rng, depth-1)
	n.Right = randPlan(rng, depth-1)
	if rng.Intn(20) == 0 {
		n.Right = nil // a half-built node still renders its one child
	}
	return n
}

func randTrace(rng *rand.Rand) *obs.Trace {
	if rng.Intn(3) == 0 {
		return nil
	}
	tr := obs.NewTrace()
	tr.Begin()
	for i := rng.Intn(4); i >= 0; i-- {
		h := tr.Start(obs.Phase(rng.Intn(10)))
		tr.Annotate(h, rng.Int63n(1000), rng.Intn(50), rng.Intn(3), rng.Intn(2))
		tr.End(h)
	}
	tr.Finish()
	return tr
}

func randResult(rng *rand.Rand, g *hypergraph.Graph) *repro.Result {
	shapes := []string{"", "chain", "star", "clique", "weird<&>"}
	res := &repro.Result{
		Plan:      randPlan(rng, rng.Intn(5)),
		Algorithm: repro.Algorithm(rng.Intn(9)),
	}
	if rng.Intn(4) != 0 {
		res.Graph = g
	}
	st := &res.Stats
	st.CsgCmpPairs = rng.Intn(3) * rng.Intn(100000)
	st.CostedPlans = rng.Intn(3) * rng.Intn(100000)
	st.CacheHit = rng.Intn(2) == 0
	st.BudgetExhausted = rng.Intn(4) == 0
	st.FallbackGreedy = rng.Intn(4) == 0
	st.Shape = shapes[rng.Intn(len(shapes))]
	st.RoutedAlgorithm = shapes[rng.Intn(len(shapes))]
	st.Workers = rng.Intn(3) * rng.Intn(8)
	st.Subproblems = rng.Intn(2) * rng.Intn(20)
	st.Rounds = rng.Intn(2) * rng.Intn(5)
	if rng.Intn(2) == 0 {
		// Budgets from sub-microsecond (renders 0, omitted) to seconds.
		st.PlanBudget = time.Duration(rng.Int63n(int64(2 * time.Second)))
		if rng.Intn(5) == 0 {
			st.PlanBudget = time.Duration(rng.Intn(999) + 1)
		}
		st.PredictedCost = time.Duration(rng.Int63n(int64(time.Second))) * time.Duration(rng.Intn(2))
		st.SLORung = rng.Intn(4)
		st.SLODegraded = rng.Intn(2) == 0
		st.SLOMet = rng.Intn(2) == 0
	}
	st.Trace = randTrace(rng)
	return res
}

func wireGraph() *hypergraph.Graph {
	g := hypergraph.New()
	for _, name := range wireNames {
		g.AddRelation(name, 10)
	}
	return g
}

// TestWireParity: the appended /plan and /batch bodies equal what
// json.NewEncoder with SetEscapeHTML(false) writes for the reference
// wire structs, byte for byte, status and headers included — across
// escaped and invalid-UTF-8 names, both float-format cutoffs, physical
// operators, SLO fields, the pressure tier, the coalesced flag, the
// explain trace, and non-finite numbers (an empty body on both sides).
func TestWireParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := wireGraph()
	for i := 0; i < 600; i++ {
		res := randResult(rng, g)
		if i%50 == 49 {
			res.Plan.Cost = []float64{math.Inf(1), math.NaN(), math.Inf(-1)}[i%3]
		}
		coalesced := rng.Intn(2) == 0
		elapsed := randFloat(rng)
		tier := rng.Intn(3)
		var trace *TraceJSON
		if rng.Intn(2) == 0 {
			trace = traceJSON(res.Stats.Trace)
		}

		want := httptest.NewRecorder()
		resp := planResponse(res, coalesced, elapsed)
		resp.PressureTier = tier
		resp.Trace = trace
		writeJSON(want, http.StatusOK, resp)
		got := httptest.NewRecorder()
		writePlanResponse(got, res, coalesced, elapsed, tier, trace)
		sameResponse(t, "plan", i, got, want)
	}

	for i := 0; i < 200; i++ {
		items := make([]batchResult, 1+rng.Intn(4))
		ref := BatchResponse{Results: make([]BatchItem, len(items))}
		for j := range items {
			if rng.Intn(3) == 0 {
				msg := wireNames[rng.Intn(len(wireNames))]
				items[j] = batchResult{err: msg}
				ref.Results[j] = BatchItem{Error: msg}
				continue
			}
			res := randResult(rng, g)
			elapsed := randFloat(rng)
			items[j] = batchResult{res: res, elapsedMS: elapsed}
			ref.Results[j] = BatchItem{PlanResponse: planResponse(res, false, elapsed)}
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, ref)
		got := httptest.NewRecorder()
		writeBatchResponse(got, items)
		sameResponse(t, "batch", i, got, want)
	}
}

func sameResponse(t *testing.T, what string, i int, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("%s %d: status/type %d %q, want %d %q", what, i,
			got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s %d: body differs\n got: %s\nwant: %s", what, i, got.Body.Bytes(), want.Body.Bytes())
	}
}
