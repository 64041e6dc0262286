package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"testing"

	"repro"
	"repro/internal/hypergraph"
	"repro/internal/workload"
)

// hitDocument renders g as a query document, the way cmd/querygen does.
func hitDocument(g *hypergraph.Graph) *repro.QueryJSON {
	doc := &repro.QueryJSON{}
	for i := 0; i < g.NumRels(); i++ {
		r := g.Relation(i)
		doc.Relations = append(doc.Relations, repro.RelationJSON{Name: r.Name, Card: r.Card, Free: r.Free.Elems()})
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		doc.Edges = append(doc.Edges, repro.EdgeJSON{
			Left: e.U.Elems(), Right: e.V.Elems(), Free: e.W.Elems(),
			Sel: e.Sel, Op: e.Op.String(), Label: e.Label,
		})
	}
	return doc
}

// hitBodies is a mixed set of 6–10-relation /plan bodies: chains,
// cycles, stars and cycle hypergraphs.
func hitBodies(tb testing.TB) [][]byte {
	var bodies [][]byte
	for n := 6; n <= 10; n++ {
		cfg := workload.DefaultConfig()
		cfg.Seed = int64(n)
		graphs := []*hypergraph.Graph{workload.Chain(n, cfg), workload.Cycle(n, cfg), workload.Star(n, cfg)}
		if n%2 == 0 {
			graphs = append(graphs, workload.CycleHyper(n, 1, cfg))
		}
		for _, g := range graphs {
			body, err := json.Marshal(PlanRequest{Query: hitDocument(g)})
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// hitServer is a server over a warm SolverAuto planner with the serving
// pair budget and an info-level text log written to io.Discard, plus
// one reusable request per body.
type hitServer struct {
	h    http.Handler
	reqs []*http.Request
	body []*reusableBody
	w    discardWriter
}

// reusableBody lets one request be served again and again.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

func newHitServer(tb testing.TB) *hitServer {
	p := repro.NewPlanner(
		repro.WithAlgorithm(repro.SolverAuto),
		repro.WithBudget(repro.Budget{MaxCsgCmpPairs: 10_000_000}),
	)
	s := New(Config{
		Planner: p,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	hs := &hitServer{h: s.Handler(), w: discardWriter{h: http.Header{}}}
	for _, b := range hitBodies(tb) {
		rb := &reusableBody{}
		rb.Reset(b)
		req, err := http.NewRequest(http.MethodPost, "/plan", rb)
		if err != nil {
			tb.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		hs.reqs = append(hs.reqs, req)
		hs.body = append(hs.body, rb)
		hs.serve(tb, len(hs.reqs)-1, b) // warm the plan cache
	}
	return hs
}

// serve posts body i once and fails on anything but a 200.
func (hs *hitServer) serve(tb testing.TB, i int, body []byte) {
	hs.body[i].Reset(body)
	clear(hs.w.h)
	hs.w.code = 0
	hs.h.ServeHTTP(&hs.w, hs.reqs[i])
	if hs.w.code != http.StatusOK {
		tb.Fatalf("POST /plan: %d", hs.w.code)
	}
}

// BenchmarkServePlanHit is one cached POST /plan through the whole
// handler — decode, key, coalesce, plan-cache hit, encode — over a warm
// SolverAuto planner and a mixed set of 6–10-relation documents.
func BenchmarkServePlanHit(b *testing.B) {
	hs := newHitServer(b)
	bodies := hitBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(bodies)
		hs.serve(b, k, bodies[k])
	}
}

// maxHitAllocs bounds the allocations of one cached POST /plan through
// the handler. The path measured 32 per request when it was set (165
// before the reflection-free codec); the ceiling leaves room for small
// runtime differences, not for a codec or key path that allocates
// again.
const maxHitAllocs = 40

// TestServePlanHitAllocs guards the cached request's allocation count.
func TestServePlanHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts (sync.Pool drops entries)")
	}
	hs := newHitServer(t)
	bodies := hitBodies(t)
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		hs.serve(t, k%len(bodies), bodies[k%len(bodies)])
		k++
	})
	if allocs > maxHitAllocs {
		t.Fatalf("cached POST /plan: %.1f allocs per request, ceiling %d", allocs, maxHitAllocs)
	}
	t.Logf("cached POST /plan: %.1f allocs per request", allocs)
}
