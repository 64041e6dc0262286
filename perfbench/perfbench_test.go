package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"path/filepath"
	"testing"
	"time"

	"repro"
)

// inputBytes serializes an input set: every document's body, then the
// request key sequence.
func inputBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	set, err := generateInputs(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, in := range set.Inputs {
		b.Write(in.Request)
		b.WriteByte('\n')
	}
	if err := binary.Write(&b, binary.LittleEndian, set.Keys); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestInputsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := inputBytes(t, w, 7), inputBytes(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different input sets", w)
		}
		if bytes.Equal(a, inputBytes(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same input set", w)
		}
	}
}

// TestPlanWorkloadsMiss checks that library ops never hit the plan
// cache: every input is a distinct graph, the list the loop cycles
// through is longer than the cache, so an input's previous entry is
// always evicted before it recurs, and a run over the first inputs
// records no hit.
func TestPlanWorkloadsMiss(t *testing.T) {
	for _, w := range []string{"plan-sparse", "plan-dense"} {
		set, err := generateInputs(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Inputs) <= repro.DefaultPlanCacheSize {
			t.Fatalf("%s: %d inputs do not exceed the %d-entry cache", w, len(set.Inputs), repro.DefaultPlanCacheSize)
		}
		seen := map[string]bool{}
		for i, in := range set.Inputs {
			q, err := in.Doc.BuildQuery()
			if err != nil {
				t.Fatal(err)
			}
			fp := q.Graph().Fingerprint()
			if seen[fp] {
				t.Fatalf("%s: input %d repeats an earlier graph", w, i)
			}
			seen[fp] = true
		}
		ops := 80
		if w == "plan-dense" {
			ops = 14
		}
		p := newLibraryPlanner()
		tl := newTally(len(set.Inputs), ops)
		next := 0
		libraryLoop(context.Background(), p, set.Inputs, &next, time.Minute, set.Segment, tl, nil)
		if tl.failed != 0 {
			t.Fatalf("%s: %d failed ops: %v", w, tl.failed, tl.failures)
		}
		if m := p.Metrics(); m.CacheHits != 0 || m.CacheMisses != uint64(ops) {
			t.Errorf("%s: %d ops gave %d hits and %d misses, want 0 and %d", w, ops, m.CacheHits, m.CacheMisses, ops)
		}
	}
}

// serveFor runs the named serve workload's closed loop against a fresh
// server for d and returns the planner's counters and the op count.
func serveFor(t *testing.T, name string, d time.Duration) (repro.PlannerMetrics, int) {
	t.Helper()
	set, err := generateInputs(name, 5)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := ""
	if name == "serve-hot" {
		snapshot = filepath.Join(t.TempDir(), "hot.json")
		if _, err := prepareSnapshot(context.Background(), set, snapshot); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := startServer(snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	clients := make([]*client, serveConns)
	for c := range clients {
		clients[c] = &client{http: hc, url: srv.url, set: set, tally: newTally(len(set.Inputs), 1<<20)}
	}
	closedLoop(clients, &keys{seq: set.Keys}, d, nil)
	if err := srv.stop(); err != nil {
		t.Fatal(err)
	}
	ops := 0
	for _, c := range clients {
		if c.tally.failed != 0 {
			t.Fatalf("%s: %d failed ops: %v", name, c.tally.failed, c.tally.failures)
		}
		ops += len(c.tally.lats)
	}
	return srv.planner.Metrics(), ops
}

func TestServeHotOnlyHits(t *testing.T) {
	m, ops := serveFor(t, "serve-hot", 500*time.Millisecond)
	if m.CacheMisses != 0 || m.CacheHits != uint64(ops) {
		t.Errorf("%d requests gave %d hits and %d misses, want only hits", ops, m.CacheHits, m.CacheMisses)
	}
}

func TestServeChurnHitBand(t *testing.T) {
	m, ops := serveFor(t, "serve-churn", 1500*time.Millisecond)
	hit := float64(m.CacheHits) / float64(m.CacheHits+m.CacheMisses)
	if hit < 0.65 || hit > 0.85 {
		t.Errorf("%d requests hit the cache %.3f of the time, want 0.65..0.85", ops, hit)
	}
	if m.CacheEvictions == 0 {
		t.Error("no evictions: the working set fits the cache")
	}
}

// TestCheckPlanRejects checks that the output check catches a plan
// that drops or repeats a relation, or reports the wrong cost.
func TestCheckPlanRejects(t *testing.T) {
	set, err := generateInputs("serve-hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	in := set.Inputs[0]
	res, err := newLibraryPlanner().PlanJSON(context.Background(), in.Doc)
	if err != nil {
		t.Fatal(err)
	}
	good := fromPlan(res.Plan)
	if err := checkPlan(in.Doc, good, res.Cost()); err != nil {
		t.Fatalf("correct plan rejected: %v", err)
	}
	if err := checkPlan(in.Doc, good, res.Cost()*1.001); err == nil {
		t.Error("wrong cost accepted")
	}
	dup := &ptree{rel: -1, left: good, right: &ptree{rel: 0}}
	if err := checkPlan(in.Doc, dup, res.Cost()); err == nil {
		t.Error("plan repeating a relation accepted")
	}
	if err := checkPlan(in.Doc, good.left, res.Cost()); err == nil {
		t.Error("plan missing relations accepted")
	}
}
