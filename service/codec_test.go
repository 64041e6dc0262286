package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// planRequestCases are /plan bodies on both sides of the canonical
// subset, including the envelope-level reasons to decline.
var planRequestCases = []string{
	`{"query":{"relations":[{"name":"a","card":10},{"name":"b","card":20}],"edges":[{"left":[0],"right":[1],"sel":0.1}]}}`,
	`{"timeout_ms":50,"budget":{"max_csg_cmp_pairs":100,"max_costed_plans":7},"algorithm":"auto","cost_model":"cout","plan_budget_ms":3,"query":{"relations":[{"name":"a","card":10},{"name":"b","card":20}],"edges":[{"left":[0],"right":[1],"sel":0.1}]}}`,
	`{"query":{"relations":[{"name":"a","card":1},{"name":"b","card":1}],"tree":{"op":"join","left":{"rel":0},"right":{"rel":1},"pred":[0,1],"sel":0.5}}}`,
	`{"query":null}`,
	`{"query":{"relations":[{"name":"a","card":1}],"edges":[{"left":[0],"right":[0],"sel":1}]},"Algorithm":"dpsize"}`,
	`{"query":{"relations":[{"name":"a","card":1}]},"algorithm":"dphyp","algorithm":"dpsize"}`,
	`{"query":{"relations":[{"name":"a","card":1}]},"budget":{"max_csg_cmp_pairs":5},"budget":{"max_costed_plans":7}}`,
	`{"query":{"relations":[{"name":"a","card":1}]},"timeout_ms":1.5}`,
	`{"query":{"relations":[{"name":"a","card":1}]},"timeout_ms":"5"}`,
	`{"query":{"relations":[{"name":"a","card":"1"}]},"algorithm":5}`,
	`{"query":{"relations":[{"name":"a","card":1}]},"budget":{"max_csg_cmp_pairs":-1}}`,
	`{"query":{"relations":[{"name":"a","card":1}]},"budget":null}`,
	`{"query":{"relations":[{"name":"a","card":1}]}}{}`,
	`{"queries":[]}`, `[]`, `{`, ``, `"x"`,
}

// TestPlanRequestDecodeParity: whenever the one-pass envelope decoders
// accept a body, encoding/json accepts it and decodes an equal value.
func TestPlanRequestDecodeParity(t *testing.T) {
	for _, c := range planRequestCases {
		checkRequestDecode(t, []byte(c))
	}
	if _, ok := decodePlanRequest([]byte(planRequestCases[1])); !ok {
		t.Error("canonical /plan body declined")
	}
	batch := `{"queries":[` + planRequestCases[0][len(`{"query":`):len(planRequestCases[0])-1] + `],"algorithm":"dphyp"}`
	if _, ok := decodeBatchRequest([]byte(batch)); !ok {
		t.Errorf("canonical /batch body declined: %s", batch)
	}
	checkRequestDecode(t, []byte(batch))
}

func checkRequestDecode(t *testing.T, body []byte) {
	t.Helper()
	if got, ok := decodePlanRequest(body); ok {
		var want PlanRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("/plan decoder accepted %q, encoding/json rejects it: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("/plan %q\n got: %#v\nwant: %#v", body, got, want)
		}
	}
	if got, ok := decodeBatchRequest(body); ok {
		var want BatchRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("/batch decoder accepted %q, encoding/json rejects it: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("/batch %q\n got: %#v\nwant: %#v", body, got, want)
		}
	}
}

// FuzzPlanHandler: arbitrary bytes posted to /plan never panic (which
// the handler would turn into a 500) and never get a 5xx — except a 504
// for a request that set its own timeout_ms. A body encoding/json
// rejects gets exactly the 400 it always got. Both envelope decoders
// agree with encoding/json whenever they accept. The seed corpus is
// testdata/fuzz/FuzzPlanHandler plus the fixed cases.
func FuzzPlanHandler(f *testing.F) {
	for _, c := range planRequestCases {
		f.Add([]byte(c))
	}
	s := New(Config{Planner: repro.NewPlanner(
		repro.WithAlgorithm(repro.SolverAuto),
		repro.WithBudget(repro.Budget{MaxCsgCmpPairs: 5000}),
	)})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRequestDecode(t, body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(body)))
		var req PlanRequest
		jerr := json.Unmarshal(body, &req)
		switch {
		case jerr != nil:
			want := httptest.NewRecorder()
			writeError(want, http.StatusBadRequest, errors.New("service: decoding request: "+jerr.Error()))
			if rec.Code != want.Code || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("body %q: %d %s, want %d %s", body, rec.Code, rec.Body.Bytes(), want.Code, want.Body.Bytes())
			}
		case rec.Code == http.StatusGatewayTimeout && req.TimeoutMS > 0:
		case rec.Code >= 500:
			t.Fatalf("body %q: %d %s", body, rec.Code, rec.Body.Bytes())
		}
	})
}

// TestTreeDocumentKey: a tree document's coalescing key ignores field
// order, whitespace and timeout_ms, and splits on a selectivity or an
// operator change.
func TestTreeDocumentKey(t *testing.T) {
	key := func(body string) string {
		t.Helper()
		req, ok := decodePlanRequest([]byte(body))
		if !ok {
			req = PlanRequest{}
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatal(err)
			}
		}
		q, k, err := documentKey(req.Query)
		if err != nil || q != nil {
			t.Fatalf("documentKey: %v, query %v", err, q)
		}
		return k
	}
	base := key(`{"query":{"relations":[{"name":"f","card":1000},{"name":"d","card":10}],` +
		`"tree":{"op":"leftouter","left":{"rel":0},"right":{"rel":1},"pred":[0,1],"sel":0.01}}}`)
	same := key(` { "timeout_ms" : 250, "query" : { "tree" : { "sel" : 0.01, "pred" : [ 0, 1 ], ` +
		`"right" : { "rel" : 1 }, "left" : { "rel" : 0 }, "op" : "leftouter" }, ` +
		`"relations" : [ { "card" : 1e3, "name" : "f" }, { "name" : "d", "card" : 10.0 } ] } }`)
	if same != base {
		t.Errorf("field order, whitespace or timeout_ms split the key:\n%q\n%q", base, same)
	}
	sel := key(`{"query":{"relations":[{"name":"f","card":1000},{"name":"d","card":10}],` +
		`"tree":{"op":"leftouter","left":{"rel":0},"right":{"rel":1},"pred":[0,1],"sel":0.02}}}`)
	if sel == base {
		t.Error("a selectivity change did not split the key")
	}
	op := key(`{"query":{"relations":[{"name":"f","card":1000},{"name":"d","card":10}],` +
		`"tree":{"op":"antijoin","left":{"rel":0},"right":{"rel":1},"pred":[0,1],"sel":0.01}}}`)
	if op == base {
		t.Error("an operator change did not split the key")
	}
}

// TestDisconnectedFingerprintBothPaths: /plan and /batch log the same
// fingerprint for one disconnected document — the document's own
// graph, not the one Plan's connectivity repair extends.
func TestDisconnectedFingerprintBothPaths(t *testing.T) {
	s := New(Config{Planner: repro.NewPlanner()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	doc := `{"relations":[{"name":"a","card":10},{"name":"b","card":20},{"name":"c","card":30},{"name":"d","card":40}],` +
		`"edges":[{"left":[0],"right":[1],"sel":0.1},{"left":[2],"right":[3],"sel":0.2}]}`
	for _, post := range []struct{ path, body string }{
		{"/plan", `{"query":` + doc + `}`},
		{"/batch", `{"queries":[` + doc + `]}`},
	} {
		resp, err := srv.Client().Post(srv.URL+post.path, "application/json", strings.NewReader(post.body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || bytes.Contains(out, []byte(`"error"`)) {
			t.Fatalf("POST %s: %d %s", post.path, resp.StatusCode, out)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []debugPlanJSON
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("ring has %d entries, want 2", len(entries))
	}
	if entries[0].Fingerprint != entries[1].Fingerprint {
		t.Errorf("/plan and /batch fingerprints differ: %s, %s", entries[0].Fingerprint, entries[1].Fingerprint)
	}
}
