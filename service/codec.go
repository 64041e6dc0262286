package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro"
	"repro/internal/jsonscan"
)

// The /plan and /batch codec. Requests in the canonical subset (see
// repro.DecodeQueryJSON and internal/jsonscan) decode in one pass
// without reflection; any other body — and so every malformed one —
// is decoded by encoding/json exactly as before, which keeps its
// values, its error texts and its 400s. Responses are appended
// straight from the plan tree into a pooled buffer and are byte for
// byte what json.NewEncoder with SetEscapeHTML(false) writes for the
// exported wire types; TestWireParity holds the two together.

// decodePlanRequest decodes a /plan body in the canonical subset. ok is
// false for any other body; the caller then runs json.Unmarshal.
func decodePlanRequest(body []byte) (req PlanRequest, ok bool) {
	s := jsonscan.New(string(body))
	var o requestOptions
	s.Expect('{')
	for first := true; s.More('}', first); first = false {
		if key := s.Key(); key == "query" {
			s.Once(&o.seen, 1)
			req.Query = decodeQuery(&s)
		} else {
			o.member(&s, key)
		}
	}
	req.Algorithm, req.CostModel, req.Budget = o.algorithm, o.costModel, o.budget
	req.PlanBudgetMS, req.TimeoutMS = o.planBudgetMS, o.timeoutMS
	return req, s.End()
}

// decodeBatchRequest is decodePlanRequest for a /batch body.
func decodeBatchRequest(body []byte) (req BatchRequest, ok bool) {
	s := jsonscan.New(string(body))
	var o requestOptions
	s.Expect('{')
	for first := true; s.More('}', first); first = false {
		if key := s.Key(); key == "queries" {
			s.Once(&o.seen, 1)
			if s.Expect('[') {
				req.Queries = []*repro.QueryJSON{}
			}
			for f := true; s.More(']', f); f = false {
				req.Queries = append(req.Queries, decodeQuery(&s))
			}
		} else {
			o.member(&s, key)
		}
	}
	req.Algorithm, req.CostModel, req.Budget = o.algorithm, o.costModel, o.budget
	req.PlanBudgetMS, req.TimeoutMS = o.planBudgetMS, o.timeoutMS
	return req, s.End()
}

// requestOptions collects the option members /plan and /batch share.
// Bit 1 of seen is left to the body's query member.
type requestOptions struct {
	algorithm, costModel    string
	budget                  *BudgetJSON
	planBudgetMS, timeoutMS int64
	seen                    uint8
}

// member decodes the value of option key, failing s on any other key.
func (o *requestOptions) member(s *jsonscan.Scanner, key string) {
	switch key {
	case "algorithm":
		s.Once(&o.seen, 2)
		o.algorithm = s.Str()
	case "cost_model":
		s.Once(&o.seen, 4)
		o.costModel = s.Str()
	case "budget":
		s.Once(&o.seen, 8)
		o.budget = decodeBudget(s)
	case "plan_budget_ms":
		s.Once(&o.seen, 16)
		o.planBudgetMS = s.Int64()
	case "timeout_ms":
		s.Once(&o.seen, 32)
		o.timeoutMS = s.Int64()
	default:
		s.Fail()
	}
}

// decodeQuery decodes the query document at s's position with the
// library's decoder.
func decodeQuery(s *jsonscan.Scanner) *repro.QueryJSON {
	if !s.OK() {
		return nil
	}
	q, n, ok := repro.DecodeQueryJSON(s.Rest())
	if !ok {
		s.Fail()
		return nil
	}
	s.Advance(n)
	return q
}

func decodeBudget(s *jsonscan.Scanner) *BudgetJSON {
	b := &BudgetJSON{}
	s.Expect('{')
	var seen uint8
	for first := true; s.More('}', first); first = false {
		switch s.Key() {
		case "max_csg_cmp_pairs":
			s.Once(&seen, 1)
			b.MaxCsgCmpPairs = s.Int()
		case "max_costed_plans":
			s.Once(&seen, 2)
			b.MaxCostedPlans = s.Int()
		default:
			s.Fail()
		}
	}
	return b
}

// jsonContentType is the Content-Type header value of every JSON
// response, shared rather than allocated per response (net/http only
// reads it).
var jsonContentType = []string{"application/json"}

// bodyBufs recycles the buffers request bodies are read into and
// responses are appended in. Buffers that grew past maxPooledBody (a
// huge batch) are dropped rather than pinned.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

const maxPooledBody = 64 << 10

// writeBody writes a 200 response appended by a wire encoder. When the
// encoder reported !ok (a non-finite number) it writes the header and
// no body, as json.Encoder does when Encode fails.
func writeBody(w http.ResponseWriter, b []byte, ok bool) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if ok {
		_, _ = w.Write(append(b, '\n'))
	}
}

// writePlanResponse renders one /plan response.
func writePlanResponse(w http.ResponseWriter, res *repro.Result, coalesced bool, elapsedMS float64, tier int, trace *TraceJSON) {
	bp := bodyBufs.Get().(*[]byte)
	e := wire{b: (*bp)[:0], ok: true}
	e.b = append(e.b, '{')
	e.planFields(res, coalesced, elapsedMS, tier, trace)
	e.b = append(e.b, '}')
	writeBody(w, e.b, e.ok)
	putBody(bp, e.b)
}

// batchResult is one /batch item before encoding: a result or an
// error text.
type batchResult struct {
	res       *repro.Result
	elapsedMS float64
	err       string
}

// writeBatchResponse renders a /batch response: BatchResponse's wire
// form, each item a PlanResponse's members or an error.
func writeBatchResponse(w http.ResponseWriter, results []batchResult) {
	bp := bodyBufs.Get().(*[]byte)
	e := wire{b: (*bp)[:0], ok: true}
	e.b = append(e.b, `{"results":[`...)
	for i, r := range results {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, '{')
		if r.res != nil {
			e.planFields(r.res, false, r.elapsedMS, 0, nil)
		}
		if r.err != "" {
			if r.res != nil {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `"error":`...)
			e.str(r.err)
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "]}"...)
	writeBody(w, e.b, e.ok)
	putBody(bp, e.b)
}

func putBody(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyBufs.Put(bp)
	}
}

// wire appends JSON the way encoding/json encodes the wire types. ok
// turns false on a value encoding/json refuses (NaN or ±Inf).
type wire struct {
	b  []byte
	ok bool
}

// planFields appends the members of a PlanResponse object, in field
// order, with its omitempty rules.
func (e *wire) planFields(res *repro.Result, coalesced bool, elapsedMS float64, tier int, trace *TraceJSON) {
	e.b = append(e.b, `"plan":`...)
	e.node(res.Plan, res.Graph)
	e.b = append(e.b, `,"cost":`...)
	e.float(res.Cost())
	e.b = append(e.b, `,"cardinality":`...)
	e.float(res.Cardinality())
	e.b = append(e.b, `,"algorithm":`...)
	e.str(res.Algorithm.String())
	e.b = append(e.b, `,"stats":`...)
	e.stats(&res.Stats)
	if coalesced {
		e.b = append(e.b, `,"coalesced":true`...)
	}
	e.b = append(e.b, `,"elapsed_ms":`...)
	e.float(elapsedMS)
	e.int(",\"pressure_tier\":", tier)
	if trace != nil {
		e.b = append(e.b, `,"trace":`...)
		e.marshal(trace)
	}
}

// node appends a plan tree as PlanNodeJSON objects. Leaves are named
// from g when it has the relation.
func (e *wire) node(n *repro.PlanNode, g *repro.Graph) {
	if n == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '{')
	if n.IsLeaf() {
		if g != nil && n.Rel >= 0 && n.Rel < g.NumRels() {
			if name := g.Relation(n.Rel).Name; name != "" {
				e.b = append(e.b, `"relation":`...)
				e.str(name)
				e.b = append(e.b, ',')
			}
		}
		e.b = append(e.b, `"rel":`...)
		e.b = strconv.AppendInt(e.b, int64(n.Rel), 10)
		e.b = append(e.b, ',')
	} else {
		if op := n.Op.String(); op != "" {
			e.b = append(e.b, `"op":`...)
			e.str(op)
			e.b = append(e.b, ',')
		}
		if n.Phys != repro.PhysNone {
			if phys := n.Phys.String(); phys != "" {
				e.b = append(e.b, `"phys":`...)
				e.str(phys)
				e.b = append(e.b, ',')
			}
		}
	}
	e.b = append(e.b, `"card":`...)
	e.float(n.Card)
	e.b = append(e.b, `,"cost":`...)
	e.float(n.Cost)
	if !n.IsLeaf() {
		if n.Left != nil {
			e.b = append(e.b, `,"left":`...)
			e.node(n.Left, g)
		}
		if n.Right != nil {
			e.b = append(e.b, `,"right":`...)
			e.node(n.Right, g)
		}
	}
	e.b = append(e.b, '}')
}

// stats appends StatsJSON's wire form.
func (e *wire) stats(st *repro.Stats) {
	e.b = append(e.b, `{"csg_cmp_pairs":`...)
	e.b = strconv.AppendInt(e.b, int64(st.CsgCmpPairs), 10)
	e.b = append(e.b, `,"costed_plans":`...)
	e.b = strconv.AppendInt(e.b, int64(st.CostedPlans), 10)
	e.flag(`,"cache_hit":true`, st.CacheHit)
	e.flag(`,"budget_exhausted":true`, st.BudgetExhausted)
	e.flag(`,"fallback_greedy":true`, st.FallbackGreedy)
	e.optStr(`,"shape":`, st.Shape)
	e.optStr(`,"routed_algorithm":`, st.RoutedAlgorithm)
	e.int(`,"workers":`, st.Workers)
	e.int(`,"subproblems":`, st.Subproblems)
	e.int(`,"rounds":`, st.Rounds)
	if st.PlanBudget > 0 {
		if ms := float64(st.PlanBudget.Microseconds()) / 1000; ms != 0 {
			e.b = append(e.b, `,"plan_budget_ms":`...)
			e.float(ms)
		}
		if ms := float64(st.PredictedCost.Microseconds()) / 1000; ms != 0 {
			e.b = append(e.b, `,"predicted_cost_ms":`...)
			e.float(ms)
		}
		e.optStr(`,"slo_rung":`, repro.SLORungName(st.SLORung))
		e.flag(`,"slo_degraded":true`, st.SLODegraded)
		e.b = append(e.b, `,"slo_met":`...)
		e.b = strconv.AppendBool(e.b, st.SLOMet)
	}
	e.b = append(e.b, '}')
}

// flag appends member (a ,"name":true literal) when set, as omitempty
// does for a bool.
func (e *wire) flag(member string, set bool) {
	if set {
		e.b = append(e.b, member...)
	}
}

// int appends prefix and v unless v is zero (omitempty).
func (e *wire) int(prefix string, v int) {
	if v != 0 {
		e.b = append(e.b, prefix...)
		e.b = strconv.AppendInt(e.b, int64(v), 10)
	}
}

// optStr appends prefix and s unless s is empty (omitempty).
func (e *wire) optStr(prefix, s string) {
	if s != "" {
		e.b = append(e.b, prefix...)
		e.str(s)
	}
}

// float appends f as encoding/json does: 'f' format, switching to 'e'
// below 1e-6 and from 1e21, with a two-digit negative exponent
// shortened ("e-07" → "e-7").
func (e *wire) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str appends a JSON string. Printable ASCII other than '"' and '\'
// is copied as is; anything that needs escaping goes to encoding/json.
func (e *wire) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			e.marshal(s)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// marshal appends v as json.NewEncoder with SetEscapeHTML(false)
// encodes it, without the trailing newline.
func (e *wire) marshal(v any) {
	buf := bytes.NewBuffer(e.b)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		e.ok = false
		return
	}
	e.b = bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})
}
