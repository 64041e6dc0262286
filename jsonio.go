package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/hypergraph"
	"repro/internal/jsonscan"
	"repro/internal/optree"
)

// QueryJSON is the on-disk query format shared by cmd/joinorder and
// cmd/querygen. A query is either a hypergraph (Relations + Edges) or an
// initial operator tree (Relations + Tree) for non-inner-join queries.
//
// Documents in a canonical JSON subset decode without reflection (see
// DecodeQueryJSON). The rule for every such fast path: it declines
// whatever it cannot decode exactly as encoding/json does, and
// encoding/json then decodes that input, so values and error texts are
// always encoding/json's. The serving layer's response encoder follows
// the same rule for output: its bytes equal encoding/json's.
type QueryJSON struct {
	Relations []RelationJSON `json:"relations"`
	Edges     []EdgeJSON     `json:"edges,omitempty"`
	Tree      *TreeJSON      `json:"tree,omitempty"`
}

// RelationJSON describes one relation.
type RelationJSON struct {
	Name string  `json:"name"`
	Card float64 `json:"card"`
	Free []int   `json:"free,omitempty"` // dependent table references
}

// EdgeJSON describes one (possibly generalized) hyperedge.
type EdgeJSON struct {
	Left  []int   `json:"left"`
	Right []int   `json:"right"`
	Free  []int   `json:"free,omitempty"`
	Sel   float64 `json:"sel"`
	Op    string  `json:"op,omitempty"` // defaults to "join"
	Label string  `json:"label,omitempty"`
}

// TreeJSON describes one initial-operator-tree node.
type TreeJSON struct {
	Rel   *int      `json:"rel,omitempty"` // leaf
	Op    string    `json:"op,omitempty"`  // operator node
	Left  *TreeJSON `json:"left,omitempty"`
	Right *TreeJSON `json:"right,omitempty"`
	Pred  []int     `json:"pred,omitempty"` // tables the predicate references
	Sel   float64   `json:"sel,omitempty"`
	Label string    `json:"label,omitempty"`
}

// ParseQuery decodes a QueryJSON document. Documents in the canonical
// subset (see DecodeQueryJSON) decode without reflection; any other
// input goes to encoding/json, so its values and error texts are
// encoding/json's own.
func ParseQuery(data []byte) (*QueryJSON, error) {
	src := string(data)
	if q, n, ok := DecodeQueryJSON(src); ok && strings.TrimLeft(src[n:], " \t\n\r") == "" {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		return q, nil
	}
	var q QueryJSON
	if err := json.Unmarshal(data, &q); err != nil {
		return nil, fmt.Errorf("repro: parsing query: %w", err)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &q, nil
}

// DecodeQueryJSON decodes the query document at the start of src
// without reflection, returning it with the number of bytes it
// consumed; what follows the document is left to the caller. It
// accepts only the canonical subset: exact-case known keys, no key
// twice, no null, strings of printable ASCII without escapes,
// JSON-grammar numbers, and plain integers for the index lists. On
// anything else ok is false, and the caller decodes the input with
// encoding/json instead — so an accepted document decodes to exactly
// the value json.Unmarshal produces (empty lists stay non-nil, absent
// ones nil), and every rejected one keeps encoding/json's result and
// error text. The decoded strings share one copy of src.
func DecodeQueryJSON(src string) (q *QueryJSON, n int, ok bool) {
	d := queryDecoder{s: jsonscan.New(src)}
	q = d.query()
	if !d.s.OK() {
		return nil, 0, false
	}
	return q, d.s.Pos(), true
}

// maxTreeDepth bounds the operator-tree nesting DecodeQueryJSON
// recurses into; deeper documents are left to encoding/json, whose own
// limit is 10 000 levels of JSON nesting.
const maxTreeDepth = 512

// queryDecoder decodes one document for DecodeQueryJSON.
type queryDecoder struct {
	s     jsonscan.Scanner
	ints  []int // backing store the document's index lists are cut from
	depth int
}

func (d *queryDecoder) query() *QueryJSON {
	if !d.s.Expect('{') {
		return nil
	}
	q := &QueryJSON{}
	var seen uint8
	for first := true; d.s.More('}', first); first = false {
		switch d.s.Key() {
		case "relations":
			d.s.Once(&seen, 1)
			q.Relations = d.relations()
		case "edges":
			d.s.Once(&seen, 2)
			q.Edges = d.edges()
		case "tree":
			d.s.Once(&seen, 4)
			q.Tree = d.tree()
		default:
			d.s.Fail()
		}
	}
	return q
}

func (d *queryDecoder) relations() []RelationJSON {
	if !d.s.Expect('[') {
		return nil
	}
	var buf [16]RelationJSON
	rels := buf[:0]
	for first := true; d.s.More(']', first); first = false {
		var r RelationJSON
		var seen uint8
		d.s.Expect('{')
		for f := true; d.s.More('}', f); f = false {
			switch d.s.Key() {
			case "name":
				d.s.Once(&seen, 1)
				r.Name = d.s.Str()
			case "card":
				d.s.Once(&seen, 2)
				r.Card = d.s.Float()
			case "free":
				d.s.Once(&seen, 4)
				r.Free = d.intList()
			default:
				d.s.Fail()
			}
		}
		rels = append(rels, r)
	}
	return append(make([]RelationJSON, 0, len(rels)), rels...)
}

func (d *queryDecoder) edges() []EdgeJSON {
	if !d.s.Expect('[') {
		return nil
	}
	var buf [16]EdgeJSON
	edges := buf[:0]
	for first := true; d.s.More(']', first); first = false {
		var e EdgeJSON
		var seen uint8
		d.s.Expect('{')
		for f := true; d.s.More('}', f); f = false {
			switch d.s.Key() {
			case "left":
				d.s.Once(&seen, 1)
				e.Left = d.intList()
			case "right":
				d.s.Once(&seen, 2)
				e.Right = d.intList()
			case "free":
				d.s.Once(&seen, 4)
				e.Free = d.intList()
			case "sel":
				d.s.Once(&seen, 8)
				e.Sel = d.s.Float()
			case "op":
				d.s.Once(&seen, 16)
				e.Op = d.s.Str()
			case "label":
				d.s.Once(&seen, 32)
				e.Label = d.s.Str()
			default:
				d.s.Fail()
			}
		}
		edges = append(edges, e)
	}
	return append(make([]EdgeJSON, 0, len(edges)), edges...)
}

func (d *queryDecoder) tree() *TreeJSON {
	if d.depth == maxTreeDepth || !d.s.Expect('{') {
		d.s.Fail()
		return nil
	}
	d.depth++
	defer func() { d.depth-- }()
	t := &TreeJSON{}
	var seen uint8
	for first := true; d.s.More('}', first); first = false {
		switch d.s.Key() {
		case "rel":
			d.s.Once(&seen, 1)
			rel := d.s.Int()
			t.Rel = &rel
		case "op":
			d.s.Once(&seen, 2)
			t.Op = d.s.Str()
		case "left":
			d.s.Once(&seen, 4)
			t.Left = d.tree()
		case "right":
			d.s.Once(&seen, 8)
			t.Right = d.tree()
		case "pred":
			d.s.Once(&seen, 16)
			t.Pred = d.intList()
		case "sel":
			d.s.Once(&seen, 32)
			t.Sel = d.s.Float()
		case "label":
			d.s.Once(&seen, 64)
			t.Label = d.s.Str()
		default:
			d.s.Fail()
		}
	}
	return t
}

// intList decodes an array of integers. The lists of one document are
// cut, capacity-capped, from shared chunks: appending to one copies it
// instead of overwriting its neighbour.
func (d *queryDecoder) intList() []int {
	if !d.s.Expect('[') {
		return nil
	}
	start := len(d.ints)
	for first := true; d.s.More(']', first); first = false {
		v := d.s.Int()
		if len(d.ints) == cap(d.ints) {
			chunk := make([]int, 0, max(64, 2*(len(d.ints)-start+1)))
			d.ints = append(chunk, d.ints[start:]...)
			start = 0
		}
		d.ints = append(d.ints, v)
	}
	if len(d.ints) == start {
		return []int{}
	}
	return d.ints[start:len(d.ints):len(d.ints)]
}

// Validate checks the document's structural invariants: at least one
// relation, and exactly one of edges (hypergraph document) or a tree
// (operator-tree document). ParseQuery applies it after decoding;
// servers decoding documents through other paths call it directly.
func (q *QueryJSON) Validate() error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("repro: query has no relations")
	}
	if q.Tree == nil && len(q.Edges) == 0 {
		return fmt.Errorf("repro: query needs edges or a tree")
	}
	if q.Tree != nil && len(q.Edges) > 0 {
		return fmt.Errorf("repro: query cannot have both edges and a tree")
	}
	return nil
}

// OptimizeJSON analyzes and optimizes a decoded query via the default
// Planner (see DefaultPlanner).
func OptimizeJSON(q *QueryJSON, opts ...Option) (*Result, error) {
	return DefaultPlanner().PlanJSON(context.Background(), q, opts...)
}

// PlanJSON analyzes and optimizes a decoded QueryJSON document under
// the planner's policy: a hypergraph document is (re)paired for
// connectivity and enumerated, a tree document goes through conflict
// analysis first. Cancellation, budgets, the plan cache, and the Greedy
// fallback all apply as in Plan.
func (p *Planner) PlanJSON(ctx context.Context, q *QueryJSON, opts ...Option) (*Result, error) {
	if q.Tree != nil {
		return p.planJSONTree(ctx, q, opts)
	}
	return p.planJSONGraph(ctx, q, opts)
}

// BuildQuery materializes a hypergraph document as a *Query, ready for
// Planner.Plan. It fails on tree documents (those carry conflict-
// analysis state that only PlanJSON can derive) and on malformed
// relations or edges. The connectivity repair is not applied here: it
// runs, once, on the query's first planning call — so the graph (and
// its Fingerprint) observed between BuildQuery and Plan is exactly the
// document's own. Servers use this to key request coalescing by the
// graph fingerprint before committing a worker to the enumeration.
func (q *QueryJSON) BuildQuery() (*Query, error) {
	if q.Tree != nil {
		return nil, fmt.Errorf("repro: tree documents cannot build a hypergraph query directly; use PlanJSON")
	}
	g := hypergraph.NewSized(len(q.Relations), len(q.Edges))
	var err error
	catch(&err, func() {
		for i, r := range q.Relations {
			g.AddRelation(r.Name, r.Card)
			if len(r.Free) > 0 {
				g.SetFree(i, bitset.New(r.Free...))
			}
		}
		for _, e := range q.Edges {
			op := algebra.Join
			if e.Op != "" {
				var perr error
				op, perr = algebra.ParseOp(e.Op)
				if perr != nil {
					panic(perr)
				}
			}
			g.AddEdge(hypergraph.Edge{
				U: bitset.New(e.Left...), V: bitset.New(e.Right...),
				W: bitset.New(e.Free...), Sel: e.Sel, Op: op, Label: e.Label,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return &Query{g: g}, nil
}

func (p *Planner) planJSONGraph(ctx context.Context, q *QueryJSON, opts []Option) (*Result, error) {
	qq, err := q.BuildQuery()
	if err != nil {
		return nil, p.fail(err)
	}
	return p.Plan(ctx, qq, opts...)
}

func (p *Planner) planJSONTree(ctx context.Context, q *QueryJSON, opts []Option) (*Result, error) {
	o := p.merged(opts)
	o.ctx = ctx
	rels := make([]optree.RelInfo, len(q.Relations))
	for i, r := range q.Relations {
		rels[i] = optree.RelInfo{Name: r.Name, Card: r.Card, Free: bitset.New(r.Free...)}
	}
	root, err := buildTreeJSON(q.Tree)
	if err != nil {
		return nil, p.fail(err)
	}
	tr, err := optree.Analyze(root, rels, o.rule)
	if err != nil {
		return nil, p.fail(err)
	}
	if o.genAndTest {
		g := tr.Hypergraph(optree.SESEdges)
		return p.planGraph(ctx, g, o, tr.Filter(g))
	}
	return p.planGraph(ctx, tr.Hypergraph(optree.TESEdges), o, nil)
}

func buildTreeJSON(n *TreeJSON) (*optree.Node, error) {
	if n == nil {
		return nil, fmt.Errorf("repro: nil tree node")
	}
	if n.Rel != nil {
		return optree.NewLeaf(*n.Rel), nil
	}
	op, err := algebra.ParseOp(n.Op)
	if err != nil {
		return nil, err
	}
	l, err := buildTreeJSON(n.Left)
	if err != nil {
		return nil, err
	}
	r, err := buildTreeJSON(n.Right)
	if err != nil {
		return nil, err
	}
	return optree.NewOp(op, l, r, optree.Predicate{
		Tables: bitset.New(n.Pred...),
		Sel:    n.Sel,
		Label:  n.Label,
	}), nil
}

func catch(err *error, f func()) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				*err = e
				return
			}
			*err = fmt.Errorf("repro: %v", r)
		}
	}()
	f()
}
