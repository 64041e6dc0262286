package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro"
	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/oracle"
	"repro/service"
)

// costTolerance is the relative difference under which two plan costs
// count as equal. The planner and this file multiply the same
// cardinalities and selectivities in different orders, so equal plans
// can differ in the last bits of a float64; any real difference in plan
// quality is many orders of magnitude larger.
const costTolerance = 1e-9

func sameCost(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= costTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// ptree is a returned plan reduced to what the check needs: leaves
// carry a relation index, inner nodes two children.
type ptree struct {
	rel         int
	left, right *ptree
}

func fromPlan(n *repro.PlanNode) *ptree {
	if n.Left == nil && n.Right == nil {
		return &ptree{rel: n.Rel}
	}
	if n.Left == nil || n.Right == nil {
		return nil
	}
	l, r := fromPlan(n.Left), fromPlan(n.Right)
	if l == nil || r == nil {
		return nil
	}
	return &ptree{rel: -1, left: l, right: r}
}

func fromWire(n *service.PlanNodeJSON) *ptree {
	if n.Left == nil && n.Right == nil {
		if n.Rel == nil {
			return nil
		}
		return &ptree{rel: *n.Rel}
	}
	if n.Left == nil || n.Right == nil {
		return nil
	}
	l, r := fromWire(n.Left), fromWire(n.Right)
	if l == nil || r == nil {
		return nil
	}
	return &ptree{rel: -1, left: l, right: r}
}

// checkPlan verifies that t covers every relation of doc exactly once
// and that its C_out cost, recomputed bottom-up from the document's
// cardinalities and selectivities, equals the cost the program returned.
func checkPlan(doc *repro.QueryJSON, t *ptree, returned float64) error {
	if t == nil {
		return fmt.Errorf("malformed plan tree")
	}
	edges := make([]bitset.Set, len(doc.Edges))
	for i, e := range doc.Edges {
		edges[i] = bitset.New(e.Left...).Union(bitset.New(e.Right...)).Union(bitset.New(e.Free...))
	}
	rels, _, got, err := recost(doc, edges, t)
	if err != nil {
		return err
	}
	if rels.Len() != len(doc.Relations) {
		return fmt.Errorf("plan covers %d of %d relations", rels.Len(), len(doc.Relations))
	}
	if !sameCost(got, returned) {
		return fmt.Errorf("plan recosts to %g, program returned %g", got, returned)
	}
	return nil
}

// recost returns the relations t covers, its cardinality and its C_out
// cost: the sum of the cardinalities of all joins. A join's cardinality
// is the product of its inputs' and of the selectivities of the edges
// it is the first to cover completely.
func recost(doc *repro.QueryJSON, edges []bitset.Set, t *ptree) (bitset.Set, float64, float64, error) {
	if t.rel >= 0 {
		if t.rel >= len(doc.Relations) {
			return bitset.Set{}, 0, 0, fmt.Errorf("plan leaf names relation %d of %d", t.rel, len(doc.Relations))
		}
		return bitset.Single(t.rel), doc.Relations[t.rel].Card, 0, nil
	}
	ls, lc, lcost, err := recost(doc, edges, t.left)
	if err != nil {
		return ls, 0, 0, err
	}
	rs, rc, rcost, err := recost(doc, edges, t.right)
	if err != nil {
		return rs, 0, 0, err
	}
	if ls.Overlaps(rs) {
		return ls, 0, 0, fmt.Errorf("plan covers a relation twice")
	}
	s := ls.Union(rs)
	card := lc * rc
	for i, e := range edges {
		if e.SubsetOf(s) && !e.SubsetOf(ls) && !e.SubsetOf(rs) {
			card *= doc.Edges[i].Sel
		}
	}
	return s, card, lcost + rcost + card, nil
}

// exact reports whether a must return a cost-optimal plan.
func exact(a repro.Algorithm) bool {
	switch a {
	case repro.DPhyp, repro.DPsize, repro.DPsub, repro.DPccp, repro.TopDown:
		return true
	}
	return false
}

// reference is the optimal cost an input's plans are held to.
type reference struct {
	cost float64 // optimal cost; 0 when the input has none
	has  bool
}

// maxReferenceRels bounds the inputs that get a reference: the oracle
// up to 10 relations, an explicit DPhyp plan from 11 to this bound. The
// 65–98-relation tier is checked for coverage and cost only.
const maxReferenceRels = 24

// references computes the reference cost of each input index in use,
// on two goroutines, untimed.
func references(ctx context.Context, ins []input, use []bool) ([]reference, error) {
	refs := make([]reference, len(ins))
	dphyp := repro.NewPlanner(repro.WithAlgorithm(repro.DPhyp), repro.WithPlanCacheSize(0), repro.WithParallelism(1))
	next := make(chan int)
	errs := make([]error, len(ins))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = referenceOf(ctx, dphyp, ins[i])
			}
		}()
	}
	for i := range ins {
		if use[i] {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference for input %d (%s, %d relations): %w", i, ins[i].Family, ins[i].N, err)
		}
	}
	return refs, nil
}

func referenceOf(ctx context.Context, dphyp *repro.Planner, in input) (reference, error) {
	switch {
	case in.N <= 10:
		q, err := in.Doc.BuildQuery()
		if err != nil {
			return reference{}, err
		}
		p, err := oracle.Optimal(q.Graph(), cost.Cout{})
		if err != nil {
			return reference{}, err
		}
		return reference{cost: p.Cost, has: true}, nil
	case in.N <= maxReferenceRels:
		res, err := dphyp.PlanJSON(ctx, in.Doc)
		if err != nil {
			return reference{}, err
		}
		return reference{cost: res.Cost(), has: true}, nil
	}
	return reference{}, nil
}

// docState is what the ops on one input returned.
type docState struct {
	ops  int32
	alg  repro.Algorithm
	cost float64
	hash uint64 // FNV-1a of the verified wire plan (serve only)
}

// tally records a run's ops in storage allocated before timing starts,
// so that recording allocates nothing the heap metric would count:
// one latency per op, and per input the cost and algorithm its ops
// returned. Inputs are planned deterministically, so an op whose cost
// or algorithm differs from an earlier op on the same input is wrong.
//
// segs cuts lats into segments: segment k is lats[segs[k]:segs[k+1]],
// the last one ending at len(lats).
type tally struct {
	docs     []docState
	lats     []time.Duration
	segs     []int
	failed   int
	failures []string
}

func newTally(docs, maxOps int) *tally {
	return &tally{docs: make([]docState, docs), lats: make([]time.Duration, 0, maxOps), segs: make([]int, 1, 1024)}
}

// cut ends the current segment.
func (t *tally) cut() { t.segs = append(t.segs, len(t.lats)) }

// segment returns the latencies of segment k.
func (t *tally) segment(k int) []time.Duration {
	end := len(t.lats)
	if k+1 < len(t.segs) {
		end = t.segs[k+1]
	}
	return t.lats[t.segs[k]:end]
}

// complete returns the segments that ended on a cut.
func (t *tally) complete() [][]time.Duration {
	var segs [][]time.Duration
	for k := 0; k+1 < len(t.segs); k++ {
		segs = append(segs, t.segment(k))
	}
	return segs
}

// full reports whether the latency store has no room for another op.
func (t *tally) full() bool { return len(t.lats) == cap(t.lats) }

// record stores one op on input d. err is the op's failure, if any.
func (t *tally) record(ins []input, d int, lat time.Duration, cost float64, alg repro.Algorithm, err error) {
	t.lats = append(t.lats, lat)
	if err == nil {
		ds := &t.docs[d]
		switch {
		case ds.ops == 0:
			ds.cost, ds.alg = cost, alg
		case !sameCost(ds.cost, cost) || ds.alg != alg:
			err = fmt.Errorf("%s plan costs %g, an earlier call returned %s at %g", alg, cost, ds.alg, ds.cost)
		}
		if err == nil {
			ds.ops++
			return
		}
	}
	t.fail(ins, d, 1, err)
}

func (t *tally) fail(ins []input, d, ops int, err error) {
	t.failed += ops
	if len(t.failures) < 10 {
		t.failures = append(t.failures, fmt.Sprintf("input %d (%s, %d relations): %v", d, ins[d].Family, ins[d].N, err))
	}
}

// merge folds u's ops into t.
func (t *tally) merge(ins []input, u *tally) {
	t.lats = append(t.lats, u.lats...)
	t.failed += u.failed
	for _, f := range u.failures {
		if len(t.failures) < 10 {
			t.failures = append(t.failures, f)
		}
	}
	for d := range u.docs {
		ud, td := &u.docs[d], &t.docs[d]
		switch {
		case ud.ops == 0:
		case td.ops == 0:
			*td = *ud
		case !sameCost(td.cost, ud.cost) || td.alg != ud.alg:
			t.fail(ins, d, int(ud.ops), fmt.Errorf("two connections got plans costing %g and %g", td.cost, ud.cost))
		default:
			td.ops += ud.ops
		}
	}
}

// used marks the inputs at least one op planned successfully.
func (t *tally) used() []bool {
	use := make([]bool, len(t.docs))
	for d := range t.docs {
		use[d] = t.docs[d].ops > 0
	}
	return use
}

// settle checks every input's returned cost against its reference
// (and, when lib is non-nil, against the library plan's cost) and
// returns plan_cost_ratio: the geometric mean, over ops whose input has
// a reference, of returned ÷ reference cost.
func (t *tally) settle(ins []input, refs []reference, lib []float64) float64 {
	var logSum float64
	var n int
	for d := range t.docs {
		ds := &t.docs[d]
		if ds.ops == 0 {
			continue
		}
		if lib != nil && !sameCost(ds.cost, lib[d]) {
			t.fail(ins, d, int(ds.ops), fmt.Errorf("served cost %g, library plan costs %g", ds.cost, lib[d]))
			continue
		}
		ref := refs[d]
		if !ref.has {
			continue
		}
		if exact(ds.alg) && !sameCost(ds.cost, ref.cost) {
			t.fail(ins, d, int(ds.ops), fmt.Errorf("%s returned cost %g, optimum is %g", ds.alg, ds.cost, ref.cost))
			continue
		}
		logSum += float64(ds.ops) * math.Log(ds.cost/ref.cost)
		n += int(ds.ops)
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}
