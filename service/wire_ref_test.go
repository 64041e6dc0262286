package service

import (
	"repro"
)

// The reflection renderers the wire encoder replaced, kept as the
// reference its output must equal byte for byte.

// planNodeJSON renders a plan tree for the wire. names maps relation
// indexes to names; it may be nil (tools planning anonymous graphs).
func planNodeJSON(n *repro.PlanNode, names func(int) string) *PlanNodeJSON {
	if n == nil {
		return nil
	}
	out := &PlanNodeJSON{Card: n.Card, Cost: n.Cost}
	if n.IsLeaf() {
		rel := n.Rel
		out.Rel = &rel
		if names != nil {
			out.Relation = names(rel)
		}
		return out
	}
	out.Op = n.Op.String()
	if n.Phys != repro.PhysNone {
		out.Phys = n.Phys.String()
	}
	out.Left = planNodeJSON(n.Left, names)
	out.Right = planNodeJSON(n.Right, names)
	return out
}

// planResponse renders a planning result for the wire.
func planResponse(res *repro.Result, coalesced bool, elapsedMS float64) *PlanResponse {
	var names func(int) string
	if res.Graph != nil {
		g := res.Graph
		names = func(i int) string {
			if i >= 0 && i < g.NumRels() {
				return g.Relation(i).Name
			}
			return ""
		}
	}
	st := res.Stats
	sj := StatsJSON{
		CsgCmpPairs:     st.CsgCmpPairs,
		CostedPlans:     st.CostedPlans,
		CacheHit:        st.CacheHit,
		BudgetExhausted: st.BudgetExhausted,
		FallbackGreedy:  st.FallbackGreedy,
		Shape:           st.Shape,
		RoutedAlgorithm: st.RoutedAlgorithm,
		Workers:         st.Workers,
		Subproblems:     st.Subproblems,
		Rounds:          st.Rounds,
	}
	if st.PlanBudget > 0 {
		sj.PlanBudgetMS = float64(st.PlanBudget.Microseconds()) / 1000
		sj.PredictedCostMS = float64(st.PredictedCost.Microseconds()) / 1000
		sj.SLORung = repro.SLORungName(st.SLORung)
		sj.SLODegraded = st.SLODegraded
		met := st.SLOMet
		sj.SLOMet = &met
	}
	return &PlanResponse{
		Plan:        planNodeJSON(res.Plan, names),
		Cost:        res.Cost(),
		Cardinality: res.Cardinality(),
		Algorithm:   res.Algorithm.String(),
		Stats:       sj,
		Coalesced:   coalesced,
		ElapsedMS:   elapsedMS,
	}
}
