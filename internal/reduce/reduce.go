package reduce

import (
	"regsat/internal/ddg"
	"regsat/internal/schedule"
	"regsat/internal/solver"
)

// Result is the outcome of an RS reduction.
type Result struct {
	// Graph is the extended DDG Ḡ = G ∪ E̅ (equal to the input when no
	// reduction was needed).
	Graph *ddg.Graph
	// Arcs lists the added serialization arcs.
	Arcs []ddg.SerialArc
	// RS is the register saturation of the extended graph (for the exact
	// methods this equals RN_σ(G) of the driving schedule; for the
	// heuristic it is the Greedy-k estimate, re-checkable with rs.ExactBB).
	RS int
	// CPBefore and CPAfter are the critical paths of G and Ḡ; their
	// difference is the ILP loss the experiments report.
	CPBefore, CPAfter int64
	// Schedule is the register-bounded schedule driving the exact
	// construction (nil for the heuristic).
	Schedule *schedule.Schedule
	// Exact reports whether the result is proven optimal (minimal critical
	// path among extensions with RS ≤ R).
	Exact bool
	// Spill is true when no reduction to R registers exists (or none was
	// found within budget): spill code is unavoidable.
	Spill bool
	// Iterations counts heuristic rounds or exact search restarts.
	Iterations int
	// SolverStats is the MILP solve's work accounting (ExactILP only).
	SolverStats *solver.Stats
}

// unchanged wraps the no-op reduction (RS already ≤ R).
func unchanged(g *ddg.Graph, rsValue int, exact bool) *Result {
	cp := g.CriticalPath()
	return &Result{
		Graph:    g,
		RS:       rsValue,
		CPBefore: cp,
		CPAfter:  cp,
		Exact:    exact,
	}
}
