// Package solver is the MILP solving layer: every exact intLP of the paper
// (the Section 3 saturation program and the Section 4 reduction program) is
// solved through Solve.
//
// The engine (sparse.go) combines presolve, hint-derived clique cuts, sparse
// constraint storage, a dual-simplex reoptimizer, best-bound node selection
// with single-bound deltas, warm-started dives from the parent basis, and
// incumbent/cutoff seeding, in one sequential tree search. Consumers receive
// uniform Solution/Stats reporting, including the proven dual bound and
// optimality gap when a search limit is hit.
package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"regsat/internal/lp"
	"regsat/internal/obs"
)

// intTol is the integrality tolerance: an integer variable within intTol of
// an integer counts as integral, and presolve rounds integer bounds with it.
const intTol = 1e-6

// Options configures one MILP solve.
type Options struct {
	// MaxNodes caps the number of explored branch-and-bound nodes
	// (0 = default 200000).
	MaxNodes int
	// TimeLimit caps wall time (0 = none).
	TimeLimit time.Duration
	// Cutoff seeds the search with the objective value of a solution known
	// to be achievable (model sense): subtrees that cannot match it are
	// pruned before any incumbent is found. The saturation MILP is seeded
	// with Greedy-k's valid killing-function bound, the reduction MILP with
	// the heuristic reduction's makespan. Nil means no seeding.
	Cutoff *float64
	// ExclusiveCutoff strengthens the seeding: the caller asserts it already
	// HOLDS a solution achieving Cutoff, so the search looks only for
	// strictly better objectives. A solve that exhausts the tree without
	// finding one returns Solution.AtCutoff — proof that the caller's held
	// solution is optimal — without ever materializing an incumbent.
	// Ignored when Cutoff is nil.
	ExclusiveCutoff bool
	// Hints carries model structure the builder already knows (named clique
	// sets over binary variables), so the cut generator never re-derives it
	// from the matrix. The cliques are derived on demand, only for a solve
	// whose root LP did not settle it. Hints are trusted: every hinted
	// inequality must hold for every integer-feasible point of the model
	// (see Hints). Nil means no hints.
	Hints *Hints
	// DisablePresolve skips the presolve reductions
	// (the solve semantics are unchanged — presolve+postsolve is invisible
	// to callers — so this exists for differential testing and debugging).
	DisablePresolve bool
	// DisableCuts skips hint-derived cutting planes and clique propagation.
	DisableCuts bool
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	return o
}

// CutoffAt is a convenience for building Options.Cutoff values.
func CutoffAt(v float64) *float64 { return &v }

// Key renders the solve-determining fields for cache keys. The leading
// "sparse|" named the engine, and the fixed "i1e-06|p0|" segments rendered
// the integrality tolerance and the tree-search worker count, when those
// were options; all three are kept so that keys persisted in result stores
// by earlier releases stay valid.
func (o Options) Key() string {
	o = o.withDefaults()
	cut := "-"
	if o.Cutoff != nil {
		cut = fmt.Sprintf("%g", *o.Cutoff)
		if o.ExclusiveCutoff {
			cut += "!"
		}
	}
	key := fmt.Sprintf("sparse|n%d|t%s|i1e-06|p0|c%s", o.MaxNodes, o.TimeLimit, cut)
	// The debug switches are appended only when set so that keys for default
	// options — the ones persisted in result stores — stay stable across
	// releases. Hints are deliberately excluded: they change solve speed,
	// never the answer.
	if o.DisablePresolve {
		key += "|nopre"
	}
	if o.DisableCuts {
		key += "|nocuts"
	}
	return key
}

// Stats reports the work one solve performed. The JSON tags fix the wire
// schema: stats cross process boundaries through the analysis daemon's
// responses and its persistent result store, so the field names below are a
// compatibility surface (Duration serializes as nanoseconds).
type Stats struct {
	// Nodes is the number of branch-and-bound node relaxations solved (a
	// node re-solved after a numerical-trouble recovery counts twice).
	Nodes int64 `json:"nodes"`
	// SimplexIters is the total simplex iterations across all nodes and the
	// root LPs (the first root solve and its cut-separation rounds).
	SimplexIters int64 `json:"simplexIters"`
	// WarmStarts counts node solves reoptimized in place from the parent
	// basis (dives); ColdStarts counts tableaux rebuilt from scratch
	// (best-bound queue pops, periodic refactorizations, and the root when
	// cut separation stopped at a cap). The root's first solve is not
	// counted: the search adopts the solved root LP.
	WarmStarts int64 `json:"warmStarts"`
	ColdStarts int64 `json:"coldStarts"`
	// Fallbacks counts numerical-trouble recoveries: node solves that hit
	// the simplex iteration cap or produced an integer point failing the
	// check against the original rows, and were rebuilt from a fresh basis.
	// (The name predates the recovery scheme; it is a wire field.)
	Fallbacks int64 `json:"fallbacks"`
	// Incumbents counts incumbent improvements.
	Incumbents int64 `json:"incumbents"`
	// Duration is the wall time of the solve, in nanoseconds on the wire.
	Duration time.Duration `json:"durationNs"`
	// PresolveRows and PresolveCols count constraints and variables the
	// presolve pass eliminated before the search; PresolveTightenings counts
	// bound and coefficient tightenings it applied. All zero when presolve is
	// disabled.
	PresolveRows        int64 `json:"presolveRows,omitempty"`
	PresolveCols        int64 `json:"presolveCols,omitempty"`
	PresolveTightenings int64 `json:"presolveTightenings,omitempty"`
	// CutsAdded counts hint-derived clique cuts appended during root
	// separation; CutsActive counts those tight at the final incumbent.
	CutsAdded  int64 `json:"cutsAdded,omitempty"`
	CutsActive int64 `json:"cutsActive,omitempty"`
	// BranchProbes counts iteration-capped strong-branching probe solves run
	// to initialize pseudo-costs; ReliableVars counts variables whose
	// pseudo-costs had at least one observation in each direction by the end
	// of the search.
	BranchProbes int64 `json:"branchProbes,omitempty"`
	ReliableVars int64 `json:"reliableVars,omitempty"`
	// BlandIters counts simplex iterations where the anti-cycling Bland rule
	// overrode devex pricing (SimplexIters − BlandIters ran under devex).
	BlandIters int64 `json:"blandIters,omitempty"`
}

// WarmRate is the fraction of node solves served warm from the parent basis.
func (s Stats) WarmRate() float64 {
	total := s.WarmStarts + s.ColdStarts
	if total == 0 {
		return 0
	}
	return float64(s.WarmStarts) / float64(total)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Nodes += other.Nodes
	s.SimplexIters += other.SimplexIters
	s.WarmStarts += other.WarmStarts
	s.ColdStarts += other.ColdStarts
	s.Fallbacks += other.Fallbacks
	s.Incumbents += other.Incumbents
	s.Duration += other.Duration
	s.PresolveRows += other.PresolveRows
	s.PresolveCols += other.PresolveCols
	s.PresolveTightenings += other.PresolveTightenings
	s.CutsAdded += other.CutsAdded
	s.CutsActive += other.CutsActive
	s.BranchProbes += other.BranchProbes
	s.ReliableVars += other.ReliableVars
	s.BlandIters += other.BlandIters
}

// Solution is the result of a solve.
type Solution struct {
	// Status uses the lp package's vocabulary: Optimal, Infeasible,
	// Feasible (limit hit with an incumbent), Limit (limit hit with no
	// incumbent).
	Status lp.Status
	// Obj is the incumbent objective in model sense (valid for Optimal and
	// Feasible).
	Obj float64
	// X is the incumbent assignment, one entry per model variable, integer
	// variables snapped.
	X []float64
	// Bound is the best proven dual bound in model sense: for a capped solve
	// the optimum lies in the interval between Obj and Bound (the analogue
	// of rs.ExactStats.Capped reporting RS as [best found, upper bound]).
	// Equal to Obj when Status is Optimal.
	Bound float64
	// Gap is |Obj − Bound| (0 when optimality was proved).
	Gap float64
	// Capped reports that a node/time/context limit stopped the search.
	Capped bool
	// AtCutoff reports that no solution strictly better than the exclusive
	// Options.Cutoff exists (Status Optimal) or was found before a limit
	// (Status Feasible). Obj then equals the cutoff and X is nil — the
	// caller's own solution achieving the cutoff stands.
	AtCutoff bool
	// Stats is the work accounting of the solve.
	Stats Stats
}

// Value returns the solution value of v.
func (s *Solution) Value(v lp.Var) float64 { return s.X[v] }

// IntValue returns the solution value of v as an int64.
func (s *Solution) IntValue(v lp.Var) int64 { return int64(math.Round(s.X[v])) }

// Feasible reports whether the solution carries a usable assignment.
func (s *Solution) Feasible() bool {
	return s.Status == lp.StatusOptimal || s.Status == lp.StatusFeasible
}

// Solve solves m. It honors context cancellation inside an in-flight solve
// (simplex iterations included), returning the best solution found so far
// together with ctx.Err(), and is safe for concurrent calls on distinct
// models. A model the engine cannot start from a dual-feasible basis — a
// cost-bearing variable without a finite bound on its improving side, or a
// free variable — is rejected with an error naming the variable.
//
// On a traced context the solve gets its own span whose event timeline is
// the search telemetry (presolve reductions, cut rounds, dives, incumbents,
// refactorizations, recoveries) and whose attributes summarize the finished
// solve's Stats — for an untraced context the whole layer is nil checks.
func Solve(ctx context.Context, m *lp.Model, opt Options) (*Solution, error) {
	opt = opt.withDefaults()
	ctx, sp := obs.StartSpan(ctx, "solver.solve",
		obs.Int("vars", int64(m.NumVars())),
		obs.Int("constrs", int64(m.NumConstrs())))
	sol, err := solve(ctx, m, opt)
	if sol != nil {
		sp.SetAttr(
			obs.Str("status", sol.Status.String()),
			obs.Bool("capped", sol.Capped),
			obs.Int("nodes", sol.Stats.Nodes),
			obs.Int("simplexIters", sol.Stats.SimplexIters),
			obs.Int("warmStarts", sol.Stats.WarmStarts),
			obs.Int("coldStarts", sol.Stats.ColdStarts),
			obs.Int("incumbents", sol.Stats.Incumbents),
			obs.Int("fallbacks", sol.Stats.Fallbacks),
		)
	}
	if err != nil {
		sp.SetAttr(obs.Str("err", err.Error()))
	}
	sp.End()
	return sol, err
}
