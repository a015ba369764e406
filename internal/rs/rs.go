package rs

import (
	"context"
	"fmt"

	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/schedule"
	"regsat/internal/solver"
)

// Method selects how the saturation is computed.
type Method int

const (
	// MethodGreedy is the near-optimal Greedy-k heuristic of [14]
	// (polynomial; may under-estimate RS, empirically by at most one).
	MethodGreedy Method = iota
	// MethodExactBB is the exact combinatorial branch-and-bound over valid
	// killing functions.
	MethodExactBB
	// MethodExactILP is the paper's Section 3 intLP formulation solved with
	// the in-repo MILP solver.
	MethodExactILP
)

func (m Method) String() string {
	switch m {
	case MethodGreedy:
		return "greedy-k"
	case MethodExactBB:
		return "exact-bb"
	default:
		return "exact-intlp"
	}
}

// Options configures Compute.
type Options struct {
	Method Method
	// MaxLeaves caps the exact-BB search (0 = default).
	MaxLeaves int64
	// ApplyReductions enables the Section 3 model optimizations for the
	// intLP method.
	ApplyReductions bool
	// Solver bounds the MILP solve of the intLP method (zero value:
	// default limits).
	Solver solver.Options
	// SkipWitness suppresses the construction of a saturating schedule.
	SkipWitness bool
}

// Result is the register saturation of one register type.
type Result struct {
	Type ddg.RegType
	// RS is the computed saturation: exact when Exact, otherwise a valid
	// achievable lower bound RS* ≤ RS.
	RS int
	// Antichain lists the saturating values (node IDs): a set of values
	// that some schedule keeps simultaneously alive.
	Antichain []int
	// Exact reports whether RS is proven maximal.
	Exact bool
	// Witness is a valid schedule of G realizing RS simultaneously-alive
	// values (nil if SkipWitness).
	Witness *schedule.Schedule
	// Killing is the killing function behind the result (nil for intLP).
	Killing *Killing
	// ILP carries intLP model info when MethodExactILP ran.
	ILP *ILPInfo
	// ILPUpperBound is the solver's proven upper bound when MethodExactILP
	// was capped: the true RS lies in [RS, ILPUpperBound]. Equal to RS when
	// Exact.
	ILPUpperBound int
	// SolverStats is the MILP solve's work accounting (intLP method only).
	SolverStats *solver.Stats
	// BBStats is the combinatorial search's work accounting (MethodExactBB
	// only). On a capped search the true RS lies in
	// [RS, BBStats.UpperBound] — the same interval reporting SolverStats
	// gives for capped MILP solves.
	BBStats *ExactStats
}

// Compute computes the register saturation RS_t(G) using the selected
// method. The graph must be finalized. Cancelling ctx interrupts an
// in-flight exact solve (the intLP method checks it inside simplex
// iterations, so batch cancellation does not wait out a long MILP).
func Compute(ctx context.Context, g *ddg.Graph, t ddg.RegType, opts Options) (*Result, error) {
	an, err := NewAnalysis(g, t)
	if err != nil {
		return nil, err
	}
	return ComputeWithAnalysis(ctx, an, opts)
}

// ComputeWithAnalysis is Compute with a prebuilt Analysis (to share it
// across methods, as the experiments do).
func ComputeWithAnalysis(ctx context.Context, an *Analysis, opts Options) (*Result, error) {
	if len(an.Values) == 0 {
		return &Result{Type: an.Type, RS: 0, Exact: true}, nil
	}
	switch opts.Method {
	case MethodGreedy:
		res, err := Greedy(an)
		if err != nil {
			return nil, err
		}
		return finishCombinatorial(an, res, false, opts)
	case MethodExactBB:
		res, stats, err := ExactBB(an, opts.MaxLeaves)
		if err != nil {
			return nil, err
		}
		out, err := finishCombinatorial(an, res, !stats.Capped, opts)
		if err != nil {
			return nil, err
		}
		out.BBStats = stats
		return out, nil
	case MethodExactILP:
		ires, err := exactILP(ctx, an, opts.ApplyReductions, opts.Solver, !opts.SkipWitness)
		if err != nil {
			return nil, err
		}
		stats := ires.Stats
		out := &Result{
			Type:          an.Type,
			RS:            ires.RS,
			Antichain:     ires.Antichain,
			Exact:         ires.Exact,
			ILP:           ires.Info,
			ILPUpperBound: ires.UpperBound,
			SolverStats:   &stats,
		}
		if !opts.SkipWitness {
			out.Witness = ires.Witness
		}
		return out, nil
	default:
		return nil, fmt.Errorf("rs: unknown method %d", opts.Method)
	}
}

func finishCombinatorial(an *Analysis, res *RSResult, exact bool, opts Options) (*Result, error) {
	out := &Result{
		Type:      an.Type,
		RS:        res.RS,
		Antichain: res.Antichain,
		Exact:     exact,
		Killing:   res.Killing,
	}
	if !opts.SkipWitness {
		w, err := SaturatingSchedule(res)
		if err != nil {
			return nil, err
		}
		out.Witness = w
	}
	return out, nil
}

// ComputeAll computes the saturation of every register type of the graph,
// all over one snapshot.
func ComputeAll(ctx context.Context, g *ddg.Graph, opts Options) (map[ddg.RegType]*Result, error) {
	snap, err := ir.Build(g)
	if err != nil {
		return nil, fmt.Errorf("rs: %w", err)
	}
	out := map[ddg.RegType]*Result{}
	for _, t := range snap.Types {
		an, err := NewAnalysisIR(snap, t)
		if err != nil {
			return nil, err
		}
		r, err := ComputeWithAnalysis(ctx, an, opts)
		if err != nil {
			return nil, err
		}
		out[t] = r
	}
	return out, nil
}
