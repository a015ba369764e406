package experiments

import (
	"context"
	"fmt"
	"time"

	"regsat/internal/ddg"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// SolverCase is one (graph, type) instance of the solver benchmark.
type SolverCase struct {
	Name   string
	Graph  *ddg.Graph
	Type   ddg.RegType
	Values int
	// ExactRS is the combinatorial reference the solve is checked against.
	ExactRS int
	// Row is the MILP solve of the instance.
	Row SolverRow
}

// SolverRow is the MILP solve of one instance.
type SolverRow struct {
	RS int
	// UpperBound is the proven upper bound: a capped solve (Exact false)
	// brackets the saturation in [RS, UpperBound].
	UpperBound int
	Exact      bool
	Nodes      int64
	Iters      int64
	WarmRate   float64
	Elapsed    time.Duration
	Err        error
	// Stats is the solve's full work accounting (presolve, cuts, branching
	// probes, recoveries) for instrumented reports.
	Stats solver.Stats
}

// agrees reports whether the solve is consistent with the exact-BB
// reference: a proven RS must equal it, a capped interval must contain it.
func (r SolverRow) agrees(exactRS int) bool {
	if r.Exact {
		return r.RS == exactRS
	}
	return r.RS <= exactRS && exactRS <= r.UpperBound
}

// SolverBenchSummary aggregates the solver benchmark (rsbench -exp solver).
type SolverBenchSummary struct {
	Cases     []SolverCase
	Skipped   int // instances above the value budget
	Disagree  int // solves inconsistent with the exact-BB reference
	TotalTime time.Duration
}

// SolverBench solves the Section 3 intLP of every (graph, type) instance of
// the given corpus graphs and records nodes explored, simplex iterations,
// warm-start rate, and wall clock, verifying each solve against the
// combinatorial exact search: a proven RS must match it and a capped
// solve's interval must contain it. Instances with more than maxValues
// values are skipped (the exactness budget).
func SolverBench(ctx context.Context, graphs []*ddg.Graph, names []string, maxValues int, opt solver.Options) (*SolverBenchSummary, error) {
	if maxValues <= 0 {
		maxValues = 12
	}
	sum := &SolverBenchSummary{}
	for gi, g := range graphs {
		name := g.Name
		if gi < len(names) && names[gi] != "" {
			name = names[gi]
		}
		for _, t := range g.Types() {
			an, err := rs.NewAnalysis(g, t)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, t, err)
			}
			if len(an.Values) == 0 {
				continue
			}
			if len(an.Values) > maxValues {
				sum.Skipped++
				continue
			}
			ref, _, err := rs.ExactBB(an, 0)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: exact-bb: %w", name, t, err)
			}
			start := time.Now()
			ires, err := rs.ExactILP(ctx, an, true, opt)
			row := SolverRow{Elapsed: time.Since(start), Err: err}
			if err == nil {
				row.RS = ires.RS
				row.UpperBound = ires.UpperBound
				row.Exact = ires.Exact
				row.Nodes = ires.Stats.Nodes
				row.Iters = ires.Stats.SimplexIters
				row.WarmRate = ires.Stats.WarmRate()
				row.Stats = ires.Stats
				if !row.agrees(ref.RS) {
					sum.Disagree++
				}
			}
			sum.TotalTime += row.Elapsed
			sum.Cases = append(sum.Cases, SolverCase{
				Name:    fmt.Sprintf("%s/%s", name, t),
				Graph:   g,
				Type:    t,
				Values:  len(an.Values),
				ExactRS: ref.RS,
				Row:     row,
			})
		}
	}
	return sum, nil
}

// Report renders the solver benchmark table.
func (s *SolverBenchSummary) Report() string {
	out := "MILP solver on the corpus (reference: exact-bb over killing functions)\n\n"
	t := NewTable("case", "|VR|", "RS", "ILP", "nodes", "simplex", "warm%", "time", "status")
	for _, c := range s.Cases {
		r := c.Row
		ilp := fmt.Sprintf("%d", r.RS)
		if !r.Exact {
			ilp = fmt.Sprintf("[%d,%d]", r.RS, r.UpperBound)
		}
		status := "ok"
		switch {
		case r.Err != nil:
			status = "ERR: " + r.Err.Error()
			ilp = "-"
		case !r.agrees(c.ExactRS):
			status = "MISMATCH"
		case !r.Exact:
			status = "capped"
		}
		t.Add(c.Name, c.Values, c.ExactRS, ilp, r.Nodes, r.Iters,
			fmt.Sprintf("%.0f%%", 100*r.WarmRate), r.Elapsed.Round(time.Microsecond), status)
	}
	out += t.String()
	out += fmt.Sprintf("\n%d instances (%d skipped over the value budget), %d disagreements\n",
		len(s.Cases), s.Skipped, s.Disagree)
	out += fmt.Sprintf("total solve time %v\n", s.TotalTime.Round(time.Millisecond))
	return out
}
