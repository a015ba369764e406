package solver_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/gen"
	"regsat/internal/lp"
	"regsat/internal/reduce"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// rootCutoffGraphs returns the committed acyclic corpus followed by n
// generated graphs: the families in turn at their default parameters with
// int and float values, seeds drawn from seed 101, as the cold-ilp mix.
// corpus is the number of corpus graphs.
func rootCutoffGraphs(tb testing.TB, n int) (graphs []*ddg.Graph, corpus int) {
	tb.Helper()
	files, err := filepath.Glob("../../testdata/*.ddg")
	if err != nil || len(files) == 0 {
		tb.Fatalf("corpus glob: %d files, %v", len(files), err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		if cyclic.Detect(string(raw)) {
			continue
		}
		g, err := ddg.ParseString(string(raw))
		if err == nil {
			err = g.Finalize()
		}
		if err != nil {
			tb.Fatalf("%s: %v", file, err)
		}
		graphs = append(graphs, g)
	}
	corpus = len(graphs)
	rng := rand.New(rand.NewSource(101))
	fams := gen.Families()
	for k := 0; k < n; k++ {
		f := fams[k%len(fams)]
		p := f.Defaults
		p.Seed, p.Types = rng.Int63(), []ddg.RegType{ddg.Int, ddg.Float}
		g, err := f.Generate(p)
		if err != nil {
			tb.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	return graphs, corpus
}

// rootCutoffOptions caps every solve by nodes, so each is deterministic
// and vliw-spec-tomcatv/float (~330 simplex iterations a node) stays
// short. The two superscalar-liv-l7/float models, whose root LPs alone
// take seconds, are left out by rootCutoffMaxCols.
var rootCutoffOptions = solver.Options{MaxNodes: 20}

const rootCutoffMaxCols = 800

// withoutRootWork clears the work counters that legitimately differ when
// the root LP stops at the prune target: its simplex iterations and the
// cuts a root that is pruned anyway no longer separates.
func withoutRootWork(st solver.Stats) solver.Stats {
	st.SimplexIters, st.BlandIters, st.CutsAdded, st.Duration = 0, 0, 0, 0
	return st
}

// TestRootCutoffSameAnswers is the differential test of the root that
// stops at the prune target: against roots solved to optimality with the
// check off (the engine before), every Section 3 solve seeded as ExactILP
// seeds it, every rs.ExactILP answer and every reduce.ExactILP answer over
// the committed corpus and 1,000 generated graphs must be identical —
// status, objective, bound, AtCutoff, assignment or witness, and the node
// count — apart from the root's own simplex iterations and cuts.
func TestRootCutoffSameAnswers(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	ctx := context.Background()
	var solves, cutAtRoot int
	both := func(run func() any) (cut, full any) {
		cut = run()
		restore := solver.SolveRootsToOptimality()
		defer restore()
		return cut, run()
	}
	graphs, corpus := rootCutoffGraphs(t, n)
	for gi, g := range graphs {
		for _, typ := range g.Types() {
			tag := fmt.Sprintf("graph %d %s/%s", gi, g.Name, typ)
			an, err := rs.NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			m, vars, _, err := rs.BuildSaturationModel(an, true)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumVars() > rootCutoffMaxCols {
				continue
			}

			// The Section 3 solve, seeded and hinted as ExactILP does.
			opt := rootCutoffOptions
			opt.Hints = &solver.Hints{Cliques: func() []solver.Clique { return rs.SaturationCliques(an, vars) }}
			if seed, err := rs.Greedy(an); err == nil {
				opt.Cutoff, opt.ExclusiveCutoff = solver.CutoffAt(float64(seed.RS)), true
			}
			cut, full := both(func() any {
				sol, err := solver.Solve(ctx, m, opt)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				sol.Stats = withoutRootWork(sol.Stats)
				return sol
			})
			if !reflect.DeepEqual(cut, full) {
				t.Fatalf("%s: Section 3 solve with the root cutoff\n%+v\nroot solved to optimality\n%+v", tag, cut, full)
			}
			solves++
			if s := cut.(*solver.Solution); s.AtCutoff && s.Stats.Nodes == 1 {
				cutAtRoot++
			}

			cut, full = both(func() any {
				res, err := rs.ExactILP(ctx, an, true, rootCutoffOptions)
				if err != nil {
					t.Fatalf("%s: rs.ExactILP: %v", tag, err)
				}
				res.Stats = withoutRootWork(res.Stats)
				return res
			})
			if !reflect.DeepEqual(cut, full) {
				t.Fatalf("%s: rs.ExactILP with the root cutoff\n%+v\nroot solved to optimality\n%+v", tag, cut, full)
			}

			// The Section 4 reduction one register below the saturation,
			// on every graph of the corpus and every fifth generated one.
			rsv := cut.(*rs.ILPResult).RS
			if rsv < 2 || (gi >= corpus && gi%5 != 0) {
				continue
			}
			cut, full = both(func() any {
				res, err := reduce.ExactILP(ctx, g, typ, rsv-1,
					reduce.ILPOptions{Solver: rootCutoffOptions, ApplyReductions: true})
				if err != nil {
					// An extension closing a circuit through VLIW offsets
					// is an answer too; it must not move either.
					return err.Error()
				}
				return reductionAnswer(res)
			})
			if !reflect.DeepEqual(cut, full) {
				t.Fatalf("%s: reduce.ExactILP with the root cutoff\n%+v\nroot solved to optimality\n%+v", tag, cut, full)
			}
		}
	}
	t.Logf("%d Section 3 solves, %d ended at a root that proved the cutoff", solves, cutAtRoot)
	if cutAtRoot == 0 || cutAtRoot == solves {
		t.Fatalf("%d of %d roots proved the cutoff: the comparison covers one side only", cutAtRoot, solves)
	}
}

// reductionAnswer is what reduce.ExactILP answers: the serialization arcs,
// saturation, critical paths, driving schedule, verdicts and the solve's
// stats without the root's own work.
type reduction struct {
	Arcs              []ddg.SerialArc
	RS                int
	CPBefore, CPAfter int64
	Times             []int64
	Exact, Spill      bool
	Stats             solver.Stats
}

func reductionAnswer(r *reduce.Result) reduction {
	out := reduction{Arcs: r.Arcs, RS: r.RS, CPBefore: r.CPBefore, CPAfter: r.CPAfter, Exact: r.Exact, Spill: r.Spill}
	if r.Schedule != nil {
		out.Times = r.Schedule.Times
	}
	if r.SolverStats != nil {
		out.Stats = withoutRootWork(*r.SolverStats)
	}
	return out
}

// TestRootProvesSeedBeforeAnyPivot pins a solve whose greedy seed is |VR|:
// epic-fig2/float, four values that are all alive at once. The all-slack
// root already sits at the bound |VR| < |VR| + 1, so the root LP proves
// the exclusive cutoff on its first iteration, before any pivot, and the
// solve ends there without deriving a clique.
func TestRootProvesSeedBeforeAnyPivot(t *testing.T) {
	an := corpusAnalysis(t, "epic-fig2.ddg", ddg.Float)
	seed, err := rs.Greedy(an)
	if err != nil || seed.RS != len(an.Values) {
		t.Fatalf("greedy seed %v (%v), want |VR| = %d", seed, err, len(an.Values))
	}
	m, _, _, err := rs.BuildSaturationModel(an, true)
	if err != nil {
		t.Fatal(err)
	}
	derived := 0
	sol, err := solver.Solve(context.Background(), m, solver.Options{
		Cutoff: solver.CutoffAt(float64(seed.RS)), ExclusiveCutoff: true,
		Hints: &solver.Hints{Cliques: func() []solver.Clique { derived++; return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Stats
	if sol.Status != lp.StatusOptimal || !sol.AtCutoff || sol.Obj != float64(seed.RS) || sol.Bound != sol.Obj {
		t.Fatalf("%v obj %g bound %g AtCutoff %v; want the seed %d proved optimal", sol.Status, sol.Obj, sol.Bound, sol.AtCutoff, seed.RS)
	}
	if st.Nodes != 1 || st.SimplexIters != 1 || st.ColdStarts != 0 || st.CutsAdded != 0 || derived != 0 {
		t.Fatalf("%+v, cliques derived %d times; want one node, one iteration, no pivot and no derivation", st, derived)
	}
	res, err := rs.ExactILP(context.Background(), an, true, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RS != seed.RS || !res.Exact || res.UpperBound != seed.RS || res.Stats.SimplexIters != 1 || res.Nodes != 1 {
		t.Fatalf("rs.ExactILP: RS %d exact %v ub %d after %d iterations and %d nodes; want %d proved at the root",
			res.RS, res.Exact, res.UpperBound, res.Stats.SimplexIters, res.Nodes, seed.RS)
	}
}
