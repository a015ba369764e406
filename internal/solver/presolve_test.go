package solver

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"regsat/internal/lp"
	"regsat/internal/solver/solvertest"
)

// mustPresolve runs presolve over m and fails the test on an error.
func mustPresolve(t testing.TB, m *lp.Model, reductions bool) *presolved {
	t.Helper()
	ps, err := presolve(m, reductions)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// buildProb is the sparse form of m as the engine loads it without
// reductions: an identity presolve.
func buildProb(m *lp.Model) (*prob, error) {
	ps, err := presolve(m, false)
	if err != nil {
		return nil, err
	}
	return ps.p, nil
}

// probModel turns p back into an lp.Model with the same columns, rows,
// model-sense objective and offset, for solvertest.BruteForce.
func probModel(p *prob) *lp.Model {
	m := lp.NewModel("prob", p.sense)
	for j := 0; j < p.n; j++ {
		v := m.NewVar(p.rootLo[j], p.rootHi[j], p.integer[j], "x")
		c := p.cost[j]
		if p.sense == lp.Maximize {
			c = -c
		}
		m.SetObjCoef(v, c)
	}
	m.SetObjOffset(p.objOffset)
	for i := 0; i < p.m; i++ {
		m.AddConstr(probRow(p, i), p.rel[i], p.rhs[i])
	}
	return m
}

// probRow returns row i of p as terms.
func probRow(p *prob, i int) []lp.Term {
	var terms []lp.Term
	for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
		terms = append(terms, lp.Term{Var: lp.Var(p.rowCol[k]), Coef: p.rowVal[k]})
	}
	return terms
}

// checkSatisfies asserts that x is a feasible integer assignment of m.
func checkSatisfies(t *testing.T, m *lp.Model, x []float64, tag string) {
	t.Helper()
	if len(x) != m.NumVars() {
		t.Fatalf("%s: assignment has %d entries for %d variables", tag, len(x), m.NumVars())
	}
	for j := 0; j < m.NumVars(); j++ {
		lo, hi := m.Bounds(lp.Var(j))
		if x[j] < lo-1e-6 || x[j] > hi+1e-6 {
			t.Fatalf("%s: x[%d]=%g outside [%g, %g]", tag, j, x[j], lo, hi)
		}
		if m.IsInteger(lp.Var(j)) && math.Abs(x[j]-math.Round(x[j])) > 1e-6 {
			t.Fatalf("%s: integer x[%d]=%g is fractional", tag, j, x[j])
		}
	}
	for i := 0; i < m.NumConstrs(); i++ {
		terms, rel, rhs := m.Constr(i)
		act := 0.0
		for _, tm := range terms {
			act += tm.Coef * x[tm.Var]
		}
		tol := 1e-6 * (1 + math.Abs(rhs))
		switch rel {
		case lp.LE:
			if act > rhs+tol {
				t.Fatalf("%s: row %d: activity %g > rhs %g", tag, i, act, rhs)
			}
		case lp.GE:
			if act < rhs-tol {
				t.Fatalf("%s: row %d: activity %g < rhs %g", tag, i, act, rhs)
			}
		case lp.EQ:
			if math.Abs(act-rhs) > tol {
				t.Fatalf("%s: row %d: activity %g != rhs %g", tag, i, act, rhs)
			}
		}
	}
}

// TestPresolveRoundTripRandom: on random integer programs the sparse engine
// with presolve+cuts enabled and disabled must agree with brute-force
// enumeration, and every returned incumbent — which passed through
// postsolve — must satisfy the *original* model with the original
// objective value.
func TestPresolveRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trials := 300
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		m := randomMILP(rng)
		for _, cfg := range []struct {
			tag string
			opt Options
		}{
			{"presolve+cuts", Options{}},
			{"raw", Options{DisablePresolve: true, DisableCuts: true}},
		} {
			sol := solveWith(t, m, cfg.opt)
			checkOracle(t, fmt.Sprintf("trial %d (%s)", trial, cfg.tag), m, sol)
			if sol.Feasible() && !sol.AtCutoff {
				checkSatisfies(t, m, sol.X, cfg.tag)
				obj := m.ObjOffset()
				for j := 0; j < m.NumVars(); j++ {
					obj += m.ObjCoef(lp.Var(j)) * sol.X[j]
				}
				if math.Abs(obj-sol.Obj) > 1e-6 {
					t.Fatalf("trial %d (%s): reported obj %g but x evaluates to %g\n%s",
						trial, cfg.tag, sol.Obj, obj, m.String())
				}
			}
		}
	}
}

// TestPresolveFixedVariable: a collapsed-bound variable leaves the model,
// its objective contribution moves to the offset, and its value substitutes
// into every row (here turning the row into a singleton that folds into a
// bound). Postsolve restores the original variable order.
func TestPresolveFixedVariable(t *testing.T) {
	m := lp.NewModel("fix", lp.Maximize)
	x := m.NewVar(2, 2, true, "x")
	y := m.NewVar(0, 5, true, "y")
	m.SetObjCoef(x, 3)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 6)
	ps := mustPresolve(t, m, true)
	if ps.infeasible {
		t.Fatal("feasible model presolved to infeasible")
	}
	if ps.colMap[0] != -1 || ps.fixed[0] != 2 {
		t.Fatalf("x not eliminated at 2: colMap=%v fixed=%v", ps.colMap, ps.fixed)
	}
	if ps.p.n != 1 || ps.p.m != 0 {
		t.Fatalf("reduced problem has %d columns, %d rows; want 1, 0", ps.p.n, ps.p.m)
	}
	if off := ps.p.objOffset; off != 6 {
		t.Fatalf("objective offset %g, want 6 (3·x at x=2)", off)
	}
	// The substituted row y ≤ 4 folded into y's upper bound.
	if hi := ps.p.rootHi[0]; hi != 4 {
		t.Fatalf("y's bound not tightened to 4 (hi=%g)", hi)
	}
	if ps.cols != 1 || ps.rows != 1 {
		t.Fatalf("counters: cols=%d rows=%d, want 1, 1", ps.cols, ps.rows)
	}
	got := ps.postsolve([]float64{4})
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("postsolve([4]) = %v, want [2 4]", got)
	}
}

// TestPresolveInfeasibleBounds: contradictory singleton rows prove
// infeasibility inside presolve.
func TestPresolveInfeasibleBounds(t *testing.T) {
	m := lp.NewModel("inf", lp.Minimize)
	x := m.NewVar(0, 5, true, "x")
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.GE, 3)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.LE, 2)
	ps := mustPresolve(t, m, true)
	if !ps.infeasible {
		t.Fatal("x ≥ 3 ∧ x ≤ 2 not detected infeasible")
	}
}

// TestPresolveDuplicateRows: identical term vectors merge, keeping the
// tightest right-hand side; the reduced model still has the original
// optimum (modulo the offset the reduction moved).
func TestPresolveDuplicateRows(t *testing.T) {
	m := lp.NewModel("dup", lp.Maximize)
	x := m.NewVar(0, 10, true, "x")
	y := m.NewVar(0, 10, true, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 5)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 3)
	ps := mustPresolve(t, m, true)
	if ps.infeasible {
		t.Fatal("feasible model presolved to infeasible")
	}
	if ps.rows < 1 {
		t.Fatalf("duplicate row not merged (rows removed: %d)", ps.rows)
	}
	sol := solvertest.BruteForce(probModel(ps.p))
	if !sol.Found || math.Abs(sol.Obj-3) > 1e-6 {
		t.Fatalf("reduced model optimum found=%v obj=%g, want 3", sol.Found, sol.Obj)
	}
}

// TestPresolveCoefficientTightening: the Savelsbergh transform on
// 3x + 2y ≤ 4 over binaries yields x + y ≤ 1 — the same integer set
// {00, 10, 01} as a strictly tighter LP relaxation (the clique form).
func TestPresolveCoefficientTightening(t *testing.T) {
	m := lp.NewModel("coef", lp.Maximize)
	x := m.NewBinary("x")
	y := m.NewBinary("y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 3}, {Var: y, Coef: 2}}, lp.LE, 4)
	ps := mustPresolve(t, m, true)
	if ps.infeasible {
		t.Fatal("feasible model presolved to infeasible")
	}
	if ps.p.m != 1 {
		t.Fatalf("reduced problem has %d rows, want 1", ps.p.m)
	}
	terms, rel, rhs := probRow(ps.p, 0), ps.p.rel[0], ps.p.rhs[0]
	if rel != lp.LE || rhs != 1 || len(terms) != 2 || terms[0].Coef != 1 || terms[1].Coef != 1 {
		t.Fatalf("tightened row is %v %v %g, want x + y ≤ 1", terms, rel, rhs)
	}
	if ps.tightenings < 2 {
		t.Fatalf("tightenings=%d, want ≥ 2 (both coefficients)", ps.tightenings)
	}
	sol := solveWith(t, m, Options{})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-1) > 1e-6 {
		t.Fatalf("optimum %v/%g, want optimal 1", sol.Status, sol.Obj)
	}
}

// TestPresolveDisabled: with reductions off the pass still emits an owned
// identity copy — same dimensions and rows, identity column map — that the
// cut layer may grow without touching the caller's model.
func TestPresolveDisabled(t *testing.T) {
	m := knapsack()
	ps := mustPresolve(t, m, false)
	if ps.infeasible {
		t.Fatal("identity presolve reported infeasible")
	}
	p := ps.p
	if p.n != m.NumVars() || p.m != m.NumConstrs() {
		t.Fatalf("identity copy changed dimensions: %dx%d vs %dx%d",
			p.n, p.m, m.NumVars(), m.NumConstrs())
	}
	for i := 0; i < p.m; i++ {
		terms, rel, rhs := m.Constr(i)
		if got := probRow(p, i); !slices.Equal(got, terms) || p.rel[i] != rel || p.rhs[i] != rhs {
			t.Fatalf("row %d copied as %v %v %g, model has %v %v %g", i, got, p.rel[i], p.rhs[i], terms, rel, rhs)
		}
	}
	want, _, _ := m.Constr(0)
	want = slices.Clone(want)
	p.rowVal[p.rowPtr[0]] = 99
	if got, _, _ := m.Constr(0); !slices.Equal(got, want) {
		t.Fatal("identity presolve shares row storage with the caller's model")
	}
	for j := range ps.colMap {
		if ps.colMap[j] != j {
			t.Fatalf("colMap[%d]=%d, want identity", j, ps.colMap[j])
		}
	}
	if ps.rows != 0 || ps.cols != 0 || ps.tightenings != 0 {
		t.Fatalf("identity presolve reported work: %+v", ps.stats())
	}
}

// TestPresolveStatsSurface: a model presolve can shrink must report the
// reductions through Solution.Stats.
func TestPresolveStatsSurface(t *testing.T) {
	m := lp.NewModel("stats", lp.Maximize)
	x := m.NewVar(3, 3, true, "x") // fixed
	y := m.NewVar(0, 9, true, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 2)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 8)
	sol := solveWith(t, m, Options{})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-13) > 1e-6 {
		t.Fatalf("optimum %v/%g, want optimal 13", sol.Status, sol.Obj)
	}
	if sol.X[0] != 3 || sol.X[1] != 5 {
		t.Fatalf("x=%v, want [3 5]", sol.X)
	}
	if sol.Stats.PresolveCols == 0 {
		t.Fatalf("fixed column not counted in stats: %+v", sol.Stats)
	}
}

// TestPresolveHashCollisionKeepsRows: with every duplicate-detection hash
// forced equal, two different rows must both survive, while a true
// duplicate still merges into its first occurrence with the tightest
// right-hand side.
func TestPresolveHashCollisionKeepsRows(t *testing.T) {
	build := func() *lp.Model {
		m := lp.NewModel("collide", lp.Maximize)
		x := m.NewVar(0, 10, true, "x")
		y := m.NewVar(0, 10, true, "y")
		m.SetObjCoef(x, 1)
		m.SetObjCoef(y, 1)
		m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 5)
		m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.LE, 6)
		m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, 1)
		m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)
		return m
	}
	rows := func(ps *presolved) []string {
		var out []string
		for i := 0; i < ps.p.m; i++ {
			out = append(out, fmt.Sprint(probRow(ps.p, i), ps.p.rel[i], ps.p.rhs[i]))
		}
		return out
	}
	want := rows(mustPresolve(t, build(), true))
	if len(want) != 3 {
		t.Fatalf("reference presolve kept rows %v; want three (the x + y ≤ 4 duplicate merged)", want)
	}
	defer func() { testHookRowHash = nil }()
	testHookRowHash = func(uint64) uint64 { return 42 }
	ps := mustPresolve(t, build(), true)
	if got := rows(ps); !slices.Equal(got, want) {
		t.Fatalf("with colliding hashes presolve kept rows %v, want %v", got, want)
	}
	if ps.rows != 1 {
		t.Fatalf("with colliding hashes %d rows removed, want 1", ps.rows)
	}
}

// propagateRowRescan is bound propagation as the quadratic rule states it:
// each term's residual minimum activity is a fresh sum over the rest of the
// row, under the bounds as the earlier terms left them. It is the reference
// propagateRow must reproduce on integral rows.
func propagateRowRescan(rt []lp.Term, le bool, rhs float64, lo, hi []float64, roundInt func(int) bool) (tightenings int64, ok bool) {
	for _, t := range rt {
		j := int(t.Var)
		c := t.Coef
		if !le {
			c = -c
		}
		restMin, finite := 0.0, true
		for _, u := range rt {
			if u.Var == t.Var {
				continue
			}
			uc := u.Coef
			if !le {
				uc = -uc
			}
			contrib := minContrib(uc, lo[u.Var], hi[u.Var])
			if math.IsInf(contrib, 0) {
				finite = false
				break
			}
			restMin += contrib
		}
		if !finite {
			continue
		}
		limit := (rhs - restMin) / c
		if c > 0 {
			if limit < hi[j]-1e-9 {
				hi[j] = limit
				tightenings++
			}
		} else if limit > lo[j]+1e-9 {
			lo[j] = limit
			tightenings++
		}
		if !roundInt(j) {
			return tightenings, false
		}
	}
	return tightenings, true
}

// TestPropagateRowMatchesRescan compares propagateRow with the quadratic
// rescan on long random integral rows (1,000 to 1,500 terms), both views,
// with zero, one or two infinite minimum-activity contributions, integer
// and continuous columns, half-integral bounds on some integer columns
// (which rounding moves, so the activity sum must follow), and right-hand
// sides near the minimum activity so that many terms tighten: the
// tightening counts, the feasibility verdicts and every bound must agree
// bit for bit.
func TestPropagateRowMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	tightened := 0
	for trial := 0; trial < trials; trial++ {
		n := 1000 + rng.Intn(501)
		lo, hi := make([]float64, n), make([]float64, n)
		integer := make([]bool, n)
		rt := make([]lp.Term, n)
		for j := range rt {
			c := float64(rng.Intn(11) - 5)
			if c == 0 {
				c = 7
			}
			rt[j] = lp.Term{Var: lp.Var(j), Coef: c}
			lo[j] = float64(-rng.Intn(4))
			hi[j] = lo[j] + float64(rng.Intn(7))
			integer[j] = rng.Intn(4) != 0
			if integer[j] && rng.Intn(4) == 0 {
				// A half-integral bound, which rounding moves.
				if rng.Intn(2) == 0 {
					lo[j] -= 0.5
				} else {
					hi[j] += 0.5
				}
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			j := rng.Intn(n)
			if rng.Intn(2) == 0 {
				lo[j] = math.Inf(-1)
			} else {
				hi[j] = math.Inf(1)
			}
		}
		le := rng.Intn(2) == 0
		minAct := 0.0
		for _, u := range rt {
			c := u.Coef
			if !le {
				c = -c
			}
			if v := minContrib(c, lo[u.Var], hi[u.Var]); !math.IsInf(v, 0) {
				minAct += v
			}
		}
		rhs := minAct + float64(rng.Intn(40)-2)
		run := func(f func([]lp.Term, bool, float64, []float64, []float64, func(int) bool) (int64, bool)) ([]float64, []float64, int64, bool) {
			l, h := slices.Clone(lo), slices.Clone(hi)
			roundInt := func(j int) bool {
				if integer[j] {
					l[j] = math.Ceil(l[j] - 1e-6)
					h[j] = math.Floor(h[j] + 1e-6)
				}
				return l[j] <= h[j]+presolveFeasTol
			}
			k, ok := f(rt, le, rhs, l, h, roundInt)
			return l, h, k, ok
		}
		gl, gh, gk, gok := run(propagateRow)
		wl, wh, wk, wok := run(propagateRowRescan)
		if gk != wk || gok != wok {
			t.Fatalf("trial %d: %d tightenings (feasible %v), rescan %d (feasible %v)", trial, gk, gok, wk, wok)
		}
		if !sameBits(gl, wl) || !sameBits(gh, wh) {
			t.Fatalf("trial %d: bounds differ from the rescan", trial)
		}
		tightened += int(gk)
	}
	if tightened == 0 {
		t.Fatal("no trial tightened a bound: the comparison exercised nothing")
	}
}
