package lp_test

// Behaviour checks of the modeling layer: every model here is built through
// the lp API and solved by the MILP engine (internal/solver), which serves
// pure LPs and MILPs alike.

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"regsat/internal/lp"
	"regsat/internal/solver"
	"regsat/internal/solver/solvertest"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func solve(t *testing.T, m *lp.Model, opt solver.Options) *solver.Solution {
	t.Helper()
	sol, err := solver.Solve(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestSolveLPSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, 0 ≤ x,y ≤ 10. Optimum (4,0) = 12.
	m := lp.NewModel("simple", lp.Maximize)
	x := m.NewVar(0, 10, false, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(x, 3)
	m.SetObjCoef(y, 2)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 3}}, lp.LE, 6)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status=%v", sol.Status)
	}
	if !almostEq(sol.Obj, 12) {
		t.Fatalf("obj=%g, want 12", sol.Obj)
	}
}

func TestSolveLPClassic(t *testing.T) {
	// max 5x + 4y s.t. 6x + 4y ≤ 24, x + 2y ≤ 6. Optimum (3, 1.5) = 21.
	m := lp.NewModel("classic", lp.Maximize)
	x := m.NewVar(0, 100, false, "x")
	y := m.NewVar(0, 100, false, "y")
	m.SetObjCoef(x, 5)
	m.SetObjCoef(y, 4)
	m.AddConstr([]lp.Term{{Var: x, Coef: 6}, {Var: y, Coef: 4}}, lp.LE, 24)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.LE, 6)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 21) {
		t.Fatalf("status=%v obj=%g, want optimal 21", sol.Status, sol.Obj)
	}
	if !almostEq(sol.X[x], 3) || !almostEq(sol.X[y], 1.5) {
		t.Fatalf("x=%g y=%g, want 3, 1.5", sol.X[x], sol.X[y])
	}
}

func TestSolveLPWithGEAndEQ(t *testing.T) {
	// min x + y s.t. x + y ≥ 3, x − y = 1, bounds [0, 10]. Optimum (2,1) = 3.
	m := lp.NewModel("ge-eq", lp.Minimize)
	x := m.NewVar(0, 10, false, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, 3)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -1}}, lp.EQ, 1)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 3) {
		t.Fatalf("status=%v obj=%g, want optimal 3", sol.Status, sol.Obj)
	}
	if !almostEq(sol.X[x], 2) || !almostEq(sol.X[y], 1) {
		t.Fatalf("x=%g y=%g, want 2, 1", sol.X[x], sol.X[y])
	}
}

func TestSolveLPNonzeroLowerBounds(t *testing.T) {
	// min x s.t. x + y ≥ 10, y ≤ 4, x ∈ [2, 20], y ∈ [3, 20]. Optimum x=6.
	m := lp.NewModel("bounds", lp.Minimize)
	x := m.NewVar(2, 20, false, "x")
	y := m.NewVar(3, 20, false, "y")
	m.SetObjCoef(x, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, 10)
	m.AddConstr([]lp.Term{{Var: y, Coef: 1}}, lp.LE, 4)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 6) {
		t.Fatalf("status=%v obj=%g x=%v, want optimal 6", sol.Status, sol.Obj, sol.X)
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	m := lp.NewModel("infeasible", lp.Minimize)
	x := m.NewVar(0, 1, false, "x")
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.GE, 5)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("status=%v, want infeasible", sol.Status)
	}
}

func TestSolveLPUnbounded(t *testing.T) {
	// x can grow with y without limit. The engine needs a finite bound on
	// the improving side of every cost-bearing variable, so it rejects the
	// model up front with an error naming x instead of searching for a ray.
	m := lp.NewModel("unbounded", lp.Maximize)
	x := m.NewVar(0, math.Inf(1), false, "x")
	y := m.NewVar(0, math.Inf(1), false, "y")
	m.SetObjCoef(x, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -1}}, lp.LE, 1) // x can grow with y
	_, err := solver.Solve(context.Background(), m, solver.Options{})
	if err == nil || !strings.Contains(err.Error(), "variable x ") {
		t.Fatalf("err=%v, want a model error naming variable x", err)
	}
}

func TestSolveLPEqualityOnly(t *testing.T) {
	// x + y = 2, x − y = 0 → x = y = 1.
	m := lp.NewModel("eq", lp.Minimize)
	x := m.NewVar(-5, 5, false, "x")
	y := m.NewVar(-5, 5, false, "y")
	m.SetObjCoef(x, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.EQ, 2)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -1}}, lp.EQ, 0)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.X[x], 1) || !almostEq(sol.X[y], 1) {
		t.Fatalf("status=%v x=%v, want x=y=1", sol.Status, sol.X)
	}
}

func TestSolveLPRedundantRows(t *testing.T) {
	// Duplicate equalities: one of the two rows is redundant.
	m := lp.NewModel("redundant", lp.Maximize)
	x := m.NewVar(0, 10, false, "x")
	m.SetObjCoef(x, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.EQ, 4)
	m.AddConstr([]lp.Term{{Var: x, Coef: 2}}, lp.EQ, 8)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 4) {
		t.Fatalf("status=%v obj=%g, want optimal 4", sol.Status, sol.Obj)
	}
}

func TestSolveKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: values 60,100,120; weights 10,20,30; cap 50 → 220.
	m := lp.NewModel("knapsack", lp.Maximize)
	vals := []float64{60, 100, 120}
	wts := []float64{10, 20, 30}
	vars := make([]lp.Var, 3)
	terms := make([]lp.Term, 3)
	for i := range vals {
		vars[i] = m.NewBinary("item")
		m.SetObjCoef(vars[i], vals[i])
		terms[i] = lp.Term{Var: vars[i], Coef: wts[i]}
	}
	m.AddConstr(terms, lp.LE, 50)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 220) {
		t.Fatalf("status=%v obj=%g, want optimal 220", sol.Status, sol.Obj)
	}
	if sol.IntValue(vars[0]) != 0 || sol.IntValue(vars[1]) != 1 || sol.IntValue(vars[2]) != 1 {
		t.Fatalf("selection=%v, want items 1 and 2", sol.X)
	}
}

func TestSolveIntegerRounding(t *testing.T) {
	// LP optimum is fractional; integer optimum differs.
	// max x + y s.t. 2x + y ≤ 3, x + 2y ≤ 3, x,y ∈ {0,1,2}. LP opt (1,1)=2.
	m := lp.NewModel("round", lp.Maximize)
	x := m.NewVar(0, 2, true, "x")
	y := m.NewVar(0, 2, true, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 1}}, lp.LE, 3)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.LE, 3)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 2) {
		t.Fatalf("status=%v obj=%g, want optimal 2", sol.Status, sol.Obj)
	}
}

func TestSolveMILPInfeasible(t *testing.T) {
	m := lp.NewModel("milp-infeasible", lp.Minimize)
	x := m.NewBinary("x")
	y := m.NewBinary("y")
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, 3)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("status=%v, want infeasible", sol.Status)
	}
}

func TestSolveBinaryLogic(t *testing.T) {
	// Exactly-one constraint with preferences.
	m := lp.NewModel("logic", lp.Maximize)
	a := m.NewBinary("a")
	b := m.NewBinary("b")
	c := m.NewBinary("c")
	m.SetObjCoef(a, 1)
	m.SetObjCoef(b, 5)
	m.SetObjCoef(c, 3)
	m.AddConstr([]lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}, {Var: c, Coef: 1}}, lp.EQ, 1)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || sol.IntValue(b) != 1 {
		t.Fatalf("status=%v X=%v, want b chosen", sol.Status, sol.X)
	}
}

func TestSolveMixedIntegerContinuous(t *testing.T) {
	// min 2x + 3y, x integer, y continuous; x + y ≥ 3.6; x ≤ 2.
	// Best: x=2, y=1.6 → 8.8.
	m := lp.NewModel("mixed", lp.Minimize)
	x := m.NewVar(0, 2, true, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(x, 2)
	m.SetObjCoef(y, 3)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, 3.6)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 8.8) {
		t.Fatalf("status=%v obj=%g, want 8.8", sol.Status, sol.Obj)
	}
}

func TestSolveObjOffset(t *testing.T) {
	m := lp.NewModel("offset", lp.Maximize)
	x := m.NewBinary("x")
	m.SetObjCoef(x, 2)
	m.SetObjOffset(10)
	sol := solve(t, m, solver.Options{})
	if !almostEq(sol.Obj, 12) {
		t.Fatalf("obj=%g, want 12", sol.Obj)
	}
}

func TestSolveNodeLimit(t *testing.T) {
	m := lp.NewModel("limit", lp.Maximize)
	// A problem that needs branching.
	x := m.NewVar(0, 5, true, "x")
	y := m.NewVar(0, 5, true, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 3}}, lp.LE, 7.5)
	sol := solve(t, m, solver.Options{MaxNodes: 1})
	if sol.Status != lp.StatusLimit && sol.Status != lp.StatusFeasible {
		t.Fatalf("status=%v, want limit or feasible", sol.Status)
	}
	// The capped interval must contain the integer optimum 3 (x=3, y=0).
	if !sol.Capped || sol.Bound < 3-1e-9 || (sol.Status == lp.StatusFeasible && sol.Obj > 3+1e-9) {
		t.Fatalf("capped=%v interval [%g, %g] misses the optimum 3", sol.Capped, sol.Obj, sol.Bound)
	}
}

func TestModelAccessors(t *testing.T) {
	m := lp.NewModel("acc", lp.Minimize)
	x := m.NewVar(1, 3, true, "xx")
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.LE, 2)
	if m.NumVars() != 1 || m.NumConstrs() != 1 || m.NumIntVars() != 1 {
		t.Fatal("counts wrong")
	}
	if m.VarName(x) != "xx" || !m.IsInteger(x) {
		t.Fatal("var metadata wrong")
	}
	if lo, hi := m.Bounds(x); lo != 1 || hi != 3 {
		t.Fatal("bounds wrong")
	}
	if m.Name() != "acc" || m.Sense() != lp.Minimize {
		t.Fatal("model metadata wrong")
	}
	if s := m.String(); len(s) == 0 {
		t.Fatal("String empty")
	}
}

func TestMergedDuplicateTerms(t *testing.T) {
	// x + x ≤ 2 must behave as 2x ≤ 2.
	m := lp.NewModel("dup", lp.Maximize)
	x := m.NewVar(0, 10, false, "x")
	m.SetObjCoef(x, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: x, Coef: 1}}, lp.LE, 2)
	sol := solve(t, m, solver.Options{})
	if !almostEq(sol.Obj, 1) {
		t.Fatalf("obj=%g, want 1", sol.Obj)
	}
}

// TestSolveMatchesBruteForce cross-validates the engine against exhaustive
// enumeration on random small pure-integer programs.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 120; trial++ {
		nv := 2 + rng.Intn(4)
		nc := 1 + rng.Intn(4)
		sense := lp.Minimize
		if rng.Intn(2) == 0 {
			sense = lp.Maximize
		}
		m := lp.NewModel("rand", sense)
		for i := 0; i < nv; i++ {
			m.SetObjCoef(m.NewVar(0, float64(1+rng.Intn(3)), true, "v"), float64(rng.Intn(11)-5))
		}
		for c := 0; c < nc; c++ {
			var terms []lp.Term
			for i := 0; i < nv; i++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, lp.Term{Var: lp.Var(i), Coef: float64(rng.Intn(7) - 3)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			rel := []lp.Rel{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
			m.AddConstr(terms, rel, float64(rng.Intn(9)-2))
		}
		ref := solvertest.BruteForce(m)
		found, want := ref.Found, ref.Obj
		sol := solve(t, m, solver.Options{})
		if !found {
			if sol.Status != lp.StatusInfeasible {
				t.Fatalf("trial %d: solver says %v, brute force says infeasible\n%s",
					trial, sol.Status, m.String())
			}
			continue
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: solver says %v, brute force found obj=%g\n%s",
				trial, sol.Status, want, m.String())
		}
		if !almostEq(sol.Obj, want) {
			t.Fatalf("trial %d: solver obj=%g, brute force obj=%g\n%s",
				trial, sol.Obj, want, m.String())
		}
	}
}

// TestLPWeakDuality checks that on random feasible bounded LPs, the reported
// optimum is at least as good as any feasible corner we can sample.
func TestLPRandomFeasiblePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		nv := 2 + rng.Intn(3)
		m := lp.NewModel("randlp", lp.Maximize)
		for i := 0; i < nv; i++ {
			m.SetObjCoef(m.NewVar(0, 10, false, "v"), float64(rng.Intn(5)))
		}
		// Constraints with non-negative coefficients keep origin feasible.
		for c := 0; c < 1+rng.Intn(3); c++ {
			var terms []lp.Term
			for i := 0; i < nv; i++ {
				terms = append(terms, lp.Term{Var: lp.Var(i), Coef: float64(rng.Intn(4))})
			}
			m.AddConstr(terms, lp.LE, float64(5+rng.Intn(20)))
		}
		sol := solve(t, m, solver.Options{})
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: status=%v, want optimal (origin is feasible)", trial, sol.Status)
		}
		// Sample random feasible points; none may beat the optimum.
		for k := 0; k < 20; k++ {
			x := make([]float64, nv)
			for i := range x {
				x[i] = rng.Float64() * 10
			}
			feasible := true
			for i := 0; i < m.NumConstrs(); i++ {
				terms, _, rhs := m.Constr(i)
				lhs := 0.0
				for _, tm := range terms {
					lhs += tm.Coef * x[tm.Var]
				}
				if lhs > rhs+1e-9 {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			obj := 0.0
			for v := range x {
				obj += m.ObjCoef(lp.Var(v)) * x[v]
			}
			if obj > sol.Obj+1e-6 {
				t.Fatalf("trial %d: sampled point beats 'optimum' (%g > %g)", trial, obj, sol.Obj)
			}
		}
	}
}
