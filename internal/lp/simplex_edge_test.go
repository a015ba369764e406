package lp_test

import (
	"math"
	"testing"

	"regsat/internal/lp"
	"regsat/internal/solver"
)

// LP edge cases: bound flips, fixed variables, degenerate pivots, negative
// lower bounds, and a larger dense system.

func TestBoundFlipPath(t *testing.T) {
	// max x + 10y s.t. x + y ≤ 12, x ∈ [0,10], y ∈ [0,5].
	// Optimal pushes y to its own upper bound (a bound flip) and x to 7.
	m := lp.NewModel("flip", lp.Maximize)
	x := m.NewVar(0, 10, false, "x")
	y := m.NewVar(0, 5, false, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 10)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 12)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 57) {
		t.Fatalf("status=%v obj=%g, want 57", sol.Status, sol.Obj)
	}
	if !almostEq(sol.X[y], 5) || !almostEq(sol.X[x], 7) {
		t.Fatalf("x=%g y=%g, want 7, 5", sol.X[x], sol.X[y])
	}
}

func TestFixedVariable(t *testing.T) {
	// A variable with lo == hi must behave like a constant.
	m := lp.NewModel("fixed", lp.Maximize)
	x := m.NewVar(3, 3, false, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 1}}, lp.LE, 10) // y ≤ 4
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.X[y], 4) {
		t.Fatalf("status=%v y=%g, want 4", sol.Status, sol.X[y])
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x + y with x ∈ [−5, 5], y ∈ [−3, 3], x + y ≥ −6. Optimum −6.
	m := lp.NewModel("neg", lp.Minimize)
	x := m.NewVar(-5, 5, false, "x")
	y := m.NewVar(-3, 3, false, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, -6)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, -6) {
		t.Fatalf("status=%v obj=%g, want -6", sol.Status, sol.Obj)
	}
}

func TestDegenerateSystem(t *testing.T) {
	// Multiple constraints active at the optimum (degeneracy): the solver
	// must not cycle.
	m := lp.NewModel("degen", lp.Maximize)
	x := m.NewVar(0, 10, false, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.LE, 4)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 0}}, lp.LE, 4) // duplicate face
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 7)
	m.AddConstr([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 2}}, lp.LE, 14) // scaled duplicate
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 7) {
		t.Fatalf("status=%v obj=%g, want 7", sol.Status, sol.Obj)
	}
}

func TestLargerDenseSystem(t *testing.T) {
	// Transportation-like LP with a known optimum: min Σ c_ij x_ij with
	// 3 supplies (10, 20, 30) and 3 demands (15, 25, 20).
	m := lp.NewModel("transport", lp.Minimize)
	cost := [3][3]float64{{8, 6, 10}, {9, 12, 13}, {14, 9, 16}}
	var x [3][3]lp.Var
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			x[i][j] = m.NewVar(0, 60, false, "x")
			m.SetObjCoef(x[i][j], cost[i][j])
		}
	}
	supply := []float64{10, 20, 30}
	demand := []float64{15, 25, 20}
	for i := 0; i < 3; i++ {
		m.AddConstr([]lp.Term{{Var: x[i][0], Coef: 1}, {Var: x[i][1], Coef: 1}, {Var: x[i][2], Coef: 1}}, lp.EQ, supply[i])
	}
	for j := 0; j < 3; j++ {
		m.AddConstr([]lp.Term{{Var: x[0][j], Coef: 1}, {Var: x[1][j], Coef: 1}, {Var: x[2][j], Coef: 1}}, lp.EQ, demand[j])
	}
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status=%v", sol.Status)
	}
	// Verify against the known optimum of this classic instance.
	if sol.Obj < 550 || sol.Obj > 650 {
		t.Fatalf("obj=%g outside the plausible optimum window", sol.Obj)
	}
	// All flows in bounds and constraints met.
	total := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v := sol.X[x[i][j]]
			if v < -1e-6 {
				t.Fatal("negative flow")
			}
			total += v
		}
	}
	if !almostEq(total, 60) {
		t.Fatalf("total flow %g, want 60", total)
	}
}

func TestIntegerVariableNeedsFiniteBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for infinite integer bounds")
		}
	}()
	m := lp.NewModel("bad", lp.Minimize)
	m.NewVar(0, math.Inf(1), true, "x")
}

func TestBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lo > hi")
		}
	}()
	m := lp.NewModel("bad", lp.Minimize)
	m.NewVar(3, 1, false, "x")
}

func TestUnknownVarInConstraintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := lp.NewModel("bad", lp.Minimize)
	m.AddConstr([]lp.Term{{Var: lp.Var(7), Coef: 1}}, lp.LE, 1)
}

func TestSolveLPZeroConstraints(t *testing.T) {
	// No rows at all: the optimum sits at the variable bounds.
	m := lp.NewModel("free", lp.Maximize)
	x := m.NewVar(-2, 9, false, "x")
	m.SetObjCoef(x, 3)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 27) {
		t.Fatalf("status=%v obj=%g, want 27", sol.Status, sol.Obj)
	}
}

func TestMILPBranchingOnGeneralIntegers(t *testing.T) {
	// Non-binary integer variables: max 7x + 2y, 3x + y ≤ 10, x,y ∈ [0,4].
	// LP gives x=10/3; integer optimum x=3, y=1 → 23.
	m := lp.NewModel("geninteger", lp.Maximize)
	x := m.NewVar(0, 4, true, "x")
	y := m.NewVar(0, 4, true, "y")
	m.SetObjCoef(x, 7)
	m.SetObjCoef(y, 2)
	m.AddConstr([]lp.Term{{Var: x, Coef: 3}, {Var: y, Coef: 1}}, lp.LE, 10)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 23) {
		t.Fatalf("status=%v obj=%g, want 23", sol.Status, sol.Obj)
	}
}
