package ilp

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

// solve runs the model through the MILP engine, requires it to prove the
// brute-force optimum, and returns the solution — so each linearization test
// doubles as a differential test of the solving layer.
func solve(t *testing.T, m *lp.Model) *solver.Solution {
	t.Helper()
	ref := solvertest.BruteForce(m)
	if !ref.Found {
		t.Fatalf("brute force finds no feasible point")
	}
	sol, err := solver.Solve(context.Background(), m, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status=%v, want optimal", sol.Status)
	}
	if math.Abs(sol.Obj-ref.Obj) > 1e-6 {
		t.Fatalf("obj=%g, brute force=%g", sol.Obj, ref.Obj)
	}
	return sol
}

func TestExprAlgebra(t *testing.T) {
	m := lp.NewModel("t", lp.Minimize)
	x := m.NewVar(0, 10, true, "x")
	y := m.NewVar(0, 10, true, "y")
	e := VarExpr(x).Plus(VarExpr(y)).AddConst(3).Minus(NewExpr(1, lp.Term{Var: y, Coef: 1}))
	// e = x + y + 3 − 1 − y = x + 2
	lo, hi := Bounds(m, e)
	if lo != 2 || hi != 12 {
		t.Fatalf("bounds=[%g,%g], want [2,12]", lo, hi)
	}
}

func TestBoundsNegativeCoef(t *testing.T) {
	m := lp.NewModel("t", lp.Minimize)
	x := m.NewVar(2, 5, true, "x")
	e := NewExpr(1, lp.Term{Var: x, Coef: -2})
	lo, hi := Bounds(m, e)
	if lo != -9 || hi != -3 {
		t.Fatalf("bounds=[%g,%g], want [-9,-3]", lo, hi)
	}
}

func TestImpliesGEForcing(t *testing.T) {
	// b=1 must force x ≥ 5 when we also maximize b.
	m := lp.NewModel("t", lp.Maximize)
	x := m.NewVar(0, 10, true, "x")
	b := m.NewBinary("b")
	m.SetObjCoef(b, 10)
	m.SetObjCoef(x, -1) // prefer small x
	ImpliesGE(m, b, NewExpr(-5, lp.Term{Var: x, Coef: 1}))
	sol := solve(t, m)
	if sol.IntValue(b) != 1 || sol.IntValue(x) != 5 {
		t.Fatalf("b=%d x=%d, want b=1 x=5", sol.IntValue(b), sol.IntValue(x))
	}
}

func TestImpliesGERelaxedWhenZero(t *testing.T) {
	// b=0 leaves x free: minimizing x gives 0.
	m := lp.NewModel("t", lp.Minimize)
	x := m.NewVar(0, 10, true, "x")
	b := m.NewBinary("b")
	m.SetObjCoef(x, 1)
	m.AddConstr([]lp.Term{{Var: b, Coef: 1}}, lp.EQ, 0)
	ImpliesGE(m, b, NewExpr(-5, lp.Term{Var: x, Coef: 1}))
	sol := solve(t, m)
	if sol.IntValue(x) != 0 {
		t.Fatalf("x=%d, want 0 (implication disabled)", sol.IntValue(x))
	}
}

func TestImpliesLEForcing(t *testing.T) {
	// b=1 ⇒ x ≤ 3 while maximizing x with b forced to 1.
	m := lp.NewModel("t", lp.Maximize)
	x := m.NewVar(0, 10, true, "x")
	b := m.NewBinary("b")
	m.SetObjCoef(x, 1)
	m.AddConstr([]lp.Term{{Var: b, Coef: 1}}, lp.EQ, 1)
	ImpliesLE(m, b, NewExpr(-3, lp.Term{Var: x, Coef: 1}))
	sol := solve(t, m)
	if sol.IntValue(x) != 3 {
		t.Fatalf("x=%d, want 3", sol.IntValue(x))
	}
}

func TestIffGEBothDirections(t *testing.T) {
	// b ⇔ (x − 5 ≥ 0). Check both values of x force the right b.
	for _, tc := range []struct {
		xFix  int64
		wantB int64
	}{{7, 1}, {5, 1}, {4, 0}, {0, 0}} {
		m := lp.NewModel("t", lp.Maximize)
		x := m.NewVar(0, 10, true, "x")
		m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.EQ, float64(tc.xFix))
		b := IffGE(m, NewExpr(-5, lp.Term{Var: x, Coef: 1}), "iff")
		// Objective pulls b the wrong way to prove the constraint binds.
		if tc.wantB == 1 {
			m.SetObjCoef(b, -1)
		} else {
			m.SetObjCoef(b, 1)
		}
		sol := solve(t, m)
		if sol.IntValue(b) != tc.wantB {
			t.Fatalf("x=%d: b=%d, want %d", tc.xFix, sol.IntValue(b), tc.wantB)
		}
	}
}

func TestIffGEDegenerateAlwaysTrue(t *testing.T) {
	m := lp.NewModel("t", lp.Minimize)
	x := m.NewVar(3, 10, true, "x")
	b := IffGE(m, VarExpr(x), "iff") // x ≥ 0 always
	m.SetObjCoef(b, 1)               // try to push b to 0
	sol := solve(t, m)
	if sol.IntValue(b) != 1 {
		t.Fatalf("b=%d, want forced 1", sol.IntValue(b))
	}
}

func TestIffGEDegenerateAlwaysFalse(t *testing.T) {
	m := lp.NewModel("t", lp.Maximize)
	x := m.NewVar(0, 4, true, "x")
	b := IffGE(m, NewExpr(-5, lp.Term{Var: x, Coef: 1}), "iff") // x ≥ 5 impossible
	m.SetObjCoef(b, 1)                                          // try to push b to 1
	sol := solve(t, m)
	if sol.IntValue(b) != 0 {
		t.Fatalf("b=%d, want forced 0", sol.IntValue(b))
	}
}

func TestAndBinaryTruthTable(t *testing.T) {
	for _, tc := range []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {1, 1, 1},
	} {
		m := lp.NewModel("t", lp.Maximize)
		a := m.NewBinary("a")
		b := m.NewBinary("b")
		m.AddConstr([]lp.Term{{Var: a, Coef: 1}}, lp.EQ, float64(tc.a))
		m.AddConstr([]lp.Term{{Var: b, Coef: 1}}, lp.EQ, float64(tc.b))
		c := AndBinary(m, a, b, "and")
		if tc.want == 1 {
			m.SetObjCoef(c, -1)
		} else {
			m.SetObjCoef(c, 1)
		}
		sol := solve(t, m)
		if sol.IntValue(c) != tc.want {
			t.Fatalf("a=%d b=%d: and=%d, want %d", tc.a, tc.b, sol.IntValue(c), tc.want)
		}
	}
}

func TestOrBinaryTruthTable(t *testing.T) {
	for _, tc := range []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1},
	} {
		m := lp.NewModel("t", lp.Maximize)
		a := m.NewBinary("a")
		b := m.NewBinary("b")
		m.AddConstr([]lp.Term{{Var: a, Coef: 1}}, lp.EQ, float64(tc.a))
		m.AddConstr([]lp.Term{{Var: b, Coef: 1}}, lp.EQ, float64(tc.b))
		c := OrBinary(m, a, b, "or")
		if tc.want == 1 {
			m.SetObjCoef(c, -1)
		} else {
			m.SetObjCoef(c, 1)
		}
		sol := solve(t, m)
		if sol.IntValue(c) != tc.want {
			t.Fatalf("a=%d b=%d: or=%d, want %d", tc.a, tc.b, sol.IntValue(c), tc.want)
		}
	}
}

func TestOrGEAtLeastOneHolds(t *testing.T) {
	// x ≥ 7 ∨ x ≤ 2 (written as 2−x ≥ 0); minimizing x gives 0; forcing
	// x ≥ 3 via an extra constraint pushes the solution to x = 7.
	m := lp.NewModel("t", lp.Minimize)
	x := m.NewVar(0, 10, true, "x")
	m.SetObjCoef(x, 1)
	OrGE(m, []Expr{
		NewExpr(-7, lp.Term{Var: x, Coef: 1}),
		NewExpr(2, lp.Term{Var: x, Coef: -1}),
	}, "or")
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.GE, 3)
	sol := solve(t, m)
	if sol.IntValue(x) != 7 {
		t.Fatalf("x=%d, want 7", sol.IntValue(x))
	}
}

func TestMaxEqualsComputesMax(t *testing.T) {
	// y = max(a, b, c) with fixed a, b, c. MaxEquals pins y to the exact max
	// regardless of the objective; push y upward to prove the ≤ side binds.
	for _, tc := range []struct {
		a, b, c int64
		want    int64
	}{{3, 7, 5, 7}, {9, 1, 1, 9}, {2, 2, 2, 2}, {0, 0, 6, 6}} {
		m := lp.NewModel("t", lp.Minimize)
		a := m.NewVar(0, 10, true, "a")
		b := m.NewVar(0, 10, true, "b")
		c := m.NewVar(0, 10, true, "c")
		y := m.NewVar(0, 100, true, "y")
		m.AddConstr([]lp.Term{{Var: a, Coef: 1}}, lp.EQ, float64(tc.a))
		m.AddConstr([]lp.Term{{Var: b, Coef: 1}}, lp.EQ, float64(tc.b))
		m.AddConstr([]lp.Term{{Var: c, Coef: 1}}, lp.EQ, float64(tc.c))
		MaxEquals(m, y, []Expr{VarExpr(a), VarExpr(b), VarExpr(c)}, "max")
		m.SetObjCoef(y, -1) // minimize −y = maximize y: must not exceed the max
		sol := solve(t, m)
		if sol.IntValue(y) != tc.want {
			t.Fatalf("max(%d,%d,%d)=%d, want %d", tc.a, tc.b, tc.c, sol.IntValue(y), tc.want)
		}
	}
}

func TestMaxEqualsSingleExpr(t *testing.T) {
	m := lp.NewModel("t", lp.Minimize)
	a := m.NewVar(4, 4, true, "a")
	y := m.NewVar(0, 100, true, "y")
	if bs := MaxEquals(m, y, []Expr{VarExpr(a)}, "max"); bs != nil {
		t.Fatal("single-expression max should not create binaries")
	}
	sol := solve(t, m)
	if sol.IntValue(y) != 4 {
		t.Fatalf("y=%d, want 4", sol.IntValue(y))
	}
}

func TestMaxEqualsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		k := 2 + rng.Intn(4)
		vals := make([]int64, k)
		want := int64(math.MinInt64)
		m := lp.NewModel("t", lp.Minimize)
		es := make([]Expr, k)
		for i := 0; i < k; i++ {
			vals[i] = int64(rng.Intn(21))
			if vals[i] > want {
				want = vals[i]
			}
			v := m.NewVar(float64(vals[i]), float64(vals[i]), true, "v")
			es[i] = VarExpr(v)
		}
		y := m.NewVar(0, 50, true, "y")
		MaxEquals(m, y, es, "max")
		sol := solve(t, m)
		if sol.IntValue(y) != want {
			t.Fatalf("trial %d: y=%d, want %d (vals=%v)", trial, sol.IntValue(y), want, vals)
		}
	}
}

func TestPlainRelations(t *testing.T) {
	m := lp.NewModel("t", lp.Maximize)
	x := m.NewVar(0, 10, true, "x")
	m.SetObjCoef(x, 1)
	LE(m, NewExpr(-6, lp.Term{Var: x, Coef: 1})) // x ≤ 6
	sol := solve(t, m)
	if sol.IntValue(x) != 6 {
		t.Fatalf("x=%d, want 6", sol.IntValue(x))
	}

	m2 := lp.NewModel("t2", lp.Minimize)
	y := m2.NewVar(0, 10, true, "y")
	m2.SetObjCoef(y, 1)
	GE(m2, NewExpr(-4, lp.Term{Var: y, Coef: 1})) // y ≥ 4
	sol2 := solve(t, m2)
	if sol2.IntValue(y) != 4 {
		t.Fatalf("y=%d, want 4", sol2.IntValue(y))
	}

	m3 := lp.NewModel("t3", lp.Minimize)
	z := m3.NewVar(0, 10, true, "z")
	EQ(m3, NewExpr(-5, lp.Term{Var: z, Coef: 1})) // z = 5
	sol3 := solve(t, m3)
	if sol3.IntValue(z) != 5 {
		t.Fatalf("z=%d, want 5", sol3.IntValue(z))
	}
}

// TestHelpersDoNotAliasExpr: one Expr passed in turn to ImpliesGE, IffGE
// and MaxEquals — its terms in a backing array with spare capacity that
// holds other data — yields exactly the rows built from fresh copies, and
// neither its terms nor the data past them change.
func TestHelpersDoNotAliasExpr(t *testing.T) {
	build := func(shared bool) (string, []lp.Term) {
		m := lp.NewModel("alias", lp.Maximize)
		x := m.NewVar(0, 10, true, "x")
		y := m.NewVar(0, 10, true, "y")
		z := m.NewVar(0, 20, true, "z")
		b := m.NewBinary("b")
		backing := []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -1}, {Var: z, Coef: 7}, {Var: z, Coef: 9}}
		e := Expr{Terms: backing[:2], Const: -3}
		expr := func() Expr {
			if shared {
				return e
			}
			return NewExpr(-3, lp.Term{Var: x, Coef: 1}, lp.Term{Var: y, Coef: -1})
		}
		ImpliesGE(m, b, expr())
		IffGE(m, expr(), "iff")
		MaxEquals(m, z, []Expr{expr(), expr()}, "max")
		var sb strings.Builder
		if err := m.WriteLP(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String(), backing
	}
	want, _ := build(false)
	got, backing := build(true)
	if got != want {
		t.Fatalf("rows from one shared Expr:\n%s\nfrom fresh copies:\n%s", got, want)
	}
	if backing[0].Coef != 1 || backing[1].Coef != -1 || backing[2].Coef != 7 || backing[3].Coef != 9 {
		t.Fatalf("helpers wrote into the caller's backing array: %v", backing)
	}
}
