package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"regsat/internal/lp"
	"regsat/internal/solver/solvertest"
)

func solveWith(t *testing.T, m *lp.Model, opt Options) *Solution {
	t.Helper()
	sol, err := Solve(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// checkOracle requires sol to match the brute-force optimum of m: the same
// feasibility verdict and, when feasible, a proven optimum of equal value.
func checkOracle(t *testing.T, tag string, m *lp.Model, sol *Solution) {
	t.Helper()
	want := solvertest.BruteForce(m)
	if !want.Found {
		if sol.Status != lp.StatusInfeasible {
			t.Fatalf("%s: status %v, brute force says infeasible\n%s", tag, sol.Status, m.String())
		}
		return
	}
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-want.Obj) > 1e-6 {
		t.Fatalf("%s: %v/%g, brute force optimum %g\n%s", tag, sol.Status, sol.Obj, want.Obj, m.String())
	}
}

func knapsack() *lp.Model {
	m := lp.NewModel("knap", lp.Maximize)
	w := []float64{2, 3, 4, 5, 9}
	v := []float64{3, 4, 5, 8, 10}
	var terms []lp.Term
	for i := range w {
		x := m.NewBinary("x")
		m.SetObjCoef(x, v[i])
		terms = append(terms, lp.Term{Var: x, Coef: w[i]})
	}
	m.AddConstr(terms, lp.LE, 13)
	return m
}

// TestKnapsackAllBackends solves the knapsack; the engine must prove the
// brute-force optimum with a closed interval.
func TestKnapsackAllBackends(t *testing.T) {
	m := knapsack()
	sol := solveWith(t, m, Options{})
	checkOracle(t, "knapsack", m, sol)
	if sol.Gap != 0 || sol.Bound != sol.Obj {
		t.Fatalf("optimal solve reported bound %g gap %g", sol.Bound, sol.Gap)
	}
}

// randomMILP builds a small random pure-integer program, small enough for
// solvertest.BruteForce.
func randomMILP(rng *rand.Rand) *lp.Model {
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
	return m
}

// TestBackendsAgreeRandom cross-validates the engine against brute-force
// enumeration on hundreds of random integer programs, including infeasible
// ones.
func TestBackendsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	trials := 400
	if testing.Short() {
		trials = 120
	}
	for trial := 0; trial < trials; trial++ {
		m := randomMILP(rng)
		checkOracle(t, fmt.Sprintf("trial %d", trial), m, solveWith(t, m, Options{}))
	}
}

// TestMixedIntegerContinuous checks the sparse engine on a model with a
// continuous variable (only the integer one is branched).
func TestMixedIntegerContinuous(t *testing.T) {
	m := lp.NewModel("mix", lp.Maximize)
	x := m.NewVar(0, 10, true, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(x, 2)
	m.SetObjCoef(y, 3)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.LE, 7.5)
	sol := solveWith(t, m, Options{})
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	// x integer, y continuous: best is x=7, y=0.25 → 14.75.
	if math.Abs(sol.Obj-14.75) > 1e-6 {
		t.Fatalf("obj %g, want 14.75", sol.Obj)
	}
}

// TestCutoffSeeding verifies that seeding with an achievable objective keeps
// the solve exact while pruning the tree.
func TestCutoffSeeding(t *testing.T) {
	ref := solvertest.BruteForce(knapsack())
	m := knapsack()
	sol := solveWith(t, m, Options{Cutoff: CutoffAt(ref.Obj)})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-ref.Obj) > 1e-6 {
		t.Fatalf("seeded at the optimum: status %v obj %g, want optimal %g", sol.Status, sol.Obj, ref.Obj)
	}
	m2 := knapsack()
	sol2 := solveWith(t, m2, Options{Cutoff: CutoffAt(ref.Obj - 3)})
	if sol2.Status != lp.StatusOptimal || math.Abs(sol2.Obj-ref.Obj) > 1e-6 {
		t.Fatalf("seeded below the optimum: status %v obj %g, want optimal %g", sol2.Status, sol2.Obj, ref.Obj)
	}
}

// TestNodeLimitReportsInterval: a capped solve reports the incumbent and the
// dual bound bracketing the true optimum (satellite: capped solves surface
// the interval like rs.ExactStats.Capped).
func TestNodeLimitReportsInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := lp.NewModel("cap", lp.Maximize)
	var terms []lp.Term
	for i := 0; i < 18; i++ {
		x := m.NewBinary("x")
		m.SetObjCoef(x, float64(1+rng.Intn(9)))
		terms = append(terms, lp.Term{Var: x, Coef: float64(2 + rng.Intn(5))})
	}
	m.AddConstr(terms, lp.LE, 23)
	sol := solveWith(t, m, Options{MaxNodes: 3})
	if !sol.Capped {
		t.Fatalf("3-node solve of an 18-item knapsack not capped (status %v)", sol.Status)
	}
	want := solvertest.BruteForce(m).Obj
	if want > sol.Bound+1e-9 {
		t.Fatalf("maximize bound %g below the brute-force optimum %g", sol.Bound, want)
	}
	if sol.Status == lp.StatusFeasible {
		if sol.Obj > want+1e-9 {
			t.Fatalf("incumbent %g above the brute-force optimum %g", sol.Obj, want)
		}
		if math.Abs(sol.Gap-(sol.Bound-sol.Obj)) > 1e-9 {
			t.Fatalf("gap %g inconsistent with [%g, %g]", sol.Gap, sol.Obj, sol.Bound)
		}
	}
}

// TestContextCancellation: cancelling the context interrupts an in-flight
// solve promptly and surfaces the context error.
func TestContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := lp.NewModel("slow", lp.Maximize)
	var terms []lp.Term
	for i := 0; i < 40; i++ {
		x := m.NewBinary("x")
		m.SetObjCoef(x, float64(1+rng.Intn(50)))
		terms = append(terms, lp.Term{Var: x, Coef: float64(1 + rng.Intn(40))})
	}
	m.AddConstr(terms, lp.LE, 300)
	for i := 0; i < 30; i++ {
		a, c := lp.Var(rng.Intn(40)), lp.Var(rng.Intn(40))
		if a == c {
			continue
		}
		m.AddConstr([]lp.Term{{Var: a, Coef: 1}, {Var: c, Coef: 1}}, lp.LE, 1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the solve must return immediately
	start := time.Now()
	sol, err := Solve(ctx, m, Options{MaxNodes: 10_000_000})
	if err == nil {
		t.Fatal("cancelled solve returned no error")
	}
	if sol == nil {
		t.Fatal("cancelled solve returned nil solution")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled solve took %v", elapsed)
	}
}

// TestWarmStartsHappen: on a model needing real branching, the sparse engine
// must serve most node solves warm from the parent basis.
func TestWarmStartsHappen(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := lp.NewModel("warm", lp.Maximize)
	var terms []lp.Term
	for i := 0; i < 16; i++ {
		x := m.NewBinary("x")
		m.SetObjCoef(x, float64(3+rng.Intn(9)))
		terms = append(terms, lp.Term{Var: x, Coef: float64(2 + rng.Intn(7))})
	}
	m.AddConstr(terms, lp.LE, 31)
	sol := solveWith(t, m, Options{})
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Stats.Nodes > 4 && sol.Stats.WarmStarts == 0 {
		t.Fatalf("no warm starts across %d nodes (stats %+v)", sol.Stats.Nodes, sol.Stats)
	}
}

func TestInfeasibleModel(t *testing.T) {
	for _, opt := range []Options{{}, {DisablePresolve: true, DisableCuts: true}} {
		m := lp.NewModel("inf", lp.Minimize)
		x := m.NewVar(0, 5, true, "x")
		m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.GE, 3)
		m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.LE, 2)
		sol := solveWith(t, m, opt)
		if sol.Status != lp.StatusInfeasible {
			t.Fatalf("%+v: status %v, want infeasible", opt, sol.Status)
		}
	}
}

// TestInfiniteBoundIsModelError: the engine starts every node from a
// dual-feasible basis, which needs a finite bound on each cost-bearing
// variable's improving side and on every free variable. A model without one
// is rejected with an error naming the variable, whatever the sense.
func TestInfiniteBoundIsModelError(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name   string
		sense  lp.Sense
		lo, hi float64
		cost   float64
		want   string
	}{
		{"max-up", lp.Maximize, 0, inf, 1, "no finite upper bound"},
		{"min-down", lp.Minimize, -inf, 0, 2, "no finite lower bound"},
		{"min-neg-cost", lp.Minimize, 0, inf, -1, "no finite upper bound"},
		{"free", lp.Minimize, -inf, inf, 0, "is free"},
	} {
		m := lp.NewModel("unb", tc.sense)
		m.NewVar(0, 1, true, "ok")
		x := m.NewVar(tc.lo, tc.hi, false, "ray_"+tc.name)
		m.SetObjCoef(x, tc.cost)
		sol, err := Solve(context.Background(), m, Options{})
		if err == nil {
			t.Fatalf("%s: no error (status %v)", tc.name, sol.Status)
		}
		if !strings.Contains(err.Error(), "ray_"+tc.name) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name the variable and %q", tc.name, err, tc.want)
		}
	}
	// A one-sided infinite bound away from the improving side is fine.
	m := lp.NewModel("half", lp.Minimize)
	x := m.NewVar(2, inf, false, "x")
	m.SetObjCoef(x, 1)
	if sol := solveWith(t, m, Options{}); sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-2) > 1e-9 {
		t.Fatalf("min x, x ≥ 2: %v/%g, want optimal 2", sol.Status, sol.Obj)
	}
}

// TestOptionsKeyStable pins the cache-key rendering: result stores persist
// these strings, so the default key and the non-default variants must stay
// byte-for-byte what releases with several engines wrote (the leading
// "sparse|" named the engine then).
func TestOptionsKeyStable(t *testing.T) {
	for _, tc := range []struct {
		opt  Options
		want string
	}{
		{Options{}, "sparse|n200000|t0s|i1e-06|p0|c-"},
		{Options{MaxNodes: 10000}, "sparse|n10000|t0s|i1e-06|p0|c-"},
		{Options{Cutoff: CutoffAt(7), ExclusiveCutoff: true}, "sparse|n200000|t0s|i1e-06|p0|c7!"},
		{Options{DisableCuts: true}, "sparse|n200000|t0s|i1e-06|p0|c-|nocuts"},
	} {
		if got := tc.opt.Key(); got != tc.want {
			t.Errorf("Key() = %q, want %q", got, tc.want)
		}
	}
}
