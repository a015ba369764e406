package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"regsat/internal/lp"
	"regsat/internal/obs"
	"regsat/internal/solver/solvertest"
)

// bigKnapsack is a 12-item 0/1 knapsack: small enough for brute force, big
// enough that the cold root needs several dual pivots and the search
// branches.
func bigKnapsack() *lp.Model {
	rng := rand.New(rand.NewSource(5))
	m := lp.NewModel("knap12", lp.Maximize)
	var terms []lp.Term
	for i := 0; i < 12; i++ {
		x := m.NewBinary("x")
		m.SetObjCoef(x, float64(3+rng.Intn(12)))
		terms = append(terms, lp.Term{Var: x, Coef: float64(2 + rng.Intn(9))})
	}
	m.AddConstr(terms, lp.LE, 27)
	return m
}

// withNodeHook installs testHookNodeSolve for the duration of the test.
func withNodeHook(t *testing.T, hook func(w *spx, nd *qnode, retry bool)) {
	t.Helper()
	testHookNodeSolve = hook
	t.Cleanup(func() { testHookNodeSolve = nil })
}

// forceIterLimit makes the coming node solve stop at the iteration cap: one
// iteration is allowed, so any solve needing two or more pivots fails.
func forceIterLimit(w *spx, on bool) {
	w.iterLimit = 0
	if on {
		w.iterLimit = 1
	}
}

// dropRows simulates a drifted tableau on a freshly rebuilt one: every row
// loses its structural coefficients, so the tableau solves only the variable
// bounds. Its optimum is integral (every variable on a bound) but violates
// the model rows, which the check against the exact sparse rows catches.
func dropRows(w *spx) {
	p := w.p
	for i := 0; i < p.m; i++ {
		clear(w.row(i))
		w.xB[i] = p.rhs[i]
	}
}

// TestRecoveryRetryReachesOptimum: one numerical-trouble event at the root
// — the iteration cap, or an integer point failing verification — is
// repaired by a single rebuild from the exact matrix: the solve still proves
// the brute-force optimum, counts one recovery in Stats.Fallbacks, and
// traces one "recover" event.
func TestRecoveryRetryReachesOptimum(t *testing.T) {
	want := solvertest.BruteForce(bigKnapsack())
	for _, tc := range []struct {
		cause string
		hook  func(w *spx, nd *qnode, retry bool)
	}{
		{"iter-limit", func(w *spx, nd *qnode, retry bool) { forceIterLimit(w, nd.vr < 0 && !retry) }},
		{"verify", func(w *spx, nd *qnode, retry bool) {
			if nd.vr < 0 && !retry {
				dropRows(w)
			}
		}},
	} {
		withNodeHook(t, tc.hook)
		tr := obs.NewTracer(obs.Config{SampleRate: 1})
		ctx, root := tr.StartRequest(context.Background(), "test", obs.Link{}, true)
		sol, err := Solve(ctx, bigKnapsack(), Options{DisablePresolve: true})
		root.End()
		if err != nil {
			t.Fatalf("%s: %v", tc.cause, err)
		}
		if sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-want.Obj) > 1e-6 {
			t.Fatalf("%s: %v/%g after recovery, brute force %g", tc.cause, sol.Status, sol.Obj, want.Obj)
		}
		if sol.Stats.Fallbacks != 1 {
			t.Fatalf("%s: Fallbacks=%d, want exactly one recovery", tc.cause, sol.Stats.Fallbacks)
		}
		var events []obs.EventData
		for _, sp := range tr.Collect(root.TraceID()) {
			for _, ev := range sp.Events {
				if ev.Name == "recover" {
					events = append(events, ev)
				}
			}
		}
		if len(events) != 1 || events[0].Attrs["cause"] != tc.cause || events[0].Attrs["abandoned"] != "false" {
			t.Fatalf("%s: recover events %+v, want one for this cause, not abandoned", tc.cause, events)
		}
	}
}

// TestRecoveryRepeatedFailureCaps: a node still in trouble after its rebuild
// is abandoned at its parent bound. The solve then reports a capped interval
// — never a wrong answer — and that interval contains the brute-force
// optimum.
func TestRecoveryRepeatedFailureCaps(t *testing.T) {
	want := solvertest.BruteForce(bigKnapsack())
	for _, tc := range []struct {
		cause string
		hook  func(w *spx, nd *qnode, retry bool)
	}{
		// Every non-root solve needing two or more pivots fails, cold
		// retries included; the root solves normally so bounds stay finite.
		{"iter-limit", func(w *spx, nd *qnode, retry bool) { forceIterLimit(w, nd.vr >= 0) }},
		// Every rebuilt non-root tableau drifts (queue pops and retries).
		{"verify", func(w *spx, nd *qnode, retry bool) {
			if nd.vr >= 0 && w.pivots == 0 {
				dropRows(w)
			}
		}},
		// Everything fails, the root included: no incumbent, no bound.
		{"root", func(w *spx, nd *qnode, retry bool) { forceIterLimit(w, true) }},
	} {
		withNodeHook(t, tc.hook)
		sol, err := Solve(context.Background(), bigKnapsack(), Options{DisablePresolve: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.cause, err)
		}
		if !sol.Capped || sol.Status == lp.StatusOptimal {
			t.Fatalf("%s: status %v capped=%v, want a capped solve", tc.cause, sol.Status, sol.Capped)
		}
		if sol.Stats.Fallbacks == 0 {
			t.Fatalf("%s: no recovery counted", tc.cause)
		}
		if want.Obj > sol.Bound+1e-9 {
			t.Fatalf("%s: bound %g below the brute-force optimum %g", tc.cause, sol.Bound, want.Obj)
		}
		if sol.Feasible() && sol.Obj > want.Obj+1e-9 {
			t.Fatalf("%s: incumbent %g above the brute-force optimum %g", tc.cause, sol.Obj, want.Obj)
		}
	}
}
