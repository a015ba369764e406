package solver

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"regsat/internal/lp"
	"regsat/internal/obs"
	"regsat/internal/solver/solvertest"
)

// conflictModel builds maximize Σ c_i x_i over binaries with a pairwise
// row x_i + x_j ≤ 1 per conflict edge.
func conflictModel(obj []float64, edges [][2]int) *lp.Model {
	m := lp.NewModel("conflict", lp.Maximize)
	for _, c := range obj {
		m.SetObjCoef(m.NewBinary("x"), c)
	}
	for _, e := range edges {
		m.AddConstr([]lp.Term{{Var: lp.Var(e[0]), Coef: 1}, {Var: lp.Var(e[1]), Coef: 1}},
			lp.LE, 1)
	}
	return m
}

// TestCliqueCutsSeparatedAtRoot: on a full conflict graph the pairwise LP
// relaxation sits at x = 1/2 everywhere, so the hinted clique over all
// members is violated at the root and must be separated; the integer
// optimum is unchanged.
func TestCliqueCutsSeparatedAtRoot(t *testing.T) {
	const k = 6
	obj := make([]float64, k)
	var edges [][2]int
	var cliqueVars []lp.Var
	for i := 0; i < k; i++ {
		obj[i] = 1
		cliqueVars = append(cliqueVars, lp.Var(i))
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	m := conflictModel(obj, edges)
	hints := cliqueHints([]Clique{{Vars: cliqueVars, RHS: 1}})
	sol := solveWith(t, m, Options{Hints: hints})
	checkOracle(t, "with cuts", conflictModel(obj, edges), sol)
	if sol.Stats.CutsAdded == 0 {
		t.Fatalf("violated clique not separated at the root: %+v", sol.Stats)
	}
	if sol.Stats.CutsActive == 0 {
		t.Fatalf("the cut is tight at every maximal incumbent but CutsActive=0: %+v", sol.Stats)
	}
}

// TestCliqueHintsAgreeRandom is the cut-validity property test: on random
// conflict graphs every triangle yields a valid clique (its three pairwise
// rows enforce it), so hinting the triangles must never change the proven
// optimum, only the work to reach it.
func TestCliqueHintsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 60
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		nv := 6 + rng.Intn(8)
		obj := make([]float64, nv)
		for i := range obj {
			obj[i] = float64(1 + rng.Intn(9))
		}
		adj := make([]bool, nv*nv)
		var edges [][2]int
		for i := 0; i < nv; i++ {
			for j := i + 1; j < nv; j++ {
				if rng.Intn(3) > 0 {
					adj[i*nv+j] = true
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		var cliques []Clique
		for i := 0; i < nv; i++ {
			for j := i + 1; j < nv; j++ {
				for k := j + 1; k < nv; k++ {
					if adj[i*nv+j] && adj[i*nv+k] && adj[j*nv+k] {
						cliques = append(cliques, Clique{
							Vars: []lp.Var{lp.Var(i), lp.Var(j), lp.Var(k)},
							RHS:  1,
						})
					}
				}
			}
		}
		hints := cliqueHints(cliques)
		sol := solveWith(t, conflictModel(obj, edges), Options{Hints: hints})
		checkOracle(t, fmt.Sprintf("trial %d with %d hinted triangles", trial, len(cliques)),
			conflictModel(obj, edges), sol)
		// The incumbent must satisfy every hinted clique (they are valid
		// inequalities of the model).
		if sol.Feasible() && !sol.AtCutoff {
			for _, c := range cliques {
				sum := 0.0
				for _, v := range c.Vars {
					sum += sol.X[v]
				}
				if sum > float64(c.RHS)+1e-6 {
					t.Fatalf("trial %d: incumbent violates hinted clique %v: Σ=%g > %d",
						trial, c.Vars, sum, c.RHS)
				}
			}
		}
	}
}

// TestRemapCliquesFolding: the presolve column map folds fixed variables
// out of hinted cliques — ones consume right-hand side, zeros drop out —
// and contradictions surface as infeasibility.
func TestRemapCliquesFolding(t *testing.T) {
	build := func(lo0, hi0, lo1, hi1 float64) *presolved {
		m := lp.NewModel("remap", lp.Maximize)
		m.NewVar(lo0, hi0, true, "a")
		m.NewVar(lo1, hi1, true, "b")
		m.NewBinary("c")
		m.NewBinary("d")
		for v := 0; v < 4; v++ {
			m.SetObjCoef(lp.Var(v), 1)
		}
		return mustPresolve(t, m, true)
	}
	clique := func(rhs int, vars ...lp.Var) []Clique {
		return []Clique{{Vars: vars, RHS: rhs}}
	}

	// a fixed at 1: the clique loses a column and one unit of rhs.
	ps := build(1, 1, 0, 1)
	got, infeasible := remapCliques(clique(1, 0, 1, 2, 3), ps)
	if infeasible || len(got) != 1 {
		t.Fatalf("fixed-one fold: got %d cliques, infeasible=%v", len(got), infeasible)
	}
	if got[0].rhs != 0 || len(got[0].cols) != 3 {
		t.Fatalf("fixed-one fold: rhs=%g cols=%v, want rhs 0 over 3 columns", got[0].rhs, got[0].cols)
	}

	// a and b both fixed at 1 with rhs 1: -1 remaining — infeasible.
	ps = build(1, 1, 1, 1)
	if _, infeasible = remapCliques(clique(1, 0, 1, 2, 3), ps); !infeasible {
		t.Fatal("two ones in a rhs-1 clique not flagged infeasible")
	}

	// a fixed at 0: drops out without touching the rhs.
	ps = build(0, 0, 0, 1)
	got, infeasible = remapCliques(clique(1, 0, 1, 2, 3), ps)
	if infeasible || len(got) != 1 || got[0].rhs != 1 || len(got[0].cols) != 3 {
		t.Fatalf("fixed-zero fold: got %+v, infeasible=%v", got, infeasible)
	}

	// Slack cliques (rhs covers all members) and sub-pair remnants discard.
	ps = build(0, 1, 0, 1)
	if got, _ = remapCliques(clique(4, 0, 1, 2, 3), ps); len(got) != 0 {
		t.Fatalf("slack clique not discarded: %+v", got)
	}

	// Duplicates collapse; output order is deterministic.
	ps = build(0, 1, 0, 1)
	h := []Clique{
		{Vars: []lp.Var{2, 3, 0}, RHS: 1},
		{Vars: []lp.Var{0, 2, 3}, RHS: 1},
		{Vars: []lp.Var{1, 2, 3}, RHS: 1},
	}
	got, infeasible = remapCliques(h, ps)
	if infeasible || len(got) != 2 {
		t.Fatalf("dedup: got %d cliques, want 2", len(got))
	}
	if got[0].cols[0] > got[1].cols[0] {
		t.Fatalf("remapped cliques not in deterministic order: %v, %v", got[0].cols, got[1].cols)
	}
}

// TestRemapCliquesNonBinary: a clique touching a general-integer column is
// disqualified rather than emitted unsoundly.
func TestRemapCliquesNonBinary(t *testing.T) {
	m := lp.NewModel("nonbin", lp.Maximize)
	m.NewVar(0, 3, true, "g")
	m.NewBinary("x")
	m.NewBinary("y")
	ps := mustPresolve(t, m, true)
	h := []Clique{{Vars: []lp.Var{0, 1, 2}, RHS: 1}}
	got, infeasible := remapCliques(h, ps)
	if infeasible || len(got) != 0 {
		t.Fatalf("clique over a [0,3] integer survived remap: %+v", got)
	}
}

// TestCutsDisabled: DisableCuts must suppress separation entirely.
func TestCutsDisabled(t *testing.T) {
	const k = 5
	obj := make([]float64, k)
	var edges [][2]int
	var vars []lp.Var
	for i := 0; i < k; i++ {
		obj[i] = 1
		vars = append(vars, lp.Var(i))
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	hints := cliqueHints([]Clique{{Vars: vars, RHS: 1}})
	sol := solveWith(t, conflictModel(obj, edges), Options{Hints: hints, DisableCuts: true})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-1) > 1e-6 {
		t.Fatalf("optimum %v/%g, want optimal 1", sol.Status, sol.Obj)
	}
	if sol.Stats.CutsAdded != 0 {
		t.Fatalf("cuts added with DisableCuts: %+v", sol.Stats)
	}
}

// hintedConflict draws a weighted maximum-independent-set model over a
// random conflict graph (pairwise rows x_i + x_j ≤ 1) on 12 to 20 vertices
// with every triangle hinted as a clique, so root separation has violated
// cliques to add.
func hintedConflict(rng *rand.Rand) (*lp.Model, *Hints) {
	return hintedConflictN(rng, 12+rng.Intn(9))
}

// hintedConflictN is hintedConflict on nv vertices.
func hintedConflictN(rng *rand.Rand, nv int) (*lp.Model, *Hints) {
	obj := make([]float64, nv)
	for i := range obj {
		obj[i] = float64(1 + rng.Intn(9))
	}
	adj := make([]bool, nv*nv)
	var edges [][2]int
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			if rng.Intn(2) == 0 {
				adj[i*nv+j] = true
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	var cl []Clique
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			for k := j + 1; k < nv; k++ {
				if adj[i*nv+j] && adj[i*nv+k] && adj[j*nv+k] {
					cl = append(cl, Clique{Vars: []lp.Var{lp.Var(i), lp.Var(j), lp.Var(k)}, RHS: 1})
				}
			}
		}
	}
	return conflictModel(obj, edges), cliqueHints(cl)
}

// completeConflict is the conflict model over the complete graph K_k with
// the given vertex weights, hinted with every clique of each listed size.
// Its LP relaxation without cuts is x = 1/2 everywhere.
func completeConflict(obj []float64, sizes ...int) (*lp.Model, *Hints) {
	k := len(obj)
	var edges [][2]int
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	var cl []Clique
	var pick func(from int, vars []lp.Var, size int)
	pick = func(from int, vars []lp.Var, size int) {
		if len(vars) == size {
			cl = append(cl, Clique{Vars: slices.Clone(vars), RHS: 1})
			return
		}
		for v := from; v < k; v++ {
			pick(v+1, append(vars, lp.Var(v)), size)
		}
	}
	for _, size := range sizes {
		pick(0, nil, size)
	}
	return conflictModel(obj, edges), cliqueHints(cl)
}

// cliqueHints hints the fixed clique list cl.
func cliqueHints(cl []Clique) *Hints {
	return &Hints{Cliques: func() []Clique { return cl }}
}

// pointOf returns the structural point w holds.
func pointOf(w *spx) []float64 {
	x := make([]float64, w.p.n)
	w.extract(x)
	return x
}

// separateAsSolve replays the sparse backend's steps up to and including
// the root solve and its separation on a private presolved copy of m,
// without a prune target.
func separateAsSolve(t *testing.T, m *lp.Model, h *Hints) rootSolve {
	t.Helper()
	ps := mustPresolve(t, m, true)
	if ps.infeasible {
		t.Fatal("presolve proved the model infeasible")
	}
	r := solveRoot(ps.p, h, ps, make([]float64, ps.p.n), math.Inf(1), nil)
	if r.st == spxInfeasible && r.cliques == nil {
		t.Fatal("hinted cliques proved the model infeasible")
	}
	return r
}

// checkOptimalBasis requires w to hold an optimal basis: every basic value
// within its bounds (no primal violation) and every reduced cost of the
// sign its nonbasic column's bound demands (dual feasible).
func checkOptimalBasis(t *testing.T, tag string, w *spx) {
	t.Helper()
	for i, b := range w.basis[:w.p.m] {
		if v := w.xB[i]; v < w.lo[b]-spxFeasTol || v > w.hi[b]+spxFeasTol {
			t.Fatalf("%s: basic column %d = %g outside [%g, %g]", tag, b, v, w.lo[b], w.hi[b])
		}
	}
	for j := 0; j < w.p.N; j++ {
		d := w.d[j]
		switch st := w.status[j]; {
		case st == spBasic:
			if d != 0 {
				t.Fatalf("%s: basic column %d has reduced cost %g", tag, j, d)
			}
		case w.lo[j] == w.hi[j]:
		case st == spAtLower && d < -spxDualTol, st == spAtUpper && d > spxDualTol:
			t.Fatalf("%s: nonbasic column %d (status %d) has reduced cost %g of the wrong sign", tag, j, st, d)
		}
	}
}

// TestSeparateRootHandsOffSolvedRoot: when separation converges, the
// tableau it returns is an optimal root of the final model, so the search
// may adopt it for the root node. It spans every row of that model, its
// iterations are already counted, its point satisfies the exact rows, its
// basis is primal and dual feasible, and its objective is the one a cold
// solve of the final model reaches. Warm rounds may stop at a different
// optimal vertex of a degenerate LP than a cold solve, so the vertex itself
// is not compared.
func TestSeparateRootHandsOffSolvedRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	handed, warm := 0, 0
	for trial := 0; trial < 20; trial++ {
		m, h := hintedConflict(rng)
		sep := separateAsSolve(t, m, h)
		if sep.root == nil {
			continue
		}
		handed++
		if sep.rounds > 1 {
			warm++
		}
		tag := fmt.Sprintf("trial %d", trial)
		root := sep.root
		p := root.p
		if p != sep.p || p.m != len(p.rhs) || len(p.rowPtr) != p.m+1 {
			t.Fatalf("%s: handed-off root has %d rows, the final problem %d", tag, p.m, sep.p.m)
		}
		if root.iters != 0 || root.blandIters != 0 {
			t.Fatalf("%s: handed-off root still holds %d iterations: they would be counted twice", tag, root.iters)
		}
		if !root.verify(pointOf(root)) {
			t.Fatalf("%s: handed-off root's point violates the exact rows", tag)
		}
		checkOptimalBasis(t, tag, root)
		cold := newSpx(p)
		cold.reset(p.rootLo, p.rootHi)
		if st := cold.dual(math.Inf(1)); st != spxOptimal {
			t.Fatalf("%s: cold root solve %v", tag, st)
		}
		if got, want := root.obj(), cold.obj(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: handed-off root objective %.17g, cold solve %.17g", tag, got, want)
		}
		releaseSpx(cold)
		releaseSpx(root)
	}
	if handed == 0 || warm == 0 {
		t.Fatalf("separation converged %d times, %d of them after a warm round: too little was compared", handed, warm)
	}
}

// k12 is the unit-weight complete conflict graph K12 hinted with all of its
// 3- and 4-member cliques: 715 of them, all violated by the root LP.
func k12() (*lp.Model, *Hints) {
	obj := make([]float64, 12)
	for i := range obj {
		obj[i] = 1
	}
	return completeConflict(obj, 3, 4)
}

// TestSolveRootCapsAndCancel: when a cap stops separation with cuts the
// LP has not seen, solveRoot solves the grown root from a cold start and
// hands that off; a cancelled root hands off nothing; a solve without hints
// hands off the one root LP it solved.
func TestSolveRootCapsAndCancel(t *testing.T) {
	// On the complete conflict graph K12 the LP relaxation is x = 1/2
	// everywhere, which violates every hinted 3- and 4-member clique: more
	// than the cut cap in the first round.
	m12, h := k12()
	if n := len(h.Cliques()); n <= cutMaxAdded {
		t.Fatalf("%d cliques cannot reach the cut cap %d", n, cutMaxAdded)
	}
	sep := separateAsSolve(t, m12, h)
	if sep.added != cutMaxAdded || !sep.rebuilt || sep.root == nil || sep.root.p != sep.p {
		t.Fatalf("cut cap: added %d, rebuilt %v, root handed off %v; want %d added and the rebuilt root of the grown problem",
			sep.added, sep.rebuilt, sep.root != nil, cutMaxAdded)
	}
	if sep.rounds != 2 || sep.iters == 0 {
		t.Fatalf("cut cap: %d root LPs in %d iterations, want the first and the rebuilt one", sep.rounds, sep.iters)
	}
	p := sep.p
	cold := newSpx(p)
	cold.reset(p.rootLo, p.rootHi)
	if st := cold.dual(math.Inf(1)); st != spxOptimal || !slices.Equal(pointOf(cold), pointOf(sep.root)) {
		t.Fatalf("cut cap: the handed-off root is not the cold solve of the grown problem (%v)", st)
	}
	releaseSpx(cold)
	releaseSpx(sep.root)

	m, hc := hintedConflict(rand.New(rand.NewSource(7)))
	ps := mustPresolve(t, m, true)
	x := make([]float64, ps.p.n)
	if sep := solveRoot(ps.p, hc, ps, x, math.Inf(1), func() bool { return true }); sep.root != nil || sep.st != spxCanceled || sep.iters != 0 {
		t.Fatalf("cancelled: %v after %d iterations, root handed off %v", sep.st, sep.iters, sep.root != nil)
	}
	sep = solveRoot(ps.p, nil, ps, x, math.Inf(1), nil)
	if sep.root == nil || sep.rounds != 1 || sep.added != 0 || sep.cliques != nil || sep.p != ps.p {
		t.Fatalf("no hints: root handed off %v after %d rounds, %d cuts", sep.root != nil, sep.rounds, sep.added)
	}
	releaseSpx(sep.root)
}

// TestRootHandoffSameSearch pins hinted solves: the status and objective
// the engine has always proven, an assignment attaining the brute-force
// optimum, and the node count, with one cold start fewer whenever
// separation converged (the search adopts the separation root instead of
// solving the root LP again).
func TestRootHandoffSameSearch(t *testing.T) {
	golden := []struct {
		status lp.Status
		obj    float64
		nodes  int64
		cold   int64 // ColdStarts without the handoff
	}{
		{lp.StatusOptimal, 31, 6, 3},
		{lp.StatusOptimal, 29, 1, 1},
		{lp.StatusOptimal, 23, 5, 3},
		{lp.StatusOptimal, 40, 1, 1},
		{lp.StatusOptimal, 28, 1, 1},
		{lp.StatusOptimal, 31, 7, 4},
		{lp.StatusOptimal, 29, 5, 3},
		{lp.StatusOptimal, 40, 1, 1},
		{lp.StatusOptimal, 33, 6, 3},
		{lp.StatusOptimal, 26, 2, 1},
		{lp.StatusOptimal, 29, 1, 1},
		{lp.StatusOptimal, 23, 2, 1},
	}
	rng := rand.New(rand.NewSource(14))
	for trial, want := range golden {
		m, h := hintedConflict(rng)
		converged := separateAsSolve(t, m, h).root != nil
		sol := solveWith(t, m, Options{Hints: h})
		wantCold := want.cold
		if converged {
			wantCold--
		}
		if sol.Status != want.status || sol.Obj != want.obj || sol.Stats.Nodes != want.nodes {
			t.Fatalf("trial %d: %v obj %g nodes %d; want %v obj %g nodes %d",
				trial, sol.Status, sol.Obj, sol.Stats.Nodes, want.status, want.obj, want.nodes)
		}
		if sol.Stats.ColdStarts != wantCold {
			t.Fatalf("trial %d: %d cold starts, want %d (separation converged: %v)",
				trial, sol.Stats.ColdStarts, wantCold, converged)
		}
		tag := fmt.Sprintf("trial %d", trial)
		checkSatisfies(t, m, sol.X, tag)
		obj := 0.0
		for j, x := range sol.X {
			obj += m.ObjCoef(lp.Var(j)) * x
		}
		if bf := solvertest.BruteForce(m); !bf.Found || obj != bf.Obj {
			t.Fatalf("%s: assignment attains %g, brute-force optimum %g", tag, obj, bf.Obj)
		}
	}
}

// TestSeparationItersCounted: the simplex iterations of root separation are
// part of Stats.SimplexIters, counted once even though the search adopts
// the final round's tableau. On K6 with distinct weights the clique cut
// makes the root LP integral, so the search adds exactly one iteration: the
// root node's check of the adopted optimal basis.
func TestSeparationItersCounted(t *testing.T) {
	const k = 6
	obj := make([]float64, k)
	var edges [][2]int
	var all []lp.Var
	for i := 0; i < k; i++ {
		obj[i] = float64(k - i)
		all = append(all, lp.Var(i))
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	h := cliqueHints([]Clique{{Vars: all, RHS: 1}})
	sep := separateAsSolve(t, conflictModel(obj, edges), h)
	if sep.added == 0 || sep.root == nil || sep.iters == 0 {
		t.Fatalf("separation: added %d, converged %v, %d iterations", sep.added, sep.root != nil, sep.iters)
	}
	sol := solveWith(t, conflictModel(obj, edges), Options{Hints: h})
	st := sol.Stats
	if sol.Status != lp.StatusOptimal || sol.Obj != float64(k) || st.CutsAdded == 0 || st.Nodes != 1 {
		t.Fatalf("solve: %v obj %g, %+v", sol.Status, sol.Obj, st)
	}
	if st.SimplexIters != sep.iters+1 || st.BlandIters != sep.blandIters || st.ColdStarts != 0 {
		t.Fatalf("SimplexIters %d BlandIters %d ColdStarts %d; want %d, %d and 0 (separation %d + the root check)",
			st.SimplexIters, st.BlandIters, st.ColdStarts, sep.iters+1, sep.blandIters, sep.iters)
	}
}

// TestCutsSeparatedEventReportsCost: a traced hinted solve's
// cuts.separated event carries the separation's cliques, added cuts,
// rounds and simplex iterations — the same figures separateRoot reports.
func TestCutsSeparatedEventReportsCost(t *testing.T) {
	m, h := completeConflict([]float64{6, 5, 4, 3, 2, 1}, 3, 6)
	sep := separateAsSolve(t, m, h)
	releaseSpx(sep.root)
	if sep.rounds < 2 {
		t.Fatalf("separation ran %d rounds, want a warm round too", sep.rounds)
	}
	tr := obs.NewTracer(obs.Config{SampleRate: 1})
	ctx, root := tr.StartRequest(context.Background(), "test", obs.Link{}, true)
	if _, err := Solve(ctx, m, Options{Hints: h}); err != nil {
		t.Fatal(err)
	}
	root.End()
	var got []map[string]string
	for _, sp := range tr.Collect(root.TraceID()) {
		for _, ev := range sp.Events {
			if ev.Name == "cuts.separated" {
				got = append(got, ev.Attrs)
			}
		}
	}
	want := map[string]string{
		"cliques": fmt.Sprint(len(h.Cliques())),
		"added":   fmt.Sprint(sep.added),
		"rounds":  fmt.Sprint(sep.rounds),
		"iters":   fmt.Sprint(sep.iters),
	}
	if len(got) != 1 || !maps.Equal(got[0], want) {
		t.Fatalf("cuts.separated events %v, want one with %v", got, want)
	}
}
