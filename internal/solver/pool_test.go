package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"regsat/internal/lp"
	"regsat/internal/solver/solvertest"
)

// drainSpxPool empties the tableau pool: a sync.Pool drops everything it
// holds across two garbage collections.
func drainSpxPool() {
	runtime.GC()
	runtime.GC()
}

// poison overwrites the whole capacity of every buffer of a released
// tableau: NaN in the float slices, out-of-range values in the index and
// status slices. Anything read before being written again shows.
func poison(s *spx) {
	for _, b := range [][]float64{s.tab, s.diag, s.lo, s.hi, s.xval, s.xB, s.d, s.dweight, s.score} {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.NaN()
		}
	}
	for _, b := range [][]int32{s.col, s.slot, s.basis, s.rowOf, s.nz, s.rows} {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.MaxInt32
		}
	}
	c := s.cand[:cap(s.cand)]
	for i := range c {
		c[i] = math.MaxUint64
	}
	st := s.status[:cap(s.status)]
	for i := range st {
		st[i] = math.MaxInt8
	}
}

// hintedModel is a model with the hints its solve gets.
type hintedModel struct {
	m *lp.Model
	h *Hints
}

// poolCorpus is a set of hinted and unhinted models whose solves exercise
// every tableau life cycle: converged separation handed to the search,
// the cut cap releasing the separation tableau, addRows replacing buffers,
// strong-branching probe tableaux, and tableaux of different sizes reusing
// each other's storage.
func poolCorpus() []hintedModel {
	var c []hintedModel
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 12; i++ {
		m, h := hintedConflict(rng)
		c = append(c, hintedModel{m, h}, hintedModel{m: randomMILP(rng)})
	}
	m6, h6 := completeConflict([]float64{6, 5, 4, 3, 2, 1}, 3, 6)
	m12, h12 := k12()
	return append(c, hintedModel{m6, h6}, hintedModel{m12, h12}, hintedModel{m: bigKnapsack()})
}

// TestPooledTableauNoStaleData: pooled tableaux come back with stale
// contents, which reset, copyFrom and addRows must overwrite in full. With
// every released tableau poisoned, the corpus must solve to the same
// Solution and Stats as it does starting from a drained pool.
func TestPooledTableauNoStaleData(t *testing.T) {
	solveAll := func(drain bool) []*Solution {
		var sols []*Solution
		for _, in := range poolCorpus() {
			if drain {
				drainSpxPool()
			}
			sol := solveWith(t, in.m, Options{Hints: in.h})
			sol.Stats.Duration = 0
			sols = append(sols, sol)
		}
		return sols
	}
	want := solveAll(true)
	testHookRelease = poison
	defer func() { testHookRelease = nil }()
	drainSpxPool()
	for round := 0; round < 2; round++ {
		for i, got := range solveAll(false) {
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("round %d model %d: from poisoned pooled tableaux\n%+v\nfrom a drained pool\n%+v", round, i, got, want[i])
			}
		}
	}
}

// TestPooledTableauConcurrentSolves solves models of different sizes on
// several goroutines at once, so tableaux of one solve are recycled into
// another while both run. Every answer is checked against brute force.
func TestPooledTableauConcurrentSolves(t *testing.T) {
	type input struct {
		hintedModel
		want solvertest.Optimum
	}
	build := func() []input {
		rng := rand.New(rand.NewSource(31))
		var in []input
		for nv := 6; nv <= 13; nv++ {
			m, h := hintedConflictN(rng, nv)
			in = append(in, input{hintedModel: hintedModel{m, h}}, input{hintedModel: hintedModel{m: randomMILP(rng)}})
		}
		m6, h6 := completeConflict([]float64{6, 5, 4, 3, 2, 1}, 3, 6)
		m12, h12 := k12()
		return append(in, input{hintedModel: hintedModel{m6, h6}}, input{hintedModel: hintedModel{m12, h12}},
			input{hintedModel: hintedModel{m: bigKnapsack()}})
	}
	ref := build()
	for i := range ref {
		ref[i].want = solvertest.BruteForce(ref[i].m)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := build() // models are private to the goroutine
			for k := range in {
				i := (k*3 + g) % len(in)
				tag := fmt.Sprintf("goroutine %d model %d", g, i)
				sol, err := Solve(context.Background(), in[i].m, Options{Hints: in[i].h})
				if err != nil {
					t.Errorf("%s: %v", tag, err)
					return
				}
				want := ref[i].want
				switch {
				case !want.Found && sol.Status != lp.StatusInfeasible:
					t.Errorf("%s: status %v, brute force says infeasible", tag, sol.Status)
				case want.Found && (sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-want.Obj) > 1e-6):
					t.Errorf("%s: %v/%g, brute-force optimum %g", tag, sol.Status, sol.Obj, want.Obj)
				}
			}
		}()
	}
	wg.Wait()
}

// poisonWorkspace overwrites the whole capacity of every buffer of a
// released workspace: NaN in the float slices, −1 in the index slices
// (math.MaxInt32 in the duplicate-row table, where −1 means empty), true
// in the flags. Anything read before being written again shows.
func poisonWorkspace(ws *workspace) {
	p := &ws.p
	for _, b := range [][]float64{ws.bounds, ws.ps.fixed, p.rowVal, p.rhs, p.slackLo, p.slackHi,
		p.cost, p.rootLo, p.rootHi, ws.lo, ws.hi, ws.x, ws.pcDown, ws.pcUp} {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.NaN()
		}
	}
	for _, b := range [][]int32{p.rowPtr, p.rowCol, ws.pcDownN, ws.pcUpN} {
		b = b[:cap(b)]
		for i := range b {
			b[i] = -1
		}
	}
	for _, b := range [][]bool{ws.flags, p.integer} {
		b = b[:cap(b)]
		for i := range b {
			b[i] = true
		}
	}
	for i, c := 0, ws.ps.colMap[:cap(ws.ps.colMap)]; i < len(c); i++ {
		c[i] = -1
	}
	for i, t := 0, ws.terms[:cap(ws.terms)]; i < len(t); i++ {
		t[i] = lp.Term{Var: -1, Coef: math.NaN()}
	}
	for i, r := 0, ws.rows[:cap(ws.rows)]; i < len(r); i++ {
		r[i] = prow{start: -1, end: -1, rel: -1, rhs: math.NaN(), hash: math.MaxUint64}
	}
	for i, r := 0, p.rel[:cap(p.rel)]; i < len(r); i++ {
		r[i] = -1
	}
	for i, t := 0, ws.table[:cap(ws.table)]; i < len(t); i++ {
		t[i] = math.MaxInt32
	}
	ws.ps = presolved{colMap: ws.ps.colMap, fixed: ws.ps.fixed, nOrig: -1, rows: -1, cols: -1, tightenings: -1, infeasible: true}
	*p = prob{rowPtr: p.rowPtr, rowCol: p.rowCol, rowVal: p.rowVal, rhs: p.rhs, rel: p.rel,
		cost: p.cost, rootLo: p.rootLo, rootHi: p.rootHi, integer: p.integer,
		slackLo: p.slackLo, slackHi: p.slackHi, n: -1, m: -1, N: -1, objOffset: math.NaN(), intObj: true}
}

// poisonPools makes every released tableau and workspace poisoned before
// it is pooled, and drains both pools; the returned function undoes it.
func poisonPools() (restore func()) {
	testHookRelease, testHookReleaseWorkspace = poison, poisonWorkspace
	drainSpxPool()
	return func() { testHookRelease, testHookReleaseWorkspace = nil, nil }
}

// TestPooledWorkspaceNoStaleData: pooled solve workspaces come back with
// stale presolve copies, postsolve maps, problems and search scratch,
// which every solve must overwrite or clear before reading. With every
// released workspace and tableau poisoned, the corpus must solve to the
// same Solution and Stats as it does starting from drained pools, with and
// without presolve.
func TestPooledWorkspaceNoStaleData(t *testing.T) {
	for _, raw := range []bool{false, true} {
		solveAll := func(drain bool) []*Solution {
			var sols []*Solution
			for _, in := range poolCorpus() {
				if drain {
					drainSpxPool()
				}
				sol := solveWith(t, in.m, Options{Hints: in.h, DisablePresolve: raw})
				sol.Stats.Duration = 0
				sols = append(sols, sol)
			}
			return sols
		}
		want := solveAll(true)
		restore := poisonPools()
		for round := 0; round < 2; round++ {
			for i, got := range solveAll(false) {
				if !reflect.DeepEqual(got, want[i]) {
					restore()
					t.Fatalf("raw %v round %d model %d: from poisoned pools\n%+v\nfrom drained pools\n%+v", raw, round, i, got, want[i])
				}
			}
		}
		restore()
	}
}
