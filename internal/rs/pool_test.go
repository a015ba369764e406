package rs

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"regsat/internal/ddg"
	"regsat/internal/lp"
	"regsat/internal/solver"
)

// poolAnalyses returns the analyses of every register type of the acyclic
// corpus whose Section 3 model has at most 300 columns (every graph but
// superscalar-liv-l7, -spec-swim and vliw-spec-tomcatv float), in corpus
// order: models of many sizes, so pooled ones are rebuilt both larger and
// smaller than their last use.
func poolAnalyses(t *testing.T) []*Analysis {
	t.Helper()
	var ans []*Analysis
	for _, g := range loadCorpus(t) {
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			m, _, _, err := BuildSaturationModel(an, true)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumVars() <= 300 {
				ans = append(ans, an)
			}
		}
	}
	return ans
}

// poolSolveOptions caps every solve by nodes, so each is deterministic.
var poolSolveOptions = solver.Options{MaxNodes: 200}

// solvePooled runs ExactILP on an and clears the solve's wall time.
func solvePooled(t *testing.T, an *Analysis) *ILPResult {
	res, err := ExactILP(context.Background(), an, true, poolSolveOptions)
	if err != nil {
		t.Errorf("%s/%s: %v", an.G.Name, an.Type, err)
		return nil
	}
	res.Stats.Duration = 0
	return res
}

// TestPooledModelNoStaleData: ExactILP builds its model into a pooled
// lp.Model, whose arenas come back with a previous model's contents. With
// every released model poisoned (lp.Model.Poison), the corpus must solve
// to the same results, solver Stats included, as from a drained pool.
func TestPooledModelNoStaleData(t *testing.T) {
	ans := poolAnalyses(t)
	want := make([]*ILPResult, len(ans))
	for i, an := range ans {
		runtime.GC()
		runtime.GC() // a sync.Pool drops what it holds across two collections
		want[i] = solvePooled(t, an)
	}
	testHookReleaseModel = (*lp.Model).Poison
	defer func() { testHookReleaseModel = nil }()
	for round := 0; round < 2; round++ {
		for i, an := range ans {
			if got := solvePooled(t, an); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("round %d %s/%s: from a poisoned pooled model\n%+v\nfrom a drained pool\n%+v",
					round, an.G.Name, an.Type, got, want[i])
			}
		}
	}
}

// TestPooledModelConcurrentSolves runs ExactILP over models of different
// sizes on several goroutines at once, so models, workspaces and tableaux
// released by one solve are reused by another while both run. Every result
// must equal the sequential one.
func TestPooledModelConcurrentSolves(t *testing.T) {
	ans := poolAnalyses(t)
	want := make([]*ILPResult, len(ans))
	for i, an := range ans {
		want[i] = solvePooled(t, an)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ans {
				i := (k*3 + g) % len(ans)
				got := solvePooled(t, ans[i])
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d %s/%s: concurrent result\n%+v\nsequential\n%+v",
						g, ans[i].G.Name, ans[i].Type, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// poisonIncremental overwrites everything a released evaluator holds, up
// to the capacity of each slice, and leaves every arena and stack
// non-empty: an evaluator built from it that read a stale entry would
// compute garbage. The stamps are poisoned with small values, the ones a
// fresh evaluator's stamps take first.
func poisonIncremental(ik *Incremental) {
	fill := func(b []int64, v func(i int) int64) {
		b = b[:cap(b)]
		for i := range b {
			b[i] = v(i)
		}
	}
	fill(ik.d, func(int) int64 { return 1 << 40 })
	fill(ik.touched, func(i int) int64 { return int64(i % 8) })
	fill(ik.rightSeen, func(i int) int64 { return int64(i % 8) })
	fill(ik.delayR, func(int) int64 { return -77 })
	fill(ik.delayW, func(int) int64 { return 77 })
	for _, b := range [][]int{ik.decided, ik.matchL, ik.matchR, ik.valIndex} {
		b = b[:cap(b)]
		for i := range b {
			b[i] = i % 3
		}
	}
	words := ik.lessWords[:cap(ik.lessWords)]
	for i := range words {
		words[i] = ^uint64(0)
	}
	killers := ik.byKiller[:cap(ik.byKiller)]
	for u := range killers {
		killers[u] = append(killers[u], u, u)
	}
	ik.trail = append(ik.trail, frame{value: 1, killer: 2, matchStart: 3})
	ik.cellArena = append(ik.cellArena, cellDelta{idx: 1, old: 2})
	ik.bitArena = append(ik.bitArena, bitDelta{1, 2})
	ik.matchArena = append(ik.matchArena, 1, 2)
	ik.srcs, ik.dsts = append(ik.srcs, 1), append(ik.dsts, 2)
	ik.epoch, ik.seenStamp, ik.depth, ik.matchSize = 3, 3, 5, 5
}

// incrementalAnalyses returns the analyses of every register type of the
// acyclic corpus and of random graphs on every machine, in an order that
// rebuilds pooled evaluators both larger and smaller than their last use.
func incrementalAnalyses(t *testing.T) []*Analysis {
	t.Helper()
	var graphs []*ddg.Graph
	graphs = append(graphs, loadCorpus(t)...)
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 24; i++ {
		p := ddg.DefaultRandomParams(6 + rng.Intn(10))
		p.Types = []ddg.RegType{ddg.Int, ddg.Float}
		p.Machine = []ddg.MachineKind{ddg.Superscalar, ddg.VLIW, ddg.EPIC}[i%3]
		graphs = append(graphs, ddg.RandomGraph(rng, p))
	}
	var ans []*Analysis
	for _, g := range graphs {
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			ans = append(ans, an)
		}
	}
	return ans
}

// incrementalAnswers runs Greedy and ExactBB on every analysis.
func incrementalAnswers(t *testing.T, ans []*Analysis) []any {
	t.Helper()
	var out []any
	for _, an := range ans {
		g, gerr := Greedy(an)
		e, st, eerr := ExactBB(an, 20_000)
		out = append(out, g, gerr, e, st, eerr)
	}
	return out
}

// TestPooledIncrementalNoStaleData: Greedy and ExactBB take their
// evaluators from a pool, whose storage comes back with a previous graph's
// contents. With every released evaluator poisoned, the corpus and random
// graphs must give the same answers as from a drained pool.
func TestPooledIncrementalNoStaleData(t *testing.T) {
	ans := incrementalAnalyses(t)
	runtime.GC()
	runtime.GC() // a sync.Pool drops what it holds across two collections
	want := incrementalAnswers(t, ans)
	released := 0
	testHookReleaseIncremental = func(ik *Incremental) { released++; poisonIncremental(ik) }
	defer func() { testHookReleaseIncremental = nil }()
	for round := 0; round < 2; round++ {
		if got := incrementalAnswers(t, ans); !reflect.DeepEqual(got, want) {
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					an := ans[i/5]
					t.Fatalf("round %d %s/%s: from poisoned pooled evaluators\n%+v\nfrom a drained pool\n%+v",
						round, an.G.Name, an.Type, got[i], want[i])
				}
			}
		}
	}
	if released < 2*len(ans) {
		t.Fatalf("%d evaluators released over %d analyses: Greedy or ExactBB does not release", released, len(ans))
	}
}

// TestIncrementalPoolSizeCap: an evaluator whose n×n tables exceed
// maxPooledCells is not pooled when released; a small one is.
func TestIncrementalPoolSizeCap(t *testing.T) {
	released := 0
	testHookReleaseIncremental = func(*Incremental) { released++ }
	defer func() { testHookReleaseIncremental = nil }()
	analysis := func(n int) *Analysis {
		p := ddg.DefaultRandomParams(n)
		p.EdgeProb, p.ValueProb = 0.02, 0.05
		an, err := NewAnalysis(ddg.RandomGraph(rand.New(rand.NewSource(3)), p), ddg.Float)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	big := analysis(300)
	if n := big.G.NumNodes(); n*n <= maxPooledCells {
		t.Fatalf("%d nodes do not exceed the pool cap", n)
	}
	if _, err := Greedy(big); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExactBB(big, 1000); err != nil {
		t.Fatal(err)
	}
	if released != 0 {
		t.Fatalf("%d evaluators over %d nodes were pooled", released, big.G.NumNodes())
	}
	if _, err := Greedy(analysis(40)); err != nil {
		t.Fatal(err)
	}
	if released != 1 {
		t.Fatalf("%d evaluators pooled after a 40-node Greedy, want 1", released)
	}
}
