package rs

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

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
