package batch

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"regsat/internal/ddg"
	"regsat/internal/rs"
)

// render canonicalizes a result list so runs can be compared byte-for-byte.
func render(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "#%d %s", r.Index, r.Name)
		if r.Err != nil {
			fmt.Fprintf(&b, " ERR %v\n", r.Err)
			continue
		}
		types := make([]string, 0, len(r.RS))
		for t := range r.RS {
			types = append(types, string(t))
		}
		sort.Strings(types)
		for _, ts := range types {
			res := r.RS[ddg.RegType(ts)]
			fmt.Fprintf(&b, " %s:RS=%d,exact=%t,chain=%v", ts, res.RS, res.Exact, res.Antichain)
			if res.Witness != nil {
				fmt.Fprintf(&b, ",RN=%d", res.Witness.RegisterNeed(ddg.RegType(ts)))
			}
			if red := r.Reductions[ddg.RegType(ts)]; red != nil {
				fmt.Fprintf(&b, ",red=%d,arcs=%v,spill=%t", red.RS, red.Arcs, red.Spill)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func genParams(n int) ddg.RandomParams {
	p := ddg.DefaultRandomParams(n)
	p.Types = []ddg.RegType{ddg.Int, ddg.Float}
	return p
}

// TestDeterministicOrdering: the same input stream yields byte-identical
// ordered results for every worker count, RS method, and with a reduction
// pass attached.
func TestDeterministicOrdering(t *testing.T) {
	opts := Options{
		RS:     rs.Options{Method: rs.MethodExactBB},
		Reduce: &ReduceSpec{Budget: 3},
	}
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		o := opts
		o.Parallel = workers
		results, err := New(o).Collect(context.Background(), Generate(24, 7, genParams(10)))
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		if len(results) != 24 {
			t.Fatalf("parallel=%d: got %d results, want 24", workers, len(results))
		}
		got := render(results)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallel=%d results differ from sequential:\n--- sequential\n%s--- parallel\n%s", workers, want, got)
		}
	}
}

// TestPoisonedGraphIsolation: load errors, finalize failures, and outright
// panics (a nil graph) are confined to their item; every other item of the
// batch still succeeds, in order.
func TestPoisonedGraphIsolation(t *testing.T) {
	good1 := ddg.RandomGraph(rand.New(rand.NewSource(1)), genParams(8))
	good2 := ddg.RandomGraph(rand.New(rand.NewSource(2)), genParams(8))
	cyclic := ddg.New("cyclic", ddg.Superscalar)
	a := cyclic.AddNode("a", "op", 1)
	b := cyclic.AddNode("b", "op", 1)
	cyclic.AddSerialEdge(a, b, 1)
	cyclic.AddSerialEdge(b, a, 1)
	src := &sliceSource{items: []Item{
		{Name: "good1", Graph: good1},
		{Name: "load-error", Err: fmt.Errorf("synthetic load failure")},
		{Name: "panic-nil-graph", Graph: nil},
		{Name: "cyclic", Graph: cyclic},
		{Name: "good2", Graph: good2},
	}}
	results, err := New(Options{Parallel: 4, RS: rs.Options{Method: rs.MethodGreedy}}).
		Collect(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
	}
	wantErr := map[string]bool{"load-error": true, "panic-nil-graph": true, "cyclic": true}
	for _, r := range results {
		if wantErr[r.Name] != (r.Err != nil) {
			t.Errorf("%s: err=%v, wanted error=%t", r.Name, r.Err, wantErr[r.Name])
		}
	}
	if !strings.Contains(results[2].Err.Error(), "panic") {
		t.Errorf("nil graph should surface as a recovered panic, got: %v", results[2].Err)
	}
}

// TestCancellationMidBatch: cancelling the context mid-run closes the result
// channel promptly without delivering the full batch.
func TestCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 200
	ch, err := New(Options{Parallel: 2, RS: rs.Options{Method: rs.MethodExactBB}}).
		Run(ctx, Generate(total, 11, genParams(12)))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range ch {
		seen++
		if seen == 3 {
			cancel()
			break
		}
	}
	done := make(chan int)
	go func() {
		rest := 0
		for range ch {
			rest++
		}
		done <- rest
	}()
	select {
	case rest := <-done:
		if seen+rest >= total {
			t.Errorf("cancellation delivered the whole batch (%d results)", seen+rest)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("result channel did not close after cancellation")
	}
}

// TestMemoization: repeated graphs and repeated register types are served
// from the fingerprint memo instead of recomputing.
// TestCancellationInterruptsMILPSolve: cancelling the batch context aborts
// an IN-FLIGHT exact intLP solve (inside its simplex iterations) instead of
// waiting it out — the whole point of threading the context down through the
// solver layer. The corpus graph used here takes several seconds to solve
// exactly; the cancelled batch must return orders of magnitude faster.
func TestCancellationInterruptsMILPSolve(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "vliw-syn-fork4.ddg")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("corpus file unavailable: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := New(Options{
		Parallel: 1,
		RS:       rs.Options{Method: rs.MethodExactILP, ApplyReductions: true, SkipWitness: true},
		Types:    []ddg.RegType{ddg.Float},
	}).Run(ctx, Files(path))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the solve get in flight
	start := time.Now()
	cancel()
	for range ch {
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v; the in-flight MILP solve was not interrupted", elapsed)
	}
}

func TestMemoization(t *testing.T) {
	const copies = 10
	base := ddg.RandomGraph(rand.New(rand.NewSource(5)), genParams(10))
	gs := make([]*ddg.Graph, copies)
	for i := range gs {
		gs[i] = base.Clone()
		gs[i].Name = fmt.Sprintf("copy-%d", i)
	}
	eng := New(Options{Parallel: 1, RS: rs.Options{Method: rs.MethodExactBB}})
	results, err := eng.Collect(context.Background(), Graphs(gs...))
	if err != nil {
		t.Fatal(err)
	}
	nTypes := int64(len(base.Types()))
	if nTypes == 0 {
		t.Fatal("base graph writes no values")
	}
	st := eng.Stats()
	if st.Misses != nTypes {
		t.Errorf("misses = %d, want %d (one per type)", st.Misses, nTypes)
	}
	if st.Hits != nTypes*(copies-1) {
		t.Errorf("hits = %d, want %d", st.Hits, nTypes*(copies-1))
	}
	if results[0].CacheHit {
		t.Error("first copy claims a cache hit")
	}
	for _, r := range results[1:] {
		if !r.CacheHit {
			t.Errorf("%s: expected cache hit", r.Name)
		}
		for ts, res := range r.RS {
			// A twin gets a shallow copy carrying a witness over its own
			// graph; the memoized search output itself is shared.
			first := results[0].RS[ts]
			if len(res.Antichain) == 0 || &res.Antichain[0] != &first.Antichain[0] ||
				!slices.Equal(res.Witness.Times, first.Witness.Times) {
				t.Errorf("%s/%s: cached result not shared", r.Name, ts)
			}
		}
	}
	// A second batch on the same engine reuses the memo across runs.
	again, err := eng.Collect(context.Background(), Graphs(base.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	if !again[0].CacheHit {
		t.Error("second run on the same engine missed the shared memo")
	}
}

// TestReductionMemoKeepsGraphIdentity: the fingerprint ignores names, so a
// memoized reduction served to a structurally identical but differently
// named graph must be re-extended over the requesting graph — the caller
// must never see the first input's names in its extended DDG.
func TestReductionMemoKeepsGraphIdentity(t *testing.T) {
	base := ddg.RandomGraph(rand.New(rand.NewSource(5)), genParams(10))
	twin := base.Clone()
	twin.Name = "twin"
	for i := 0; i < twin.NumNodes(); i++ {
		twin.Node(i).Name = fmt.Sprintf("t%d", i)
	}
	eng := New(Options{
		Parallel: 1,
		RS:       rs.Options{Method: rs.MethodGreedy, SkipWitness: true},
		Reduce:   &ReduceSpec{Budget: 2},
	})
	results, err := eng.Collect(context.Background(), Graphs(base, twin))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if len(r.Reductions) == 0 {
			t.Fatalf("%s: no reduction ran (raise the graph size or lower the budget)", r.Name)
		}
		for ts, red := range r.Reductions {
			want := []*ddg.Graph{base, twin}[i]
			if red.Graph.Name != want.Name {
				t.Errorf("%s/%s: extended graph is named %q, want %q", r.Name, ts, red.Graph.Name, want.Name)
			}
			if got, wantN := red.Graph.Node(0).Name, want.Node(0).Name; got != wantN {
				t.Errorf("%s/%s: extended graph node 0 is %q, want %q", r.Name, ts, got, wantN)
			}
			if len(red.Arcs) != len(results[0].Reductions[ts].Arcs) {
				t.Errorf("%s/%s: twin reduction arcs differ from the memoized ones", r.Name, ts)
			}
		}
	}
}

// TestResultMemoKeepsWitnessGraph: the memo entry's snapshot belongs to the
// first graph of a fingerprint, so a witness schedule computed over it (or
// memoized from it) names that graph's nodes. A structural twin must get
// the same schedule over its own graph, both on a memo hit and when it is
// the first to compute a result over the shared snapshot.
func TestResultMemoKeepsWitnessGraph(t *testing.T) {
	base := ddg.RandomGraph(rand.New(rand.NewSource(5)), genParams(10))
	twin := base.Clone()
	twin.Name = "twin"
	for i := 0; i < twin.NumNodes(); i++ {
		twin.Node(i).Name = fmt.Sprintf("t%d", i)
	}
	greedy := New(Options{Parallel: 1, RS: rs.Options{Method: rs.MethodGreedy}})
	hit, err := greedy.Collect(context.Background(), Graphs(base, twin))
	if err != nil {
		t.Fatal(err)
	}
	// A second method computes its first result for the twin, over the
	// snapshot the base graph built.
	bb := greedy.WithOptions(Options{Parallel: 1, RS: rs.Options{Method: rs.MethodExactBB}})
	computed, err := bb.Collect(context.Background(), Graphs(twin))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(hit, computed...) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		for ts, res := range r.RS {
			if res.Witness == nil {
				t.Fatalf("%s/%s: no witness schedule", r.Name, ts)
			}
			if res.Witness.G != r.Graph {
				t.Errorf("%s/%s: witness schedule is over graph %q, want the item's own", r.Name, ts, res.Witness.G.Name)
			}
			if err := res.Witness.Validate(); err != nil {
				t.Errorf("%s/%s: %v", r.Name, ts, err)
			}
		}
	}
	if hit[1].ComputedRS != nil || computed[0].ComputedRS == nil {
		t.Fatal("the twin must hit the greedy slot and compute the bb one")
	}
}

// TestConcurrentDuplicates drives many workers at many copies of few
// distinct graphs — the singleflight memo path — and checks the totals.
// Primarily a -race exercise.
func TestConcurrentDuplicates(t *testing.T) {
	var gs []*ddg.Graph
	for i := 0; i < 60; i++ {
		g := ddg.RandomGraph(rand.New(rand.NewSource(int64(i%3))), genParams(9))
		g.Name = fmt.Sprintf("dup-%d", i)
		gs = append(gs, g)
	}
	eng := New(Options{Parallel: 8, RS: rs.Options{Method: rs.MethodExactBB}})
	results, err := eng.Collect(context.Background(), Graphs(gs...))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("got %d results, want 60", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
	}
	st := eng.Stats()
	var wantMisses int64
	for i := 0; i < 3; i++ {
		g := ddg.RandomGraph(rand.New(rand.NewSource(int64(i))), genParams(9))
		wantMisses += int64(len(g.Types()))
	}
	if st.Misses != wantMisses {
		t.Errorf("misses = %d, want %d (each distinct (graph, type) computed once)", st.Misses, wantMisses)
	}
}

// TestCacheEviction: an LRU memo of capacity 1 still serves every request
// correctly, it just recomputes evicted fingerprints.
func TestCacheEviction(t *testing.T) {
	g1 := ddg.RandomGraph(rand.New(rand.NewSource(21)), genParams(8))
	g2 := ddg.RandomGraph(rand.New(rand.NewSource(22)), genParams(8))
	eng := New(Options{Parallel: 1, CacheSize: 1, RS: rs.Options{Method: rs.MethodGreedy}})
	// g1, g2, g1 again: the second g1 visit was evicted by g2.
	results, err := eng.Collect(context.Background(),
		Graphs(g1.Clone(), g2.Clone(), g1.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
	}
	if eng.Stats().Hits != 0 {
		t.Errorf("capacity-1 memo should have evicted everything, got %d hits", eng.Stats().Hits)
	}
}

func TestFingerprint(t *testing.T) {
	g1 := ddg.RandomGraph(rand.New(rand.NewSource(3)), genParams(10))
	sameStructure := g1.Clone()
	sameStructure.Name = "renamed"
	if Fingerprint(g1) != Fingerprint(sameStructure) {
		t.Error("renaming a graph changed its fingerprint")
	}
	otherSeed := ddg.RandomGraph(rand.New(rand.NewSource(4)), genParams(10))
	if Fingerprint(g1) == Fingerprint(otherSeed) {
		t.Error("distinct random graphs share a fingerprint")
	}
	otherMachine := ddg.RandomGraph(rand.New(rand.NewSource(3)), func() ddg.RandomParams {
		p := genParams(10)
		p.Machine = ddg.VLIW
		return p
	}())
	if Fingerprint(g1) == Fingerprint(otherMachine) {
		t.Error("machine kind not part of the fingerprint")
	}
}

func TestDirSourceErrors(t *testing.T) {
	if _, err := Dir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("Dir on a missing directory should fail")
	}
	empty := t.TempDir()
	if _, err := Dir(empty); err == nil || !strings.Contains(err.Error(), "no .ddg files") {
		t.Errorf("Dir on an empty directory: got %v, want a 'no .ddg files' error", err)
	}
	if _, err := Paths(filepath.Join(empty, "nope.ddg")); err == nil {
		t.Error("Paths on a missing file should fail")
	}
}

func TestFileSourceIsolation(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ddg")
	if err := os.WriteFile(good, []byte("ddg \"ok\" machine=superscalar\nnode a op=op lat=1 writes=float\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ddg")
	if err := os.WriteFile(bad, []byte("not a ddg file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	results, err := New(Options{}).Collect(context.Background(), Files(good, bad))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Errorf("good file failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("malformed file did not surface an error")
	}
}
