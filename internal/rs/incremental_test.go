package rs

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"regsat/internal/ddg"
	"regsat/internal/graph"
	"regsat/internal/ir"
)

// isLoopDDG reports whether a corpus file's header carries the `loop` flag:
// cyclic loop kernels do not parse as flat DDGs and are covered by
// internal/cyclic's own corpus test. (Inlined here because internal/cyclic
// depends on this package.)
func isLoopDDG(text string) bool {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "ddg") {
			return false
		}
		for _, f := range strings.Fields(line)[1:] {
			if f == "loop" {
				return true
			}
		}
		return false
	}
	return false
}

// loadCorpus parses and finalizes every acyclic .ddg file of the repository
// corpus.
func loadCorpus(t testing.TB) []*ddg.Graph {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ddg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus: no .ddg files under ../../testdata")
	}
	var out []*ddg.Graph
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if isLoopDDG(string(raw)) {
			continue
		}
		g, err := ddg.ParseString(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if err := g.Finalize(); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out = append(out, g)
	}
	return out
}

// diffState drives the incremental evaluator and the from-scratch rebuild
// through the same branch-and-bound tree, comparing them at every node.
type diffState struct {
	t      *testing.T
	an     *Analysis
	ik     *Incremental
	killer []int
	nodes  int
	budget int
}

func (d *diffState) compare(where string) {
	o, feasible := partialRebuildOrder(d.an, d.killer)
	if !feasible {
		d.t.Fatalf("%s/%s %s: rebuild says the pushed extension is cyclic", d.an.G.Name, d.an.Type, where)
	}
	nv := len(d.an.Values)
	for i := 0; i < nv; i++ {
		for j := 0; j < nv; j++ {
			if o.Less(i, j) != d.ik.Less(i, j) {
				d.t.Fatalf("%s/%s %s: order(%d,%d): rebuild=%t incremental=%t (killers %v)",
					d.an.G.Name, d.an.Type, where, i, j, o.Less(i, j), d.ik.Less(i, j), d.killer)
			}
		}
	}
	want := o.MaximumAntichain().Size
	if got := d.ik.Antichain().Size; want != got {
		d.t.Fatalf("%s/%s %s: antichain: rebuild=%d incremental=%d (killers %v)",
			d.an.G.Name, d.an.Type, where, want, got, d.killer)
	}
	if got := d.ik.Bound(); want != got {
		d.t.Fatalf("%s/%s %s: matching bound: rebuild=%d incremental=%d (killers %v)",
			d.an.G.Name, d.an.Type, where, want, got, d.killer)
	}
	members := d.ik.AntichainMembers()
	if len(members) != want {
		d.t.Fatalf("%s/%s %s: König antichain has %d members, want %d",
			d.an.G.Name, d.an.Type, where, len(members), want)
	}
	for x := 0; x < len(members); x++ {
		for y := x + 1; y < len(members); y++ {
			if o.Comparable(members[x], members[y]) {
				d.t.Fatalf("%s/%s %s: König antichain members %d,%d are comparable",
					d.an.G.Name, d.an.Type, where, members[x], members[y])
			}
		}
	}
}

func (d *diffState) walk(branch []int, pos int) {
	d.nodes++
	if d.nodes > d.budget {
		return
	}
	d.compare("node")
	if pos == len(branch) {
		return
	}
	i := branch[pos]
	for _, cand := range d.an.PKill[i] {
		d.killer[i] = cand
		pushed := d.ik.Push(i, cand)
		_, feasible := partialRebuildOrder(d.an, d.killer)
		if pushed != feasible {
			d.t.Fatalf("%s/%s: push(%d,%d): incremental=%t rebuild-feasible=%t (killers %v)",
				d.an.G.Name, d.an.Type, i, cand, pushed, feasible, d.killer)
		}
		if pushed {
			d.walk(branch, pos+1)
			d.ik.Pop()
		}
		d.killer[i] = -1
	}
}

// runDifferential checks the incremental evaluator against the from-scratch
// NewKilling-style rebuild at every node of the exact search tree of (g, t).
func runDifferential(t *testing.T, g *ddg.Graph, typ ddg.RegType, budget int) int {
	an, err := NewAnalysis(g, typ)
	if err != nil {
		t.Fatalf("%s/%s: %v", g.Name, typ, err)
	}
	if len(an.Values) == 0 {
		return 0
	}
	d := &diffState{t: t, an: an, ik: NewIncremental(an), killer: make([]int, len(an.Values)), budget: budget}
	var branch []int
	for i := range an.Values {
		if len(an.PKill[i]) == 1 {
			d.killer[i] = an.PKill[i][0]
			d.ik.Push(i, an.PKill[i][0])
		} else {
			d.killer[i] = -1
			branch = append(branch, i)
		}
	}
	d.walk(branch, 0)
	return d.nodes
}

// TestIncrementalMatchesRebuildCorpus is the corpus-wide differential: on
// every testdata graph and register type, the incremental evaluator must
// agree with the from-scratch rebuild — order rows, feasibility, and
// antichain bound — at every branch-and-bound node, with 0 disagreements.
func TestIncrementalMatchesRebuildCorpus(t *testing.T) {
	budget := 100000
	if testing.Short() {
		budget = 2000
	}
	total := 0
	for _, g := range loadCorpus(t) {
		for _, typ := range g.Types() {
			total += runDifferential(t, g, typ, budget)
		}
	}
	t.Logf("compared %d search nodes across the corpus", total)
}

// TestIncrementalMatchesRebuildRandom extends the differential to random
// graphs, including VLIW/EPIC offsets where enforcement arcs can close
// cycles (exercising the Push-refusal path).
func TestIncrementalMatchesRebuildRandom(t *testing.T) {
	count := 40
	if testing.Short() {
		count = 10
	}
	rng := rand.New(rand.NewSource(42))
	for _, machine := range []ddg.MachineKind{ddg.Superscalar, ddg.VLIW, ddg.EPIC} {
		for i := 0; i < count; i++ {
			p := ddg.DefaultRandomParams(7 + rng.Intn(5))
			p.Machine = machine
			p.Types = []ddg.RegType{ddg.Int, ddg.Float}
			g := ddg.RandomGraph(rng, p)
			for _, typ := range g.Types() {
				runDifferential(t, g, typ, 5000)
			}
		}
	}
}

// TestIncrementalPushPopRestores checks that a Pop restores the evaluator —
// longest-path matrix and order rows — exactly to its pre-Push state, across
// random push/pop sequences.
func TestIncrementalPushPopRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		p := ddg.DefaultRandomParams(8 + rng.Intn(4))
		if trial%2 == 1 {
			p.Machine = ddg.VLIW
		}
		g := ddg.RandomGraph(rng, p)
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			ik := NewIncremental(an)
			base := append([]int64(nil), ik.d...)
			type dec struct{ i int }
			var stack []dec
			for step := 0; step < 200; step++ {
				if len(stack) > 0 && rng.Intn(3) == 0 {
					ik.Pop()
					stack = stack[:len(stack)-1]
					continue
				}
				// Pick an undecided value.
				var undec []int
				for i := range an.Values {
					if ik.Killer(i) < 0 {
						undec = append(undec, i)
					}
				}
				if len(undec) == 0 {
					break
				}
				i := undec[rng.Intn(len(undec))]
				cand := an.PKill[i][rng.Intn(len(an.PKill[i]))]
				if ik.Push(i, cand) {
					stack = append(stack, dec{i})
				}
			}
			for range stack {
				ik.Pop()
			}
			for idx, v := range ik.d {
				if v != base[idx] {
					t.Fatalf("%s/%s: matrix cell %d not restored: %d != %d", g.Name, typ, idx, v, base[idx])
				}
			}
			for i := range an.Values {
				if ik.less[i].Count() != 0 {
					t.Fatalf("%s/%s: order row %d not cleared after full unwind", g.Name, typ, i)
				}
				if ik.Killer(i) >= 0 && len(an.PKill[i]) > 1 {
					t.Fatalf("%s/%s: value %d still decided after full unwind", g.Name, typ, i)
				}
			}
		}
	}
}

// TestExactBBMatchesReference pins the incremental ExactBB to the retained
// from-scratch implementation on the corpus and on random graphs.
func TestExactBBMatchesReference(t *testing.T) {
	check := func(g *ddg.Graph) {
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, gotErr := ExactBB(an, 0)
			want, wantStats, wantErr := exactBBReference(an, 0)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s/%s: error mismatch: %v vs %v", g.Name, typ, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.RS != want.RS {
				t.Fatalf("%s/%s: RS mismatch: incremental=%d reference=%d", g.Name, typ, got.RS, want.RS)
			}
			if gotStats.Capped != wantStats.Capped {
				t.Fatalf("%s/%s: cap mismatch", g.Name, typ)
			}
			if gotStats.UpperBound != got.RS {
				t.Fatalf("%s/%s: uncapped search must prove UpperBound==RS, got %d != %d",
					g.Name, typ, gotStats.UpperBound, got.RS)
			}
			// The returned killing function must actually achieve RS.
			sat, err := got.Killing.Saturation()
			if err != nil {
				t.Fatalf("%s/%s: winning killing function invalid: %v", g.Name, typ, err)
			}
			if sat.RS != got.RS {
				t.Fatalf("%s/%s: killing function achieves %d, reported %d", g.Name, typ, sat.RS, got.RS)
			}
		}
	}
	for _, g := range loadCorpus(t) {
		check(g)
	}
	rng := rand.New(rand.NewSource(11))
	n := 30
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		p := ddg.DefaultRandomParams(8 + rng.Intn(4))
		if i%3 == 1 {
			p.Machine = ddg.VLIW
		}
		if i%3 == 2 {
			p.Machine = ddg.EPIC
		}
		check(ddg.RandomGraph(rng, p))
	}
}

// TestExactBBCapSemantics checks the fixed budget accounting: the cap is
// tested before evaluating a leaf, so a search whose tree holds exactly
// maxLeaves leaves completes uncapped, and a capped search reports a proven
// [RS, UpperBound] interval.
func TestExactBBCapSemantics(t *testing.T) {
	var an *Analysis
	for _, g := range loadCorpus(t) {
		for _, typ := range g.Types() {
			a, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			if a.NumKillingFunctions() > 1 {
				an = a
				break
			}
		}
		if an != nil {
			break
		}
	}
	if an == nil {
		t.Fatal("corpus has no multi-killer case")
	}
	full, stats, err := ExactBB(an, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Capped {
		t.Fatal("unbounded search reported capped")
	}
	// A budget of exactly the evaluated leaves must complete uncapped (the
	// old check-after-evaluate flagged this complete search as capped).
	_, s2, err := ExactBB(an, stats.Leaves)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Capped {
		t.Fatalf("search with budget == leaf count (%d) reported capped", stats.Leaves)
	}
	if s2.Leaves != stats.Leaves {
		t.Fatalf("leaf count changed under exact budget: %d != %d", s2.Leaves, stats.Leaves)
	}
	// A budget of 1 evaluates exactly one leaf, caps, and brackets the truth.
	capped, s3, err := ExactBB(an, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Capped {
		t.Skip("single leaf already completed the tree") // single-branch case
	}
	if s3.Leaves != 1 {
		t.Fatalf("budget 1 evaluated %d leaves", s3.Leaves)
	}
	if capped.RS > s3.UpperBound {
		t.Fatalf("capped interval inverted: RS=%d > UpperBound=%d", capped.RS, s3.UpperBound)
	}
	if full.RS < capped.RS || full.RS > s3.UpperBound {
		t.Fatalf("true RS=%d outside proven interval [%d, %d]", full.RS, capped.RS, s3.UpperBound)
	}
}

// TestSharedSnapshotConcurrentReads hammers one ir.Snapshot from
// many goroutines running the full evaluator stack — analysis views, the
// incremental exact search, and Greedy-k — to prove concurrent reads of the
// shared immutable artifact are race-free (run under -race in CI).
func TestSharedSnapshotConcurrentReads(t *testing.T) {
	graphs := loadCorpus(t)
	g := graphs[0]
	for _, cand := range graphs {
		if len(cand.Types()) > 0 {
			g = cand
			break
		}
	}
	snap, err := ir.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, typ := range snap.Types {
				an, err := NewAnalysisIR(snap, typ)
				if err != nil {
					errs <- err
					return
				}
				if _, _, err := ExactBB(an, 0); err != nil {
					errs <- err
					return
				}
				if _, err := Greedy(an); err != nil {
					errs <- err
					return
				}
				snap.RedundantEdges()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Sanity: the snapshot's closure agrees with its longest-path matrix.
	for u := 0; u < snap.N; u++ {
		for v := 0; v < snap.N; v++ {
			if u == v {
				continue
			}
			if snap.Reaches(u, v) != (snap.LongestPath(u, v) != graph.NoPath) {
				t.Fatalf("closure and AP disagree on (%d,%d)", u, v)
			}
		}
	}
}

// TestExactBBNegativeBudget pins the clamp: any non-positive budget means
// "default", never an instantly capped empty search.
func TestExactBBNegativeBudget(t *testing.T) {
	g := loadCorpus(t)[0]
	typ := g.Types()[0]
	an, err := NewAnalysis(g, typ)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := ExactBB(an, -1)
	if err != nil {
		t.Fatalf("negative budget must fall back to the default, got: %v", err)
	}
	if stats.Capped {
		t.Fatal("negative budget spuriously capped the search")
	}
	want, _, err := ExactBB(an, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RS != want.RS {
		t.Fatalf("RS %d != %d under default budget", res.RS, want.RS)
	}
}
