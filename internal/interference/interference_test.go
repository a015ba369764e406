package interference

import (
	"math/rand"
	"testing"
	"testing/quick"

	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/schedule"
)

func pairGraph(t *testing.T) (*ddg.Graph, *schedule.Schedule) {
	t.Helper()
	g := ddg.New("pair", ddg.Superscalar)
	a := g.AddNode("a", "load", 1)
	b := g.AddNode("b", "load", 1)
	sa := g.AddNode("sa", "store", 1)
	sb := g.AddNode("sb", "store", 1)
	g.SetWrites(a, ddg.Float, 0)
	g.SetWrites(b, ddg.Float, 0)
	g.AddFlowEdge(a, sa, ddg.Float)
	g.AddFlowEdge(b, sb, ddg.Float)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	s, err := schedule.ASAP(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

func TestBuildInterference(t *testing.T) {
	g, s := pairGraph(t)
	ig := Build(s, ddg.Float)
	a, b := g.NodeByName("a"), g.NodeByName("b")
	if !ig.Interferes(a, b) {
		t.Fatal("parallel values must interfere under ASAP")
	}
	if ig.NumEdges() != 1 {
		t.Fatalf("edges=%d, want 1", ig.NumEdges())
	}
	if ig.Degree(a) != 1 || ig.Degree(b) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestMaxCliqueMatchesRegisterNeed(t *testing.T) {
	_, s := pairGraph(t)
	ig := Build(s, ddg.Float)
	if ig.MaxClique() != s.RegisterNeed(ddg.Float) {
		t.Fatal("MaxClique must equal RN")
	}
}

func TestColorLeftEdgeOptimal(t *testing.T) {
	_, s := pairGraph(t)
	ig := Build(s, ddg.Float)
	col := ig.ColorLeftEdge()
	if col.NumColors != ig.MaxClique() {
		t.Fatalf("colors=%d, maxclique=%d: left-edge must be optimal on interval graphs",
			col.NumColors, ig.MaxClique())
	}
	if !col.Verify(ig) {
		t.Fatal("coloring invalid")
	}
}

func TestColoringSequentialUsesOneRegister(t *testing.T) {
	g, _ := pairGraph(t)
	a, b := g.NodeByName("a"), g.NodeByName("b")
	sa, sb := g.NodeByName("sa"), g.NodeByName("sb")
	times := make([]int64, g.NumNodes())
	times[a], times[sa], times[b], times[sb] = 0, 1, 2, 3
	times[g.Bottom()] = 5
	s := schedule.New(g, times)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ig := Build(s, ddg.Float)
	col := ig.ColorLeftEdge()
	if col.NumColors != 1 {
		t.Fatalf("colors=%d, want 1 for sequential schedule", col.NumColors)
	}
}

// Property: on random scheduled DAGs, left-edge coloring is valid and uses
// exactly MaxClique colors (interval graph optimality), for every type.
func TestLeftEdgeOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := ddg.DefaultRandomParams(2 + rng.Intn(12))
		p.Types = []ddg.RegType{ddg.Int, ddg.Float}
		g := ddg.RandomGraph(rng, p)
		s, err := schedule.ASAP(g)
		if err != nil {
			return false
		}
		for _, typ := range g.Types() {
			ig := Build(s, typ)
			col := ig.ColorLeftEdge()
			if !col.Verify(ig) {
				return false
			}
			if mc := ig.MaxClique(); col.NumColors != mc {
				// All-empty lifetime corner case: NumColors may be 1 > 0.
				if !(mc == 0 && col.NumColors <= 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildFromIRMatchesBuild pins the snapshot-backed constructor to the
// direct-scan one: identical value sets, intervals, and interference edges.
func TestBuildFromIRMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := ddg.RandomGraph(rng, ddg.DefaultRandomParams(12))
	s, err := schedule.ASAP(g)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ir.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range g.Types() {
		direct := Build(s, typ)
		viaIR := BuildFromIR(snap, s, typ)
		if len(direct.Values) != len(viaIR.Values) {
			t.Fatalf("%s: value counts differ: %d vs %d", typ, len(direct.Values), len(viaIR.Values))
		}
		for i, u := range direct.Values {
			if viaIR.Values[i] != u {
				t.Fatalf("%s: value %d differs", typ, i)
			}
			if direct.Intervals[i] != viaIR.Intervals[i] {
				t.Fatalf("%s: interval of %d differs", typ, u)
			}
			for _, v := range direct.Values {
				if direct.Interferes(u, v) != viaIR.Interferes(u, v) {
					t.Fatalf("%s: interference (%d,%d) differs", typ, u, v)
				}
			}
		}
	}
}

// TestMaximalCliques: greedy maximal cliques over an explicit conflict
// relation — every emitted set is a clique, maximal, deduplicated, at least
// minSize large, and deterministically ordered.
func TestMaximalCliques(t *testing.T) {
	// Conflict graph on 6 vertices: triangle {0,1,2}, edge-glued triangle
	// {2,3,4}, isolated vertex 5.
	edges := map[[2]int]bool{
		{0, 1}: true, {0, 2}: true, {1, 2}: true,
		{2, 3}: true, {2, 4}: true, {3, 4}: true,
	}
	conflicts := func(i, j int) bool {
		if i > j {
			i, j = j, i
		}
		return edges[[2]int{i, j}]
	}
	got := MaximalCliques(6, conflicts, 3, 16)
	want := [][]int{{0, 1, 2}, {2, 3, 4}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for ci, c := range got {
		for i := range c {
			if i > 0 && c[i-1] >= c[i] {
				t.Fatalf("clique %v not in strict ascending order", c)
			}
			if c[i] != want[ci][i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}

	// Randomized properties: clique-ness, maximality, dedup, determinism.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(10)
		adj := make([]bool, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					adj[i*n+j], adj[j*n+i] = true, true
				}
			}
		}
		pred := func(i, j int) bool { return adj[i*n+j] }
		cliques := MaximalCliques(n, pred, 2, 100)
		seen := map[string]bool{}
		for _, c := range cliques {
			key := ""
			for _, v := range c {
				key += string(rune(v)) + ","
			}
			if seen[key] {
				t.Fatalf("trial %d: duplicate clique %v", trial, c)
			}
			seen[key] = true
			for i := range c {
				for j := i + 1; j < len(c); j++ {
					if !pred(c[i], c[j]) {
						t.Fatalf("trial %d: %v is not a clique (%d-%d)", trial, c, c[i], c[j])
					}
				}
			}
			// Maximality: no outside vertex conflicts with every member.
			for v := 0; v < n; v++ {
				inClique := false
				for _, m := range c {
					if m == v {
						inClique = true
						break
					}
				}
				if inClique {
					continue
				}
				all := true
				for _, m := range c {
					if !pred(v, m) {
						all = false
						break
					}
				}
				if all {
					t.Fatalf("trial %d: clique %v not maximal (vertex %d extends it)", trial, c, v)
				}
			}
		}
		again := MaximalCliques(n, pred, 2, 100)
		if len(again) != len(cliques) {
			t.Fatalf("trial %d: nondeterministic output", trial)
		}
		for i := range cliques {
			if len(again[i]) != len(cliques[i]) {
				t.Fatalf("trial %d: nondeterministic output", trial)
			}
			for j := range cliques[i] {
				if again[i][j] != cliques[i][j] {
					t.Fatalf("trial %d: nondeterministic output", trial)
				}
			}
		}
	}

	// Degenerate parameters return nothing.
	if MaximalCliques(1, conflicts, 2, 8) != nil ||
		MaximalCliques(6, conflicts, 1, 8) != nil ||
		MaximalCliques(6, conflicts, 3, 0) != nil {
		t.Fatal("degenerate parameters produced cliques")
	}
}
