package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNewAndAddNode(t *testing.T) {
	g := New(3)
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 3, 0", g.N(), g.M())
	}
	id := g.AddNode()
	if id != 3 || g.N() != 4 {
		t.Fatalf("AddNode returned %d (n=%d), want 3 (n=4)", id, g.N())
	}
}

func TestAddEdgeAndAdjacency(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 2, 3)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)

	if got := g.Succ(0); len(got) != 2 {
		t.Fatalf("Succ(0)=%v, want 2 successors", got)
	}
	if got := g.Pred(3); len(got) != 2 {
		t.Fatalf("Pred(3)=%v, want 2 predecessors", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge direction wrong")
	}
	if g.OutDegree(0) != 2 || g.InDegree(3) != 2 || g.InDegree(0) != 0 {
		t.Fatal("degree accounting wrong")
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 5)
	if g.M() != 2 {
		t.Fatalf("M=%d, want 2", g.M())
	}
	if got := g.Succ(0); len(got) != 2 {
		t.Fatalf("parallel edges should appear with multiplicity, got %v", got)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	g := New(1)
	g.AddEdge(0, 0, 1)
}

func TestRemoveEdges(t *testing.T) {
	g := New(3)
	e0 := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.RemoveEdges([]int{e0})
	if g.M() != 1 {
		t.Fatalf("M=%d, want 1", g.M())
	}
	if g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("wrong edge removed")
	}
}

func TestClone(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 7)
	c := g.Clone()
	c.AddEdge(1, 0, 1) // creates a cycle only in the clone
	if !g.IsDAG() {
		t.Fatal("mutating clone affected original")
	}
	if c.IsDAG() {
		t.Fatal("clone should have a cycle")
	}
}

func TestTopoSortChain(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 2, 1)
	g.AddEdge(2, 1, 1)
	g.AddEdge(1, 0, 1)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v, want %v", order, want)
		}
	}
}

func TestTopoSortDeterministicTieBreak(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	// Nodes 0,1,2 are all sources; smallest-first order expected.
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v, want %v", order, want)
		}
	}
}

func TestTopoSortCycleDetected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	_, err := g.TopoSort()
	ce, ok := err.(*ErrCycle)
	if !ok {
		t.Fatalf("got %v, want *ErrCycle", err)
	}
	if len(ce.Nodes) != 3 {
		t.Fatalf("cycle %v, want length 3", ce.Nodes)
	}
	// The reported cycle must actually be a cycle in g.
	for i := range ce.Nodes {
		u, v := ce.Nodes[i], ce.Nodes[(i+1)%len(ce.Nodes)]
		if !g.HasEdge(u, v) {
			t.Fatalf("reported cycle %v has no edge %d→%d", ce.Nodes, u, v)
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	if s := g.Sources(); len(s) != 2 || s[0] != 0 || s[1] != 1 {
		t.Fatalf("Sources=%v, want [0 1]", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Fatalf("Sinks=%v, want [3]", s)
	}
}

func TestIsDAGRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		g := New(n)
		// Edges only from lower to higher index: always a DAG.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(u, v, int64(rng.Intn(5)))
				}
			}
		}
		if !g.IsDAG() {
			t.Fatal("forward-edge graph must be a DAG")
		}
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, n)
		for i, u := range order {
			pos[u] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("edge %v violates topological order", e)
			}
		}
	}
}

func TestSortedEdgesDeterministic(t *testing.T) {
	g := New(3)
	g.AddEdge(2, 1, 5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 3)
	es := g.SortedEdges()
	if es[0].From != 0 || es[0].To != 1 || es[2].From != 2 {
		t.Fatalf("SortedEdges=%v not sorted", es)
	}
}

func TestDOTContainsNodesAndEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 4)
	dot := g.DOT("g", []string{"a", "b"}, nil)
	for _, want := range []string{"digraph", `label="a"`, `label="b"`, "n0 -> n1", `label="4"`} {
		if !contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TestAdjacencyKeepsEdgeOrder: OutEdges and InEdges list each node's edges
// in edge-list order (the order every caller's iteration depends on), on
// random multigraphs and again after RemoveEdges and AddEdge invalidate the
// adjacency. The reference is a plain scan of Edges().
func TestAdjacencyKeepsEdgeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(g *Digraph) {
		t.Helper()
		for u := 0; u < g.N(); u++ {
			var out, in []int
			for i, e := range g.Edges() {
				if e.From == u {
					out = append(out, i)
				}
				if e.To == u {
					in = append(in, i)
				}
			}
			if got := g.OutEdges(u); !slices.Equal(got, out) {
				t.Fatalf("OutEdges(%d) = %v, want %v", u, got, out)
			}
			if got := g.InEdges(u); !slices.Equal(got, in) {
				t.Fatalf("InEdges(%d) = %v, want %v", u, got, in)
			}
			if g.OutDegree(u) != len(out) || g.InDegree(u) != len(in) {
				t.Fatalf("degrees of %d: out %d in %d, want %d %d", u, g.OutDegree(u), g.InDegree(u), len(out), len(in))
			}
		}
	}
	addRandom := func(g *Digraph, m int) {
		for i := 0; i < m; i++ {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v {
				g.AddEdge(u, v, int64(rng.Intn(5)))
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		g := New(n)
		addRandom(g, rng.Intn(4*n+1))
		check(g)
		held := g.OutEdges(0)
		before := append([]int(nil), held...)
		if g.M() > 0 {
			var drop []int
			for i := 0; i < g.M(); i++ {
				if rng.Intn(3) == 0 {
					drop = append(drop, i)
				}
			}
			g.RemoveEdges(drop)
			check(g)
		}
		addRandom(g, rng.Intn(n+1))
		g.AddNode()
		check(g)
		if !slices.Equal(held, before) {
			t.Fatalf("an OutEdges slice taken before a mutation changed: %v, was %v", held, before)
		}
		// A caller appending to a returned slice must not clobber the
		// neighbouring node's bucket.
		if g.N() > 1 {
			want := append([]int(nil), g.OutEdges(1)...)
			_ = append(g.OutEdges(0), -1)
			if got := g.OutEdges(1); !slices.Equal(got, want) {
				t.Fatalf("append to OutEdges(0) changed OutEdges(1): %v, want %v", got, want)
			}
		}
	}
}
