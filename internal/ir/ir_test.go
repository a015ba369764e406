package ir

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regsat/internal/ddg"
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

func loadCorpus(t testing.TB) []*ddg.Graph {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ddg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus under ../../testdata")
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

// TestSnapshotMatchesDigraph checks every snapshot artifact against a fresh
// recomputation from the mutable digraph across the whole corpus.
func TestSnapshotMatchesDigraph(t *testing.T) {
	for _, g := range loadCorpus(t) {
		snap, err := Build(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		dg := g.ToDigraph()
		if snap.N != g.NumNodes() {
			t.Fatalf("%s: N=%d != %d", g.Name, snap.N, g.NumNodes())
		}
		// Topological order: valid positions for every edge.
		for _, e := range g.Edges() {
			if snap.TopoPos[e.From] >= snap.TopoPos[e.To] {
				t.Fatalf("%s: topo order violates edge %d→%d", g.Name, e.From, e.To)
			}
		}
		// All-pairs longest paths.
		ap, err := dg.LongestAllPairs()
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < snap.N; u++ {
			for v := 0; v < snap.N; v++ {
				if ap.D[u][v] != snap.AP.D[u][v] {
					t.Fatalf("%s: AP(%d,%d) %d != %d", g.Name, u, v, snap.AP.D[u][v], ap.D[u][v])
				}
			}
		}
		// Closure vs reachability, and critical path.
		cl, err := dg.TransitiveClosure()
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < snap.N; u++ {
			for v := 0; v < snap.N; v++ {
				if cl.Reaches(u, v) != snap.Reaches(u, v) {
					t.Fatalf("%s: closure(%d,%d) mismatch", g.Name, u, v)
				}
			}
		}
		if cp := g.CriticalPath(); cp != snap.CP {
			t.Fatalf("%s: CP %d != %d", g.Name, snap.CP, cp)
		}
		// CSR adjacency covers exactly the edge multiset, both directions.
		fwdCount, revCount := 0, 0
		for u := 0; u < snap.N; u++ {
			dst, wt := snap.Fwd.Row(u)
			fwdCount += len(dst)
			for i, v := range dst {
				if !hasEdge(g, u, int(v), wt[i]) {
					t.Fatalf("%s: Fwd edge %d→%d/%d not in graph", g.Name, u, v, wt[i])
				}
			}
			src, wtr := snap.Rev.Row(u)
			revCount += len(src)
			for i, v := range src {
				if !hasEdge(g, int(v), u, wtr[i]) {
					t.Fatalf("%s: Rev edge %d→%d/%d not in graph", g.Name, v, u, wtr[i])
				}
			}
		}
		if fwdCount != g.NumEdges() || revCount != g.NumEdges() {
			t.Fatalf("%s: CSR edge counts %d/%d != %d", g.Name, fwdCount, revCount, g.NumEdges())
		}
		// Type tables vs the direct graph scans.
		for _, typ := range g.Types() {
			tbl := snap.Table(typ)
			if tbl == nil {
				t.Fatalf("%s: missing table for %s", g.Name, typ)
			}
			wantVals := g.Values(typ)
			if len(tbl.Values) != len(wantVals) {
				t.Fatalf("%s/%s: %d values != %d", g.Name, typ, len(tbl.Values), len(wantVals))
			}
			for i, u := range wantVals {
				if tbl.Values[i] != u || tbl.Index[u] != i {
					t.Fatalf("%s/%s: value table mismatch at %d", g.Name, typ, i)
				}
				cons := g.Cons(u, typ)
				if len(cons) != len(tbl.Cons[i]) {
					t.Fatalf("%s/%s: consumer count mismatch for %d", g.Name, typ, u)
				}
				for j := range cons {
					if cons[j] != tbl.Cons[i][j] {
						t.Fatalf("%s/%s: consumers of %d differ", g.Name, typ, u)
					}
				}
				if tbl.DelayW[i] != g.Node(u).DelayW(typ) {
					t.Fatalf("%s/%s: δw mismatch for %d", g.Name, typ, u)
				}
				if len(tbl.PKill[i]) == 0 || len(tbl.PKill[i]) > len(cons) {
					t.Fatalf("%s/%s: pkill(%d) has %d entries for %d consumers",
						g.Name, typ, u, len(tbl.PKill[i]), len(cons))
				}
			}
		}
		// Digraph round-trip preserves edge indices.
		rt := snap.Digraph()
		if rt.M() != g.NumEdges() {
			t.Fatalf("%s: Digraph round-trip lost edges", g.Name)
		}
		for i, e := range g.Edges() {
			ge := rt.Edge(i)
			if ge.From != e.From || ge.To != e.To || ge.Weight != e.Latency {
				t.Fatalf("%s: Digraph edge %d differs", g.Name, i)
			}
		}
	}
}

func hasEdge(g *ddg.Graph, from, to int, w int64) bool {
	for _, e := range g.Edges() {
		if e.From == from && e.To == to && e.Latency == w {
			return true
		}
	}
	return false
}

// TestBuildRejectsUnfinalized pins the error contract.
func TestBuildRejectsUnfinalized(t *testing.T) {
	g := ddg.New("raw", ddg.Superscalar)
	g.AddNode("a", "iadd", 1)
	if _, err := Build(g); err == nil {
		t.Fatal("Build accepted an unfinalized graph")
	}
}

// TestFingerprintIgnoresNames pins the sharing contract the batch memo relies
// on.
func TestFingerprintIgnoresNames(t *testing.T) {
	a := ddg.RandomGraph(rand.New(rand.NewSource(3)), ddg.DefaultRandomParams(9))
	b := ddg.RandomGraph(rand.New(rand.NewSource(3)), ddg.DefaultRandomParams(9))
	b.Name = "other"
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("fingerprint must ignore names")
	}
	c := ddg.RandomGraph(rand.New(rand.NewSource(4)), ddg.DefaultRandomParams(9))
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("distinct structures collided")
	}
}

var sinkSnapshot *Snapshot

// BenchmarkIRBuild measures one full snapshot construction (CSR, topological
// order, closure, all-pairs longest paths, per-type tables) over the corpus.
func BenchmarkIRBuild(b *testing.B) {
	graphs := loadCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			s, err := Build(g)
			if err != nil {
				b.Fatal(err)
			}
			sinkSnapshot = s
		}
	}
}

var sinkClosure bool

// BenchmarkIRReach measures the closure-row hot read.
func BenchmarkIRReach(b *testing.B) {
	g := ddg.RandomGraph(rand.New(rand.NewSource(2)), ddg.DefaultRandomParams(64))
	snap, err := Build(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkClosure = snap.Reaches(i%snap.N, (i*7)%snap.N)
	}
}
