package gen

import (
	"context"
	"slices"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/rs"
)

// TestRedundantEdgesMatchesDigraph pins ir.Snapshot.RedundantEdges, which
// runs over the snapshot's own CSR and topological order, to the digraph
// transitive reduction it replaced: the same edge indices, in the same
// order, over the committed corpus and a sample of every generator family.
func TestRedundantEdgesMatchesDigraph(t *testing.T) {
	var graphs []*ddg.Graph
	for path, text := range corpusTexts(t) {
		if cyclic.Detect(text) {
			continue
		}
		g, err := ddg.ParseString(text)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := g.Finalize(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		graphs = append(graphs, g)
	}
	for _, f := range Families() {
		for i := 0; i < 30; i++ {
			g, err := f.Generate(sweepParams(f, i))
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	for _, g := range graphs {
		snap, err := ir.Build(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		want, err := g.ToDigraph().TransitiveReduction()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if got := snap.RedundantEdges(); !slices.Equal(got, want) {
			t.Fatalf("%s: redundant edges %v, want %v", g.Name, got, want)
		}
	}
}

var sinkCyclic map[ddg.RegType]*cyclic.Result

// BenchmarkCyclicAnalyze measures the periodic analysis layer on novel
// loops: one op analyzes one two-type loop of the cyclic families
// (alternating), every register type over one cyclic.Windows, with the
// exact combinatorial engine and no witness — what the batch engine does
// for a loop item the memo has not seen. Loops are generated before the
// timer. Metrics: ns/op and allocs/op per loop.
func BenchmarkCyclicAnalyze(b *testing.B) {
	families := CyclicFamilies()
	loops := make([]*cyclic.Loop, b.N)
	for i := range loops {
		f := families[i%len(families)]
		p := cyclicSweepParams(f, i)
		p.Seed += 100_000 // outside every test sweep
		p.Types = []ddg.RegType{ddg.Int, ddg.Float}
		l, err := f.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		loops[i] = l
	}
	opt := cyclic.Options{RS: rs.Options{Method: rs.MethodExactBB, SkipWitness: true}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cyclic.AnalyzeAll(ctx, loops[i], opt)
		if err != nil {
			b.Fatal(err)
		}
		sinkCyclic = res
	}
}
