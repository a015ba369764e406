package batch

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/rs"
)

// Per-layer benchmarks of request intake on the memo-hit path, over the
// committed corpus (the 26 top-level .ddg files and the loops of
// testdata/cyclic/): parse, Finalize, fingerprint, and the memo hit that
// serves every register type of an already analyzed structure. Each op
// covers the whole corpus.

// intakeCorpus reads the committed corpus texts, in path order.
func intakeCorpus(tb testing.TB) []string {
	tb.Helper()
	var texts []string
	for _, pattern := range []string{"../../testdata/*.ddg", "../../testdata/cyclic/*.ddg"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				tb.Fatal(err)
			}
			texts = append(texts, string(raw))
		}
	}
	if len(texts) < 30 {
		tb.Fatalf("found %d corpus files", len(texts))
	}
	return texts
}

// intakeItems loads every corpus text as the daemon does (ParseText).
func intakeItems(tb testing.TB) []Item {
	tb.Helper()
	var items []Item
	for _, text := range intakeCorpus(tb) {
		it := ParseText(text)
		if it.Err != nil {
			tb.Fatal(it.Err)
		}
		items = append(items, it)
	}
	return items
}

var benchSink any

func BenchmarkParseDDG(b *testing.B) {
	texts := intakeCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			if cyclic.Detect(text) {
				benchSink, _ = cyclic.ParseString(text)
			} else {
				benchSink, _ = ddg.ParseString(text)
			}
		}
	}
}

func BenchmarkFinalize(b *testing.B) {
	var texts []string
	for _, text := range intakeCorpus(b) {
		if !cyclic.Detect(text) {
			texts = append(texts, text)
		}
	}
	graphs := make([]*ddg.Graph, len(texts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh parses, as the daemon finalizes them: their slices have
		// the room the parser reserved for ⊥ and its edges.
		b.StopTimer()
		for k, text := range texts {
			g, err := ddg.ParseString(text)
			if err != nil {
				b.Fatal(err)
			}
			graphs[k] = g
		}
		b.StartTimer()
		for _, g := range graphs {
			if err := g.Finalize(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	items := intakeItems(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			if it.Loop != nil {
				benchSink = it.Loop.Fingerprint()
			} else {
				benchSink = Fingerprint(it.Graph)
			}
		}
	}
}

// warmEngine returns an engine that has analyzed every item with the exact
// search (the daemon's "bb" options without witnesses), so that processing
// any of them again is a memo hit for every type.
func warmEngine(tb testing.TB, items []Item) *Engine {
	tb.Helper()
	e := New(Options{Parallel: 1, RS: rs.Options{Method: rs.MethodExactBB, SkipWitness: true}})
	results, err := e.Collect(context.Background(), Items(items...))
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			tb.Fatal(r.Err)
		}
	}
	return e
}

func BenchmarkMemoHit(b *testing.B) {
	items := intakeItems(b)
	e := warmEngine(b, items)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, it := range items {
			benchSink = e.process(ctx, work{index: k, item: it})
		}
	}
}

// maxWarmHitAllocs bounds the allocations of one corpus item on the
// daemon's warm path — parse, Finalize (or loop validation), fingerprint and
// a memo hit for every register type — averaged over the corpus. The path
// measures 11.4 allocations per item (go1.24, linux/amd64); a map per
// value-writing node for its writes and a scratch slice per Finalize step
// made it 33.1, and a Scanner, strings.Fields and a linear name scan per
// line, a map-based exit scan and a formatted options key per type made it
// 184. The bound leaves 30% headroom.
const maxWarmHitAllocs = 15

// TestWarmHitAllocs guards the allocation count of request intake on the
// memo-hit path.
func TestWarmHitAllocs(t *testing.T) {
	texts := intakeCorpus(t)
	var items []Item
	for _, text := range texts {
		items = append(items, ParseText(text))
	}
	e := warmEngine(t, items)
	ctx := context.Background()
	got := testing.AllocsPerRun(20, func() {
		for k, text := range texts {
			res := e.process(ctx, work{index: k, item: ParseText(text)})
			if res.Err != nil || !res.CacheHit {
				t.Fatalf("item %d: err %v, cache hit %t", k, res.Err, res.CacheHit)
			}
		}
	}) / float64(len(texts))
	t.Logf("%.1f allocations per item", got)
	if got > maxWarmHitAllocs {
		t.Fatalf("warm-path intake allocates %.1f times per item, bound %d", got, maxWarmHitAllocs)
	}
}

// TestInvalidLoopRejectedOnEveryRoute: a loop with a zero-distance cycle is
// an item error whether it arrives as text (ParseText, the route of corpus
// files and inline daemon items), through Loops, or as a bare Item that no
// intake validated.
func TestInvalidLoopRejectedOnEveryRoute(t *testing.T) {
	const text = "ddg \"zc\" machine=superscalar loop\n" +
		"node a lat=1 writes=int\nnode b lat=1 writes=int\n" +
		"edge a b flow int\nedge b a flow int\n"
	it := ParseText(text)
	if it.Err == nil || it.Name != "zc" {
		t.Fatalf("ParseText: name %q, err %v", it.Name, it.Err)
	}
	l, err := cyclic.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Parallel: 2})
	for name, src := range map[string]Source{
		"text":  Items(it),
		"Loops": Loops(l),
		"Items": Items(Item{Name: "zc", Loop: l}, Item{Name: "zc", Loop: l}),
	} {
		results, err := e.Collect(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "zero-distance cycle") {
				t.Errorf("%s: invalid loop accepted: %+v", name, r)
			}
		}
	}
}
