package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regsat/client"
	"regsat/internal/cyclic"
	"regsat/internal/obs"
)

// TestCorpusDeterministic checks that one seed always generates
// byte-identical inputs, and that another seed generates different ones.
func TestCorpusDeterministic(t *testing.T) {
	texts := func(seed int64, stream string, loops bool) ([]string, string) {
		c := newCorpus(seed, stream, loops)
		items, err := c.take(64)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, it := range items {
			out = append(out, it.text)
		}
		return out, c.sum()
	}
	a, sumA := texts(7, "working-set", true)
	b, sumB := texts(7, "working-set", true)
	if strings.Join(a, "\x00") != strings.Join(b, "\x00") || sumA != sumB {
		t.Fatal("the same seed generated different corpora")
	}
	if _, sumC := texts(8, "working-set", true); sumC == sumA {
		t.Fatal("seeds 7 and 8 generated the same corpus")
	}
	if _, sumD := texts(7, "unique-acyclic", false); sumD == sumA {
		t.Fatal("two streams of one seed generated the same corpus")
	}
	loops := 0
	for _, text := range a {
		if cyclic.Detect(text) {
			loops++
		}
	}
	if loops != 8 {
		t.Fatalf("%d loops in 64 items, want 8", loops)
	}
}

// served builds the wire item a correct daemon would return for it.
func served(it *item) *client.Item {
	got := &client.Item{Name: it.name, RS: map[string]*client.RSOutcome{}, Cyclic: map[string]*client.CyclicOutcome{}}
	for typ, a := range it.ref {
		if it.loop != nil {
			got.Cyclic[string(typ)] = &client.CyclicOutcome{
				Windows: append([]int(nil), a.windows...), PerIter: a.perIter, Exact: a.exact,
			}
		} else {
			got.RS[string(typ)] = &client.RSOutcome{RS: a.rs, Exact: a.exact}
		}
	}
	return got
}

// TestOracleFlagsCorruptedAnswers checks that the reference check accepts
// the right answer and rejects each kind of corrupted one.
func TestOracleFlagsCorruptedAnswers(t *testing.T) {
	items, err := newCorpus(3, "working-set", true).take(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := computeRefs(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	graph, loop := items[0], items[7]
	if graph.graph == nil || loop.loop == nil {
		t.Fatal("expected a graph first and a loop eighth")
	}
	for _, it := range []*item{graph, loop} {
		if exact, err := check(it, served(it)); err != nil || !exact {
			t.Fatalf("%s: correct answer rejected (exact=%t): %v", it.name, exact, err)
		}
	}

	corrupt := map[string]func() (*item, *client.Item){
		"wrong RS": func() (*item, *client.Item) {
			got := served(graph)
			for _, r := range got.RS {
				r.RS++
				break
			}
			return graph, got
		},
		"interval missing the answer": func() (*item, *client.Item) {
			got := served(graph)
			for _, r := range got.RS {
				r.Exact, r.RS, r.UpperBound = false, r.RS+1, r.RS+2
				break
			}
			return graph, got
		},
		"missing type": func() (*item, *client.Item) {
			got := served(graph)
			for k := range got.RS {
				delete(got.RS, k)
				break
			}
			return graph, got
		},
		"served error": func() (*item, *client.Item) {
			got := served(graph)
			got.Error = "boom"
			return graph, got
		},
		"wrong window": func() (*item, *client.Item) {
			got := served(loop)
			for _, c := range got.Cyclic {
				c.Windows[len(c.Windows)-1]++
				break
			}
			return loop, got
		},
		"wrong per-iteration delta": func() (*item, *client.Item) {
			got := served(loop)
			for _, c := range got.Cyclic {
				c.PerIter++
				break
			}
			return loop, got
		},
	}
	for name, mk := range corrupt {
		it, got := mk()
		if _, err := check(it, got); err == nil {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}

	// A capped answer whose interval contains the reference is right, but
	// not exact.
	got := served(graph)
	for _, r := range got.RS {
		r.Exact, r.UpperBound = false, r.RS+1
	}
	if exact, err := check(graph, got); err != nil || exact {
		t.Fatalf("capped answer containing the reference: exact=%t err=%v", exact, err)
	}
	// The wire omits an upper bound equal to RS.
	got = served(graph)
	for _, r := range got.RS {
		r.Exact = false
	}
	if exact, err := check(graph, got); err != nil || exact {
		t.Fatalf("capped answer with an omitted bound: exact=%t err=%v", exact, err)
	}
}

// TestTallyCountsWrongAnswers checks that a wrong answer inside a served
// batch counts as a failed item.
func TestTallyCountsWrongAnswers(t *testing.T) {
	items, err := newCorpus(4, "working-set", true).take(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := computeRefs(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	resp := &client.AnalyzeResponse{}
	for i, it := range items {
		got := served(it)
		got.Index = i
		resp.Items = append(resp.Items, *got)
	}
	for _, r := range resp.Items[1].RS {
		r.RS += 2
	}
	var tl tally
	tl.add([]request{{items: items}}, []outcome{{status: 200, resp: resp}}, 1)
	if tl.attempted != 3 || tl.failed != 1 || tl.exact != 2 || tl.firstErr == nil {
		t.Fatalf("tally attempted=%d failed=%d exact=%d err=%v, want 3/1/2 with an error",
			tl.attempted, tl.failed, tl.exact, tl.firstErr)
	}
}

// TestTracedPassCount checks that the traced run has an untraced and a
// traced pass, and no more passes than the scenario built, at any
// --seconds.
func TestTracedPassCount(t *testing.T) {
	for _, w := range workloads {
		for _, passItems := range []int{coldPassItems, warmRounds * warmSetSize, storePassItems} {
			for _, seconds := range []int{1, 2, 7, 15, 60} {
				p := w.passes(seconds, passItems)
				if n := tracedPasses(p); n < 2 || n > p || n%2 != 0 {
					t.Errorf("%s, %d items a pass, %d s: %d traced-run passes of %d", w.name, passItems, seconds, n, p)
				}
			}
		}
	}
}

// TestLayerSpansFormOneTree checks that the spans of a layer call are
// written in the daemon's trace export schema, as cmd/rstrace reads them:
// one trace with one root and every parent present.
func TestLayerSpansFormOneTree(t *testing.T) {
	var sp spans
	if _, _, _, err := sp.do("layer.call", 3, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	if err := sp.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []obs.SpanData
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s obs.SpanData
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 4 {
		t.Fatalf("%d spans, want 3 calls and a root", len(got))
	}
	ids := map[string]bool{}
	for _, s := range got {
		if s.TraceID != got[0].TraceID || s.Service != benchService || s.SpanID == "" {
			t.Fatalf("span %+v: wrong trace, service or ID", s)
		}
		ids[s.SpanID] = true
	}
	roots := 0
	for _, s := range got {
		switch {
		case s.Parent == "":
			roots++
		case !ids[s.Parent]:
			t.Fatalf("span %s has a parent outside its trace", s.Name)
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots, want 1", roots)
	}
}
