package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"regsat/client"
	"regsat/internal/ddg"
	"regsat/internal/gen"
	"regsat/internal/ir"
)

// coldRequests returns n one-graph ilp request bodies over distinct
// generated graphs (the families in turn at their default parameters, int
// and float values, seeds drawn from seed 101, structural duplicates
// skipped), each solve capped at 10,000 branch-and-bound nodes: the
// daemon benchmark's cold-ilp request mix.
func coldRequests(tb testing.TB, n int) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(101))
	fams := gen.Families()
	seen := map[string]bool{}
	bodies := make([][]byte, 0, n)
	for k := 0; len(bodies) < n; k++ {
		f := fams[k%len(fams)]
		p := f.Defaults
		p.Seed, p.Types = rng.Int63(), []ddg.RegType{ddg.Int, ddg.Float}
		g, err := f.Generate(p)
		if err != nil {
			tb.Fatal(err)
		}
		fp := ir.Fingerprint(g)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		body, err := json.Marshal(client.AnalyzeRequest{
			Graphs:  []client.GraphInput{{Name: g.Name, DDG: g.Format()}},
			Options: client.AnalyzeOptions{Method: "ilp", Solver: client.SolverOptions{MaxNodes: 10000}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// BenchmarkAnalyzeCold is the HTTP handler layer on the cold MILP path: a
// fresh Server without a store answers one-graph ilp requests over
// distinct generated graphs, so every item is parsed, built and solved by
// the Section 3 MILP. One op is one request (one item), from the request
// body to the encoded response. The bodies are built outside the timer.
// It reports allocations, KiB and microseconds per item.
func BenchmarkAnalyzeCold(b *testing.B) {
	bodies := coldRequests(b, b.N)
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	items := float64(b.N)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/items, "allocs/item")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1024/items, "KiB/item")
	b.ReportMetric(float64(elapsed.Microseconds())/items, "µs/item")
}

// maxColdRequestAllocs bounds the allocations per item of a one-graph ilp
// request through the handler on the cold path, over the cold-ilp mix:
// JSON decode, intake, the snapshot build, the greedy seed, the Section 3
// model, its solve, wire conversion and JSON encode. It measures 400
// (go1.24, linux/amd64), where deriving the clique hints before the root
// LP, solving every root to optimality and a fresh Greedy-k evaluator per
// solve made it 540; the bound leaves 30% headroom.
const maxColdRequestAllocs = 520

// TestColdRequestAllocs guards the daemon's allocations per cold item at
// the handler layer: a fresh server answers requests over distinct graphs,
// so every one is solved.
func TestColdRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a random quarter of what is put into it")
	}
	const items = 400
	bodies := coldRequests(t, items+1)
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	next := 0
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(bodies[next])))
		next++
		if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for next <= items {
		serve()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / items
	t.Logf("%.1f allocations per item", got)
	if got > maxColdRequestAllocs {
		t.Fatalf("a cold request allocates %.1f times per item, bound %d", got, maxColdRequestAllocs)
	}
}
