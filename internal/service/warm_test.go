package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"regsat/client"
	"regsat/internal/gen"
)

// warmBatchSize is the graph count of one warm request, the batch size the
// end-to-end warm-memo workload sends.
const warmBatchSize = 26

// warmRequest returns a server whose memo already holds every answer of a
// bb request over warmBatchSize generated graphs (the families in turn,
// one seed each), and that request's body.
func warmRequest(tb testing.TB) (http.Handler, []byte) {
	tb.Helper()
	fams := gen.Families()
	req := client.AnalyzeRequest{Options: client.AnalyzeOptions{Method: "bb"}}
	for i := 0; i < warmBatchSize; i++ {
		f := fams[i%len(fams)]
		p := f.Defaults
		p.Seed = int64(100 + i)
		g, err := f.Generate(p)
		if err != nil {
			tb.Fatal(err)
		}
		req.Graphs = append(req.Graphs, client.GraphInput{Name: fmt.Sprintf("g%d", i), DDG: g.Format()})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	if resp := serveWarm(tb, h, body); resp.Stats.Computed == 0 {
		tb.Fatal("priming request computed nothing")
	}
	return h, body
}

// serveWarm sends body through h and decodes the answer, which must be
// complete and error-free.
func serveWarm(tb testing.TB, h http.Handler, body []byte) client.AnalyzeResponse {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	var resp client.AnalyzeResponse
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		tb.Fatal(err)
	}
	if len(resp.Items) != warmBatchSize || resp.Error != "" {
		tb.Fatalf("%d items, error %q", len(resp.Items), resp.Error)
	}
	for _, it := range resp.Items {
		if it.Error != "" {
			tb.Fatalf("item %s: %s", it.Name, it.Error)
		}
	}
	return resp
}

// BenchmarkAnalyzeWarm is the HTTP handler layer on the memo-hit path: one
// op is one primed bb request of warmBatchSize graphs through
// Server.Handler, from the request body to the encoded response. It
// reports allocations and microseconds per item.
func BenchmarkAnalyzeWarm(b *testing.B) {
	h, body := warmRequest(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	items := float64(b.N * warmBatchSize)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/items, "allocs/item")
	b.ReportMetric(float64(elapsed.Microseconds())/items, "µs/item")
}

// maxWarmRequestAllocs bounds the allocations per item of a primed bb
// request through the handler: JSON decode, intake, memo hits, wire
// conversion and JSON encode, plus the request's share of the engine's
// goroutines and channels. It measures 24.2 (go1.24, linux/amd64), where a
// map per value-writing node for its writes, per-step parse scratch and a
// streaming JSON decoder made it 53.2; the bound leaves 30% headroom.
const maxWarmRequestAllocs = 32

// TestWarmRequestAllocs guards the daemon's allocations per warm item at
// the handler layer.
func TestWarmRequestAllocs(t *testing.T) {
	h, body := warmRequest(t)
	if resp := serveWarm(t, h, body); resp.Stats.Computed != 0 {
		t.Fatalf("warm request computed %d results", resp.Stats.Computed)
	}
	got := testing.AllocsPerRun(10, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}) / warmBatchSize
	t.Logf("%.1f allocations per item", got)
	if got > maxWarmRequestAllocs {
		t.Fatalf("a warm request allocates %.1f times per item, bound %d", got, maxWarmRequestAllocs)
	}
}
