package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"regsat/client"
	"regsat/internal/service/store"
)

const corpusRoot = "../../testdata"

// newTestServer boots a service over httptest and returns a client for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *client.Client, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	return s, client.New(hs.URL, hs.Client()), hs.Close
}

// TestServiceEndToEndPersistence is the acceptance path: start a daemon on
// a fresh store, analyze the whole committed corpus, "restart" (new server,
// new engine, same store directory), re-analyze, and require identical
// results with zero RS computations — every result served from L2.
func TestServiceEndToEndPersistence(t *testing.T) {
	dir := t.TempDir()
	req := &client.AnalyzeRequest{
		Corpus:  []string{"."},
		Options: client.AnalyzeOptions{Method: "bb"},
	}

	runDaemon := func() (*client.AnalyzeResponse, store.Stats) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, c, done := newTestServer(t, Config{Store: st, CorpusRoot: corpusRoot})
		defer done()
		resp, err := c.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, st.Stats()
	}

	first, firstStore := runDaemon()
	if len(first.Items) < 20 {
		t.Fatalf("corpus run returned %d items, want the full testdata corpus", len(first.Items))
	}
	cyclicItems := 0
	for _, it := range first.Items {
		if it.Error != "" {
			t.Fatalf("%s failed: %s", it.Name, it.Error)
		}
		if len(it.Cyclic) > 0 {
			// Loop kernels in the corpus come back with periodic results
			// instead of acyclic RS.
			cyclicItems++
			continue
		}
		if len(it.RS) == 0 {
			t.Fatalf("%s has no RS results", it.Name)
		}
	}
	if cyclicItems == 0 {
		t.Fatal("corpus contains a loop kernel but no item has cyclic results")
	}
	if first.Stats.Computed == 0 {
		t.Fatal("first pass computed nothing?")
	}
	if firstStore.Puts == 0 {
		t.Fatal("first pass persisted nothing")
	}

	second, _ := runDaemon()
	if second.Stats.Computed != 0 {
		t.Fatalf("second pass after restart computed %d results, want 0 (all L2 hits)", second.Stats.Computed)
	}
	if second.Stats.L2Hits == 0 {
		t.Fatal("second pass reports no L2 hits")
	}
	if len(second.Items) != len(first.Items) {
		t.Fatalf("item count changed across restart: %d vs %d", len(second.Items), len(first.Items))
	}
	for i, a := range first.Items {
		b := second.Items[i]
		if a.Name != b.Name {
			t.Fatalf("item %d renamed across restart: %s vs %s", i, a.Name, b.Name)
		}
		if !b.CacheHit {
			t.Fatalf("%s not served from cache on the second pass", b.Name)
		}
		if len(a.RS) != len(b.RS) {
			t.Fatalf("%s: RS type count changed", a.Name)
		}
		for typ, ra := range a.RS {
			rb := b.RS[typ]
			if rb == nil || rb.RS != ra.RS || rb.Exact != ra.Exact {
				t.Fatalf("%s/%s: results differ across restart: %+v vs %+v", a.Name, typ, ra, rb)
			}
		}
		if len(a.Cyclic) != len(b.Cyclic) {
			t.Fatalf("%s: cyclic type count changed across restart", a.Name)
		}
		for typ, ca := range a.Cyclic {
			cb := b.Cyclic[typ]
			if cb == nil || cb.PerIter != ca.PerIter || cb.Converged != ca.Converged ||
				len(cb.Windows) != len(ca.Windows) {
				t.Fatalf("%s/%s: cyclic results differ across restart: %+v vs %+v", a.Name, typ, ca, cb)
			}
		}
	}
}

func TestServiceInlineGraphsStreamAndParsePositions(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()

	good := "ddg \"tiny\"\nnode a op=load lat=2 writes=float\nnode b op=use lat=1\nedge a b flow float\n"
	bad := "ddg \"broken\"\nnode a op=load lat=oops writes=float\n"
	req := &client.AnalyzeRequest{
		Graphs: []client.GraphInput{
			{Name: "g0", DDG: good},
			{Name: "g1", DDG: bad},
			{DDG: good}, // unnamed: falls back to the parsed ddg name
		},
		Options: client.AnalyzeOptions{Method: "bb", Witness: true},
	}

	var items []*client.Item
	stats, err := c.AnalyzeStream(context.Background(), req, func(it *client.Item) error {
		items = append(items, it)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	for i, it := range items {
		if it.Index != i {
			t.Fatalf("stream out of order: item %d has index %d", i, it.Index)
		}
	}
	if items[0].Name != "g0" || items[0].Error != "" {
		t.Fatalf("good graph failed: %+v", items[0])
	}
	rs := items[0].RS["float"]
	if rs == nil || rs.RS != 1 || !rs.Exact {
		t.Fatalf("tiny graph RS_float: %+v, want exact 1", rs)
	}
	if len(rs.Witness) == 0 {
		t.Fatal("witness requested but absent")
	}
	if got := items[1]; got.Error == "" || got.ErrorLine != 2 || got.ErrorCol == 0 {
		t.Fatalf("parse failure not located: %+v", got)
	} else if !strings.Contains(got.Error, "line 2") {
		t.Fatalf("parse error lacks position: %q", got.Error)
	}
	if items[2].Name != "tiny" {
		t.Fatalf("unnamed graph not named from its ddg directive: %q", items[2].Name)
	}
	// Structural twins within one request: the third graph is the first one
	// again, so at most one computation per type ran.
	if stats.Computed > 1 {
		t.Fatalf("twin graphs computed separately: %+v", stats)
	}
}

// TestServiceInlineLoopKernel: a cyclic DDG posted inline comes back with
// periodic results — windows, per-iteration delta, and (with certify on) the
// exact periodic MILP certificate — and a malformed loop fails cleanly.
func TestServiceInlineLoopKernel(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()

	loop := "ddg \"rec\" loop\nnode a op=mul lat=2 writes=float\nnode b op=add lat=1 writes=float\n" +
		"edge a b flow float\nedge b a flow float dist=1\n"
	zeroCycle := "ddg \"bad\" loop\nnode a op=x lat=1 writes=int\nedge a a flow int\n"
	resp, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		Graphs: []client.GraphInput{
			{Name: "l0", DDG: loop},
			{Name: "l1", DDG: zeroCycle},
		},
		Options: client.AnalyzeOptions{
			Method: "bb",
			Cyclic: &client.CyclicSpec{Certify: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 2 {
		t.Fatalf("got %d items, want 2", len(resp.Items))
	}
	it := resp.Items[0]
	if it.Error != "" {
		t.Fatalf("loop kernel failed: %s", it.Error)
	}
	if it.Nodes != 2 || it.Edges != 2 {
		t.Fatalf("loop shape lost on the wire: %d nodes, %d edges", it.Nodes, it.Edges)
	}
	if len(it.RS) != 0 {
		t.Fatalf("loop item carries acyclic RS results: %+v", it.RS)
	}
	out := it.Cyclic["float"]
	if out == nil || len(out.Windows) == 0 || !out.Converged || !out.Exact {
		t.Fatalf("cyclic outcome incomplete: %+v", out)
	}
	if out.Periodic == nil || !out.Periodic.Exact || out.Periodic.RS < 1 {
		t.Fatalf("certify requested but periodic certificate missing: %+v", out.Periodic)
	}
	if got := resp.Items[1]; got.Error == "" || !strings.Contains(got.Error, "zero-distance") {
		t.Fatalf("zero-distance cycle accepted: %+v", got)
	}
}

func TestServiceReduce(t *testing.T) {
	_, c, done := newTestServer(t, Config{CorpusRoot: corpusRoot})
	defer done()
	resp, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		Corpus: []string{"superscalar-spec-swim.ddg"},
		Options: client.AnalyzeOptions{
			Method: "bb",
			Types:  []string{"float"},
			Reduce: &client.ReduceSpec{Budget: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 || resp.Items[0].Error != "" {
		t.Fatalf("unexpected response: %+v", resp.Items)
	}
	it := resp.Items[0]
	if it.RS["float"] == nil || it.RS["float"].RS <= 3 {
		t.Skipf("kernel saturation %v not above budget; reduction not exercised", it.RS["float"])
	}
	red := it.Reductions["float"]
	if red == nil {
		t.Fatal("no reduction returned")
	}
	if !red.Spill {
		if red.RS > 3 {
			t.Fatalf("reduction above budget: %d", red.RS)
		}
		if len(red.Arcs) == 0 || red.DDG == "" {
			t.Fatalf("reduction missing arcs or extended DDG: %+v", red)
		}
	}
}

func TestServiceAdmissionControl(t *testing.T) {
	s, c, done := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1, CorpusRoot: corpusRoot})
	defer done()

	// Occupy the only execution slot and the only queue seat directly.
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- s.adm.acquire(context.Background()) }()
	// Wait until the second acquire is parked in the queue.
	for i := 0; ; i++ {
		if q, _ := s.adm.depth(); q == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("queued acquire never parked")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		Corpus:  []string{"superscalar-fig2.ddg"},
		Options: client.AnalyzeOptions{},
	})
	if err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("saturated server did not shed: %v", err)
	}

	// Free the slot: the parked acquire gets it, then both release and the
	// server serves again.
	s.adm.release()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	s.adm.release()
	if _, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		Corpus: []string{"superscalar-fig2.ddg"},
	}); err != nil {
		t.Fatalf("server did not recover after release: %v", err)
	}
}

// TestServiceConcurrentCancellation exercises the race surface the
// acceptance criteria name: concurrent submissions, some of which cancel
// mid-flight, over one shared engine and store.
func TestServiceConcurrentCancellation(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, c, done := newTestServer(t, Config{Store: st, CorpusRoot: corpusRoot, MaxQueue: 128})
	defer done()

	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 {
				// A third of the submissions abandon the request mid-flight.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i)*time.Millisecond)
				defer cancel()
			}
			req := &client.AnalyzeRequest{
				Corpus:  []string{"."},
				Options: client.AnalyzeOptions{Method: "bb"},
			}
			if _, err := c.Analyze(ctx, req); err != nil && ctx.Err() == nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// The daemon must still serve cleanly after the storm.
	resp, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		Corpus:  []string{"."},
		Options: client.AnalyzeOptions{Method: "bb"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range resp.Items {
		if it.Error != "" {
			t.Fatalf("%s failed after cancellation storm: %s", it.Name, it.Error)
		}
	}
}

func TestServiceHealthDrainAndMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, c, done := newTestServer(t, Config{Store: st, CorpusRoot: corpusRoot})
	defer done()

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.Store {
		t.Fatalf("health: %+v", h)
	}

	if _, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		Corpus:  []string{"superscalar-fig2.ddg"},
		Options: client.AnalyzeOptions{Method: "ilp"},
	}); err != nil {
		t.Fatal(err)
	}
	metrics, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"regsat_queue_depth 0",
		"regsat_requests_total",
		"regsat_rs_computed_total",
		"regsat_store_puts_total",
		"regsat_solver_solves_total",
	} {
		if !strings.Contains(metrics, key) {
			t.Fatalf("metrics missing %q:\n%s", key, metrics)
		}
	}
	if strings.Contains(metrics, "regsat_solver_solves_total 0") {
		t.Fatal("ilp request did not feed the solver aggregate")
	}

	s.SetDraining(true)
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("draining health did not 503")
	}
	if _, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		Corpus: []string{"superscalar-fig2.ddg"},
	}); err == nil {
		t.Fatal("draining server accepted work")
	}
	s.SetDraining(false)
}

func TestServiceRequestValidation(t *testing.T) {
	_, c, done := newTestServer(t, Config{}) // no corpus root
	defer done()
	cases := []*client.AnalyzeRequest{
		{},                          // no inputs
		{Corpus: []string{"x.ddg"}}, // corpus disabled
		{Graphs: []client.GraphInput{{DDG: "ddg \"x\""}}, // bad enum
			Options: client.AnalyzeOptions{Method: "quantum"}},
		{Graphs: []client.GraphInput{{DDG: "ddg \"x\""}},
			Options: client.AnalyzeOptions{Method: "ilp", Solver: client.SolverOptions{Backend: "nope"}}},
		{Graphs: []client.GraphInput{{DDG: "ddg \"x\""}},
			Options: client.AnalyzeOptions{Reduce: &client.ReduceSpec{Budget: 0}}},
	}
	for i, req := range cases {
		_, err := c.Analyze(context.Background(), req)
		if err == nil {
			t.Fatalf("case %d: bad request accepted", i)
		}
		// Match the status code, not the text: the message carries a random
		// request ID, which can contain "500".
		var se *client.StatusError
		if !errors.As(err, &se) || se.Code/100 != 4 {
			t.Fatalf("case %d: validation did not answer with a 4xx status: %v", i, err)
		}
	}
}

// TestServiceRejectsTrailingBody: the request body is one JSON object and
// nothing after it but whitespace. Trailing data — a second object or stray
// bytes — is a 400, where a streaming decoder used to ignore it.
func TestServiceRejectsTrailingBody(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const req = `{"graphs":[{"ddg":"ddg \"x\"\nnode a lat=1 writes=int\n"}],"options":{"method":"bb"}}`
	for body, want := range map[string]int{
		req:              http.StatusOK,
		req + " \n\t":    http.StatusOK,
		req + req:        http.StatusBadRequest,
		req + "\nx":      http.StatusBadRequest,
		req[:len(req)-1]: http.StatusBadRequest,
		"":               http.StatusBadRequest,
	} {
		// With a Content-Length and without one (a reader of unknown size).
		for _, r := range []io.Reader{strings.NewReader(body), io.MultiReader(strings.NewReader(body))} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", r))
			if rec.Code != want {
				t.Errorf("body %q: status %d, want %d (%s)", body, rec.Code, want, rec.Body)
			}
		}
	}
}

// TestServiceRejectsNegativeBudgets: a negative budget is a malformed
// request (400 naming the field), never an answer: solver.maxNodes −1 used
// to return a zero-node capped result and maxLeaves −1 the default search,
// each stored under a key of its own. Zero keeps meaning the default.
func TestServiceRejectsNegativeBudgets(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const graph = `"graphs":[{"ddg":"ddg \"x\"\nnode a lat=1 writes=int\nnode b lat=1\nedge a b flow int\n"}]`
	for _, c := range []struct {
		body  string
		want  int
		field string
	}{
		{`{` + graph + `,"options":{"method":"bb","maxLeaves":-1}}`, http.StatusBadRequest, "maxLeaves"},
		{`{` + graph + `,"options":{"method":"ilp","solver":{"maxNodes":-1}}}`, http.StatusBadRequest, "solver.maxNodes"},
		{`{` + graph + `,"options":{"method":"ilp","solver":{"timeLimitMs":-5}}}`, http.StatusBadRequest, "solver.timeLimitMs"},
		{`{` + graph + `,"options":{"method":"bb"},"timeoutMs":-1}`, http.StatusBadRequest, "timeoutMs"},
		{`{` + graph + `,"options":{"method":"bb","cyclic":{"maxWindow":-1}}}`, http.StatusBadRequest, "cyclic.maxWindow"},
		{`{` + graph + `,"options":{"method":"bb","maxLeaves":0},"timeoutMs":0}`, http.StatusOK, ""},
		{`{` + graph + `,"options":{"method":"ilp","solver":{"maxNodes":0,"timeLimitMs":0}}}`, http.StatusOK, ""},
		{`{` + graph + `,"options":{"method":"ilp","solver":{"maxNodes":5,"timeLimitMs":1000}},"timeoutMs":5000}`, http.StatusOK, ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.body, rec.Code, c.want, rec.Body)
			continue
		}
		if c.field != "" && !strings.Contains(rec.Body.String(), c.field+" must be non-negative") {
			t.Errorf("%s: the error does not name %s: %s", c.body, c.field, rec.Body)
		}
	}
}

// TestServiceBodyPresizeBounded: the body buffer is sized from
// Content-Length only up to maxBodyPresize, so a request that declares
// MaxBodyBytes and sends a few bytes costs a small buffer, not the declared
// size; bodies longer than the presize, declared or not, are read whole.
func TestServiceBodyPresizeBounded(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	read := func(body string, declared int64) []byte {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
		r.ContentLength = declared
		got, err := s.readBody(httptest.NewRecorder(), r)
		if err != nil || string(got) != body {
			t.Fatalf("declared %d, sent %d bytes: read %d bytes, err %v", declared, len(body), len(got), err)
		}
		return got
	}

	const short = `{"graphs":[]}`
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read(short, s.cfg.MaxBodyBytes)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2*maxBodyPresize {
		t.Fatalf("a %d-byte body declared as %d bytes allocated %d bytes per request", len(short), s.cfg.MaxBodyBytes, per)
	}

	long := strings.Repeat("x", 3*maxBodyPresize+7)
	read(long, int64(len(long)))
	read(long, -1)
	if got := read(short, int64(len(short))); cap(got) != len(short)+1 {
		t.Fatalf("a body that declares its length is read into %d bytes, want %d", cap(got), len(short)+1)
	}
}

// TestServiceSolverBackendNames: the wire "backend" field survives only for
// compatibility. "" and "sparse" (the one engine) are accepted; the names
// of engines that no longer exist, like any unknown name, are a 400 that
// names the valid value.
func TestServiceSolverBackendNames(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	req := func(backend string) *client.AnalyzeRequest {
		return &client.AnalyzeRequest{
			Graphs: []client.GraphInput{{DDG: "ddg \"body\"\nnode a op=load lat=2 writes=float\nnode b op=use lat=1\nedge a b flow float\n"}},
			Options: client.AnalyzeOptions{Method: "ilp",
				Solver: client.SolverOptions{Backend: backend}},
		}
	}
	for _, backend := range []string{"", "sparse"} {
		resp, err := c.Analyze(context.Background(), req(backend))
		if err != nil {
			t.Fatalf("backend %q rejected: %v", backend, err)
		}
		if len(resp.Items) != 1 || resp.Items[0].Error != "" || resp.Items[0].RS["float"] == nil {
			t.Fatalf("backend %q: items %+v, want one analyzed float result", backend, resp.Items)
		}
	}
	for _, backend := range []string{"dense", "parallel", "nope"} {
		_, err := c.Analyze(context.Background(), req(backend))
		if err == nil {
			t.Fatalf("backend %q accepted", backend)
		}
		if !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), `"sparse"`) {
			t.Fatalf("backend %q: want a 400 naming \"sparse\", got: %v", backend, err)
		}
	}
}

// TestServiceSolverParallelIgnored: the solver's tree search is sequential,
// and the wire no longer carries its worker count. Requests from older
// clients still send "solver":{"parallel":N}, which must keep working. The
// field is ignored: the request answers 200 with the items of the same
// request without it, served from the same cache entries, and a restarted
// daemon serves it from the stored records as L2 hits.
func TestServiceSolverParallelIgnored(t *testing.T) {
	dir := t.TempDir()
	const plain = `{"corpus":["superscalar-fig2.ddg","vliw-liv-l3.ddg"],"options":{"method":"ilp"}}`
	const withParallel = `{"corpus":["superscalar-fig2.ddg","vliw-liv-l3.ddg"],"options":{"method":"ilp","solver":{"parallel":4}}}`
	post := func(url, body string) *client.AnalyzeResponse {
		t.Helper()
		resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, msg)
		}
		var out client.AnalyzeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	// items drops what differs between a computed and a cached answer.
	items := func(r *client.AnalyzeResponse) []client.Item {
		out := append([]client.Item(nil), r.Items...)
		for i := range out {
			out[i].CacheHit, out[i].ElapsedMs = false, 0
		}
		return out
	}
	daemon := func() (string, func()) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Store: st, CorpusRoot: corpusRoot})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		return hs.URL, hs.Close
	}

	url, stop := daemon()
	want := post(url, plain)
	if len(want.Items) != 2 || want.Stats.Computed == 0 {
		t.Fatalf("first request: %d items, stats %+v", len(want.Items), want.Stats)
	}
	for _, it := range want.Items {
		if it.Error != "" || it.RS["float"] == nil || it.RS["float"].SolverStats == nil {
			t.Fatalf("%s: %+v, want an analyzed float result with solver stats", it.Name, it)
		}
	}
	got := post(url, withParallel)
	if got.Stats.Computed != 0 {
		t.Fatalf("parallel changed the cache key: stats %+v", got.Stats)
	}
	if !reflect.DeepEqual(items(got), items(want)) {
		t.Fatalf("items with parallel differ:\n%+v\nwant\n%+v", items(got), items(want))
	}
	stop()

	url, stop = daemon()
	defer stop()
	got = post(url, withParallel)
	if got.Stats.Computed != 0 || got.Stats.L2Hits == 0 {
		t.Fatalf("restarted daemon did not serve the request from the store: stats %+v", got.Stats)
	}
	if !reflect.DeepEqual(items(got), items(want)) {
		t.Fatalf("items from stored records differ:\n%+v\nwant\n%+v", items(got), items(want))
	}
}

func TestServiceCorpusEscapeBlocked(t *testing.T) {
	_, c, done := newTestServer(t, Config{CorpusRoot: corpusRoot + "/.."})
	defer done()
	// ".." pins to the root, so this resolves inside the tree (the parent
	// of testdata holds no .ddg files → a clean 400, not an escape).
	_, err := c.Analyze(context.Background(), &client.AnalyzeRequest{
		Corpus: []string{"../../../../etc"},
	})
	if err == nil {
		t.Fatal("escaping corpus reference accepted")
	}
	if !strings.Contains(err.Error(), "400") {
		t.Fatalf("want a 400 for the pinned-but-missing path, got: %v", err)
	}
}
