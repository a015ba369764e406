package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"regsat/client"
	"regsat/internal/obs"
)

// request is one analyze call of a pass: a batch of items and how to
// analyze them.
type request struct {
	items []*item
	opts  client.AnalyzeOptions
	trace bool // force the daemon to record this request
}

// outcome is what the closed-loop client saw for one request.
type outcome struct {
	start    time.Time
	latency  time.Duration // encode + HTTP round trip + decode
	enc, dec time.Duration
	status   int
	resp     *client.AnalyzeResponse
	err      error
	// traceID and spanID name a force-traced request's trace and the
	// client's span in it; the daemon's root span is that span's child.
	traceID obs.TraceID
	spanID  obs.SpanID
}

// newHTTPClient returns a client that keeps exactly conns connections to
// each daemon, so a pass with conns workers never opens a new one.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// analyze sends one request the way the regsat client package does:
// JSON-encode the wire request, POST it, JSON-decode the wire response.
// Encoding and decoding are timed separately for the client layer.
func analyze(ctx context.Context, hc *http.Client, base string, r request) outcome {
	var o outcome
	if r.trace {
		o.traceID, o.spanID = obs.NewTraceID(), obs.NewSpanID()
	}
	o.start = time.Now()
	req := client.AnalyzeRequest{
		Options: r.opts,
		Trace:   r.trace,
	}
	for _, it := range r.items {
		req.Graphs = append(req.Graphs, client.GraphInput{Name: it.name, DDG: it.text})
	}
	body, err := json.Marshal(&req)
	o.enc = time.Since(o.start)
	if err != nil {
		o.err = err
		return o
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	if r.trace {
		hreq.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(o.traceID, o.spanID))
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		o.err = err
		o.latency = time.Since(o.start)
		return o
	}
	raw, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	o.status = hresp.StatusCode
	if err == nil && o.status == http.StatusOK {
		t0 := time.Now()
		var resp client.AnalyzeResponse
		err = json.Unmarshal(raw, &resp)
		o.dec = time.Since(t0)
		o.resp = &resp
	}
	o.latency = time.Since(o.start)
	o.err = err
	return o
}

// runPass sends every request of a pass from conns closed-loop workers: a
// worker sends its next request only when the previous answer is in. It
// returns the pass's wall time and each request's outcome, in order.
func runPass(ctx context.Context, hc *http.Client, base string, reqs []request, conns int) (time.Duration, []outcome) {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				outs[i] = analyze(ctx, hc, base, reqs[i])
			}
		}()
	}
	wg.Wait()
	return time.Since(start), outs
}

// tally accumulates the verified outcomes of a phase.
type tally struct {
	attempted, failed, exact, refused int64
	latencies                         []float64 // ms, one per request
	passRates                         []float64 // items/s, one per pass
	passP50, passP90                  []float64 // ms, request latency percentiles of each pass
	busy                              time.Duration
	firstErr                          error
}

// add verifies one pass's outcomes against the references.
func (t *tally) add(reqs []request, outs []outcome, wall time.Duration) {
	items := 0
	first := len(t.latencies)
	for i, o := range outs {
		r := reqs[i]
		items += len(r.items)
		t.attempted += int64(len(r.items))
		t.latencies = append(t.latencies, float64(o.latency)/float64(time.Millisecond))
		var err error
		switch {
		case o.err != nil:
			err = o.err
		case o.status == http.StatusTooManyRequests:
			t.refused += int64(len(r.items))
			err = fmt.Errorf("request refused (429)")
		case o.status != http.StatusOK:
			err = fmt.Errorf("HTTP %d", o.status)
		case o.resp.Error != "":
			err = fmt.Errorf("batch cut short: %s", o.resp.Error)
		case len(o.resp.Items) != len(r.items):
			err = fmt.Errorf("%d items served for %d sent", len(o.resp.Items), len(r.items))
		}
		if err != nil {
			t.failed += int64(len(r.items))
			t.note(err)
			continue
		}
		for j, it := range r.items {
			got := &o.resp.Items[j]
			if got.Index != j {
				t.failed++
				t.note(fmt.Errorf("%s: served out of order (index %d at %d)", it.name, got.Index, j))
				continue
			}
			exact, err := check(it, got)
			if err != nil {
				t.failed++
				t.note(err)
				continue
			}
			if exact {
				t.exact++
			}
		}
	}
	t.busy += wall
	t.passRates = append(t.passRates, float64(items)/wall.Seconds())
	lat := t.latencies[first:]
	t.passP50 = append(t.passP50, quantile(lat, 0.50))
	t.passP90 = append(t.passP90, quantile(lat, 0.90))
}

func (t *tally) note(err error) {
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// batches splits items into requests of at most size items each.
func batches(items []*item, size int, opts client.AnalyzeOptions) []request {
	var out []request
	for len(items) > 0 {
		n := min(size, len(items))
		out = append(out, request{items: items[:n], opts: opts})
		items = items[n:]
	}
	return out
}
