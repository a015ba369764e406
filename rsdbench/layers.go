package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"regsat/client"
	"regsat/internal/batch"
	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/obs"
	"regsat/internal/rs"
	"regsat/internal/service/store"
	"regsat/internal/solver"
)

// spans keeps the traced run's spans in memory, in the schema of the
// daemon's trace export (client.TraceSpan), so that cmd/rstrace reads the
// file the run writes. They are written out when the run ends.
type spans struct {
	recs []client.TraceSpan
}

// benchService is the service name of the benchmark's own spans.
const benchService = "rsdbench"

func (s *spans) add(r client.TraceSpan) { s.recs = append(s.recs, r) }

// benchSpan is one of the benchmark's own spans.
func benchSpan(trace obs.TraceID, id, parent obs.SpanID, name string, start time.Time, d time.Duration) client.TraceSpan {
	return client.TraceSpan{TraceID: string(trace), SpanID: string(id), Parent: string(parent), Name: name,
		Service: benchService, StartUnixNs: start.UnixNano(), DurationNs: d.Nanoseconds()}
}

// do runs fn n times inside one span per call named name, all children of
// one root span "rsdbench.<name>" in a trace of their own, and returns the
// mean time per call in microseconds and the mean allocations and bytes per
// call. Allocation counts come from runtime.MemStats around the calls; the
// span records are made after the second reading, so their allocations are
// not charged to the layer.
func (s *spans) do(name string, n int, fn func(i int) error) (us, allocs, kb float64, err error) {
	if n == 0 {
		return 0, 0, 0, nil
	}
	starts := make([]time.Time, n)
	durs := make([]time.Duration, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		starts[i] = time.Now()
		err := fn(i)
		durs[i] = time.Since(starts[i])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	runtime.ReadMemStats(&m1)
	trace, root := obs.NewTraceID(), obs.NewSpanID()
	var busy time.Duration
	for i, d := range durs {
		busy += d
		s.add(benchSpan(trace, obs.NewSpanID(), root, name, starts[i], d))
	}
	r := benchSpan(trace, root, "", "rsdbench."+name, starts[0], starts[n-1].Add(durs[n-1]).Sub(starts[0]))
	r.Attrs = map[string]string{"calls": fmt.Sprint(n)}
	s.add(r)
	f := float64(n)
	return float64(busy.Microseconds()) / f, float64(m1.Mallocs-m0.Mallocs) / f,
		float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / f, nil
}

// write stores the spans as NDJSON, one client.TraceSpan per line.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range s.recs {
		if err := enc.Encode(&s.recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// traced is the per-layer run, separate from the end-to-end runs. It sets
// up once and runs two thirds of the timed passes, alternating untraced
// passes with passes whose every request the daemon force-traces, so that
// drift over the run cancels out of the tracing overhead. It reads the
// daemon spans of the last traced requests back from /v1/trace/{id}, then
// calls each layer's public functions in-process on the workload's own
// inputs, inside the benchmark's spans.
func (b *bench) traced(w workload) (*result, error) {
	sc, err := w.newScenario(b, w)
	if err != nil {
		return nil, fmt.Errorf("generating inputs and references: %w", err)
	}
	f, _, err := b.setUp(w, sc, 1)
	if err != nil {
		return nil, err
	}
	n := tracedPasses(w.passes(b.seconds, sc.passItems()))
	odd := func(i int) bool { return i%2 == 1 }
	ph, err := b.timedPhase(w, sc, f, 0, n, odd)
	if err != nil {
		return nil, err
	}
	var plainOuts, tracedOuts []outcome
	var plainRates, tracedRates []float64
	for i, outs := range ph.outs {
		if odd(i) {
			tracedOuts = append(tracedOuts, outs...)
			tracedRates = append(tracedRates, ph.passRates[i])
		} else {
			plainOuts = append(plainOuts, outs...)
			plainRates = append(plainRates, ph.passRates[i])
		}
	}
	sp := &spans{}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Client layer, from the untraced passes' own encode/decode spans.
	var enc, dec time.Duration
	for _, o := range plainOuts {
		enc += o.enc
		dec += o.dec
	}
	nreq := float64(len(plainOuts))
	put("client.encode_us_per_request", float64(enc.Microseconds())/nreq, "us")
	put("client.decode_us_per_request", float64(dec.Microseconds())/nreq, "us")

	// Counter-derived shares, over the whole phase.
	pc := ph.counters
	put("batch.memo_hit_share", pc.memoHitShare(), "ratio")
	put("store.hit_share", pc.storeHitShare(), "ratio")
	put("service.rejected_share", share(pc.get("regsat_rejected_total"), pc.get("regsat_requests_total")), "ratio")
	untraced := median(plainRates)
	put("obs.tracing_overhead_share", (untraced-median(tracedRates))/untraced, "ratio")

	if len(tracedOuts) > traceSample {
		tracedOuts = tracedOuts[len(tracedOuts)-traceSample:]
	}
	ds, err := b.daemonSpans(f, tracedOuts, sp)
	if err != nil {
		return nil, err
	}
	put("service.transport_ms_per_request", ds.perRequestMs(ds.transport), "ms")
	put("service.queue_ms_per_request", ds.perRequestMs(ds.queue), "ms")
	put("service.analyze_self_ms_per_request", ds.perRequestMs(ds.self), "ms")
	put("store.l2_get_span_us", meanUs(ds.get, ds.gets), "us")
	put("store.l2_put_span_us", meanUs(ds.put, ds.puts), "us")
	put("trace.unattributed_share", 1-float64(ds.covered)/float64(ds.latency), "ratio")
	f.stop()

	sample, err := b.layerCalls(sc, sp, put)
	if err != nil {
		return nil, err
	}
	if err := b.clusterProbe(sample, sp, put); err != nil {
		return nil, fmt.Errorf("cluster probe: %w", err)
	}
	out := filepath.Join(filepath.Dir(b.workDir), "traces", fmt.Sprintf("%s-seed%d.ndjson", w.name, b.seed))
	if err := sp.write(out); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	b.logf("%d spans written to %s", len(sp.recs), out)
	return &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// tracedPasses is how many of a scenario's passes the traced run uses:
// two thirds, rounded down to an even count, and at least two.
func tracedPasses(passes int) int { return max(2, 2*(passes/3)) }

// traceSample is how many of the traced phase's last requests have their
// daemon trace fetched (the daemon's ring keeps the newest 256).
const traceSample = 64

// spanSums is what the daemon traces of a set of requests add up to.
type spanSums struct {
	requests                                                    int
	latency, covered, transport, queue, self, forward, get, put time.Duration
	gets, puts                                                  int
}

func (s spanSums) perRequestMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond) / float64(s.requests)
}

// daemonSpans fetches the daemon traces of force-traced requests and sums
// them against the client's own latency and encode/decode spans.
func (b *bench) daemonSpans(f *fleet, outs []outcome, sp *spans) (spanSums, error) {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	cl := client.New(f.entry.base, hc)
	s := spanSums{requests: len(outs)}
	for _, o := range outs {
		if o.resp == nil || o.traceID == "" {
			return s, fmt.Errorf("a force-traced request came back without a trace")
		}
		id := string(o.traceID)
		if o.resp.TraceID != id {
			return s, fmt.Errorf("the daemon traced a request as %s, not in the client's trace %s", o.resp.TraceID, id)
		}
		tr, err := cl.Trace(b.ctx, id)
		if err != nil {
			return s, fmt.Errorf("fetching trace %s: %w", id, err)
		}
		root := rootSpan(tr, o.spanID)
		if root == nil {
			return s, fmt.Errorf("trace %s has no server.analyze span under the client's span", id)
		}
		sp.add(benchSpan(o.traceID, o.spanID, "", "client.request", o.start, o.latency))
		sp.add(benchSpan(o.traceID, obs.NewSpanID(), o.spanID, "client.encode", o.start, o.enc))
		sp.add(benchSpan(o.traceID, obs.NewSpanID(), o.spanID, "client.decode", o.start.Add(o.latency-o.dec), o.dec))
		rootDur := time.Duration(root.DurationNs)
		s.latency += o.latency
		s.covered += o.enc + o.dec + rootDur
		s.transport += o.latency - rootDur
		s.self += rootDur - childCover(tr, root)
		for i := range tr {
			t := &tr[i]
			d := time.Duration(t.DurationNs)
			switch {
			case t.Name == "server.queue" && t.Parent == root.SpanID:
				s.queue += d
			case t.Name == "l2.get":
				s.get += d
				s.gets++
			case t.Name == "l2.put":
				s.put += d
				s.puts++
			case t.Name == "cluster.forward":
				s.forward += d
			}
			sp.add(*t)
		}
	}
	return s, nil
}

// clusterRounds is how many rounds of the sample the cluster probe sends.
const clusterRounds = 4

// clusterProbe measures the cluster layer on the workload's inputs. A
// two-replica fleet, primed with the items, serves force-traced batches
// sent to one entry replica over one connection, so the items the other
// replica owns are forwarded one hop. No end-to-end workload runs a fleet:
// on the reference machine its wall-clock figures spread too widely between
// runs to be bounded (see README.md).
func (b *bench) clusterProbe(items []*item, sp *spans, put func(string, float64, string)) error {
	f, err := b.startFleet(2)
	if err != nil {
		return err
	}
	defer f.stop()
	if err := b.prime(f, items, 1); err != nil {
		return err
	}
	before, err := scrapeAll(b.ctx, f)
	if err != nil {
		return err
	}
	reqs := rounds(items, clusterRounds, rand.New(rand.NewSource(b.seed)))
	for i := range reqs {
		reqs[i].trace = true
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	wall, outs := runPass(b.ctx, hc, f.entry.base, reqs, 1)
	var t tally
	t.add(reqs, outs, wall)
	if t.failed > 0 {
		return fmt.Errorf("%d of %d items failed; first: %v", t.failed, t.attempted, t.firstErr)
	}
	after, err := scrapeAll(b.ctx, f)
	if err != nil {
		return err
	}
	pc := newPhaseCounters(before, after)
	put("cluster.forwarded_share", pc.forwardedShare(), "ratio")
	put("cluster.forwards_failed", pc.get("regsat_cluster_forwards_failed_total"), "count")
	if len(outs) > traceSample {
		outs = outs[len(outs)-traceSample:]
	}
	ds, err := b.daemonSpans(f, outs, sp)
	if err != nil {
		return err
	}
	put("cluster.forward_ms_per_request", ds.perRequestMs(ds.forward), "ms")
	return nil
}

func meanUs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// rootSpan is the entry daemon's server.analyze span: the child of the
// client's span.
func rootSpan(tr []client.TraceSpan, clientSpan obs.SpanID) *client.TraceSpan {
	for i := range tr {
		if tr[i].Name == "server.analyze" && tr[i].Parent == string(clientSpan) {
			return &tr[i]
		}
	}
	return nil
}

// childCover is the part of parent's interval covered by its direct
// children, overlaps counted once.
func childCover(tr []client.TraceSpan, parent *client.TraceSpan) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	end := parent.StartUnixNs + parent.DurationNs
	for _, s := range tr {
		if s.Parent == parent.SpanID {
			ivs = append(ivs, iv{max(s.StartUnixNs, parent.StartUnixNs), min(s.StartUnixNs+s.DurationNs, end)})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var covered, reach int64 = 0, parent.StartUnixNs
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			covered += v.hi - lo
			reach = v.hi
		}
	}
	return time.Duration(covered)
}

// layerSample bounds the inputs the in-process layer calls run on, and
// solverSample the (slower) MILP solves among them.
const (
	layerSample  = 256
	solverSample = 32
)

// layerCalls times each layer's public functions in-process on the first
// items of the workload's first pass, and returns those items.
func (b *bench) layerCalls(sc scenario, sp *spans, put func(string, float64, string)) ([]*item, error) {
	var graphs, loops []*item
	seen := map[*item]bool{}
	for _, r := range sc.pass(0) {
		for _, it := range r.items {
			if seen[it] || len(graphs)+len(loops) >= layerSample {
				continue
			}
			seen[it] = true
			if it.loop != nil {
				loops = append(loops, it)
			} else {
				graphs = append(graphs, it)
			}
		}
	}
	ctx := b.ctx

	// ddg: parse the wire text, as the daemon does for every inline item.
	parsed := make([]*ddg.Graph, len(graphs))
	us, allocs, _, err := sp.do("ddg.parse", len(graphs), func(i int) error {
		g, err := ddg.ParseString(graphs[i].text)
		if err != nil {
			return err
		}
		parsed[i] = g
		return g.Finalize()
	})
	if err != nil {
		return nil, err
	}
	put("ddg.parse_us_per_graph", us, "us")
	put("ddg.parse_allocs_per_graph", allocs, "count")

	// ir: fingerprint and snapshot build.
	us, _, _, err = sp.do("ir.fingerprint", len(parsed), func(i int) error {
		ir.Fingerprint(parsed[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	put("ir.fingerprint_us_per_graph", us, "us")
	us, _, kb, err := sp.do("ir.build", len(parsed), func(i int) error {
		_, err := ir.Build(parsed[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	put("ir.build_us_per_graph", us, "us")
	put("ir.build_kb_per_graph", kb, "KiB")

	// rs: exact BB per register type, keeping the results for the store.
	type typed struct {
		g   *ddg.Graph
		t   ddg.RegType
		res *rs.Result
	}
	var types []typed
	for _, g := range parsed {
		for _, t := range g.Types() {
			types = append(types, typed{g: g, t: t})
		}
	}
	var leaves int64
	us, _, _, err = sp.do("rs.compute.bb", len(types), func(i int) error {
		r, err := rs.Compute(ctx, types[i].g, types[i].t, bbOptions)
		types[i].res = r
		if err == nil && r.BBStats != nil {
			leaves += r.BBStats.Leaves
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	put("rs.bb_us_per_type", us, "us")
	put("rs.bb_leaves_per_type", float64(leaves)/float64(max(1, len(types))), "count")

	// cyclic: the periodic analysis of every type of each loop.
	var windows int
	us, _, _, err = sp.do("cyclic.analyze", len(loops), func(i int) error {
		for _, t := range loops[i].loop.Types() {
			r, err := cyclic.Analyze(ctx, loops[i].loop, t, cyclic.Options{RS: bbOptions})
			if err != nil {
				return err
			}
			windows += len(r.Windows)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	put("cyclic.analyze_us_per_loop", us, "us")
	put("cyclic.windows_per_loop", float64(windows)/float64(max(1, len(loops))), "count")

	// batch: one engine run cold, then the same items again on the primed
	// engine, where every result is a memo hit.
	var bitems []batch.Item
	for i, it := range graphs {
		bitems = append(bitems, batch.Item{Name: it.name, Graph: parsed[i]})
	}
	for _, it := range loops {
		bitems = append(bitems, batch.Item{Name: it.name, Loop: it.loop})
	}
	eng := batch.New(batch.Options{Parallel: 1, RS: bbOptions})
	engineRun := func(name string) (float64, error) {
		us, _, _, err := sp.do(name, 1, func(int) error {
			res, err := eng.Collect(ctx, batch.Items(bitems...))
			for _, r := range res {
				if r.Err != nil && err == nil {
					err = r.Err
				}
			}
			return err
		})
		return us / float64(max(1, len(bitems))), err
	}
	if _, err := engineRun("batch.run.cold"); err != nil {
		return nil, err
	}
	before := eng.Stats()
	us, err = engineRun("batch.run.primed")
	if err != nil {
		return nil, err
	}
	if after := eng.Stats(); after.Misses != before.Misses {
		return nil, fmt.Errorf("primed engine computed %d results", after.Misses-before.Misses)
	}
	put("batch.memo_hit_us_per_item", us, "us")

	// store: put every result into a fresh store, then get them back.
	st, err := store.Open(filepath.Join(b.workDir, "layer-store"))
	if err != nil {
		return nil, err
	}
	fps := make([]string, len(types))
	for i := range types {
		fps[i] = ir.Fingerprint(types[i].g)
	}
	us, _, _, err = sp.do("store.put", len(types), func(i int) error {
		st.Put(fps[i], types[i].t, "rsdbench", types[i].res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	put("store.put_us", us, "us")
	us, allocs, _, err = sp.do("store.get", len(types), func(i int) error {
		if _, ok := st.Get(fps[i], types[i].g, types[i].t, "rsdbench"); !ok {
			return fmt.Errorf("record %d missing", i)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	put("store.get_us", us, "us")
	put("store.get_allocs", allocs, "count")

	// solver: the MILP engine on the first graphs, per register type.
	// The same engine settings and node cap as a cold-ilp request.
	ilp := rs.Options{Method: rs.MethodExactILP, ApplyReductions: true, SkipWitness: true,
		Solver: solver.Options{MaxNodes: ilpMaxNodes}}
	nt := min(len(types), solverSample)
	var nodes, iters, warm, cold, cuts, fallbacks int64
	us, _, _, err = sp.do("rs.compute.ilp", nt, func(i int) error {
		r, err := rs.Compute(ctx, types[i].g, types[i].t, ilp)
		if err != nil {
			return err
		}
		if want := types[i].res.RS; r.RS > want || max(r.ILPUpperBound, r.RS) < want || (r.Exact && r.RS != want) {
			return fmt.Errorf("%s/%s: MILP RS %d (exact=%t, ub %d), exact BB %d",
				types[i].g.Name, types[i].t, r.RS, r.Exact, r.ILPUpperBound, want)
		}
		s := r.SolverStats
		nodes += s.Nodes
		iters += s.SimplexIters
		warm += s.WarmStarts
		cold += s.ColdStarts
		cuts += s.CutsAdded
		fallbacks += s.Fallbacks
		return nil
	})
	if err != nil {
		return nil, err
	}
	k := float64(max(1, nt))
	put("solver.solve_ms_per_type", us/1000, "ms")
	put("solver.nodes_per_type", float64(nodes)/k, "count")
	put("solver.simplex_iters_per_type", float64(iters)/k, "count")
	put("solver.warm_start_share", share(float64(warm), float64(warm+cold)), "ratio")
	put("solver.cuts_added_per_type", float64(cuts)/k, "count")
	put("solver.fallbacks", float64(fallbacks), "count")
	return append(graphs, loops...), nil
}
