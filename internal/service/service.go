// Package service is the register-saturation analysis daemon behind cmd/rsd:
// a long-running HTTP/JSON front end over the batch engine (regsat.AnalyzeAll)
// with a persistent fingerprint-keyed result store layered under the
// in-memory memo.
//
// Endpoints:
//
//	POST /v1/analyze              submit inline .ddg text and/or corpus
//	                              references; single-shot JSON response
//	POST /v1/analyze?stream=ndjson same, streamed as NDJSON items
//	GET  /v1/ring                 cluster topology (membership, vnodes)
//	GET  /healthz                 liveness + admission-queue snapshot
//	GET  /metrics                 Prometheus text exposition
//
// With Config.Peers set the daemon runs as one replica of a
// fingerprint-sharded fleet: a consistent-hash ring over the membership
// assigns every graph fingerprint an owning replica, requests are
// partitioned per item and non-owned items forwarded to their owners
// (batched, exactly one hop — see forwardHeader), so each replica's memo
// and store converge on its shard instead of N copies of everything.
//
// The daemon guarantees:
//
//   - admission control: a bounded queue in front of a bounded worker pool;
//     a request arriving with the queue full is shed with HTTP 429 instead
//     of piling up memory;
//   - per-request deadlines and cancellation: the request context (deadline
//     or client disconnect) threads through the batch engine into in-flight
//     simplex iterations and branch-and-bound nodes;
//   - result persistence: with a store attached, every computed RS result
//     is written through to disk and every structurally identical request
//     afterwards — across restarts and across processes — is served
//     without solving anything.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"regsat/client"
	"regsat/internal/batch"
	"regsat/internal/obs"
	"regsat/internal/service/store"
	"regsat/internal/solver"
)

// Config configures a Server. The zero value serves with defaults and no
// persistent store.
type Config struct {
	// Store is the optional persistent result store (L2 under the memo).
	Store *store.Store
	// CorpusRoot enables server-side corpus references: request Corpus
	// entries resolve strictly under this directory. Empty disables them.
	CorpusRoot string
	// MaxInFlight bounds concurrently executing requests
	// (0 = GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// requests are shed with 429 (0 = DefaultMaxQueue).
	MaxQueue int
	// Workers is the batch worker count per request (0 = GOMAXPROCS).
	Workers int
	// DefaultTimeout applies when a request names none (0 = 60s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request timeouts (0 = 10m).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 = 16 MiB).
	MaxBodyBytes int64
	// CacheSize bounds the in-memory memo (0 = batch.DefaultCacheSize).
	CacheSize int
	// Logger receives request-level diagnostics as structured records with
	// request/trace IDs attached (nil = slog.Default()).
	Logger *slog.Logger
	// Tracer records request traces (nil = a tracer that samples nothing on
	// its own but still records requests that force tracing or arrive with a
	// traceparent). Its ring backs GET /v1/trace/{id}.
	Tracer *obs.Tracer
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the daemon's
	// handler. Off by default: the profiling surface is a diagnostic tool,
	// not part of the public API.
	EnablePprof bool

	// Peers enables cluster mode: the full fleet membership as base URLs,
	// including this replica. Each replica builds a consistent-hash ring
	// over the list and serves the items it owns, forwarding the rest to
	// their owners (one hop, guarded). Empty runs single-process.
	Peers []string
	// Self is this replica's own entry in Peers — required in cluster mode
	// so the replica knows which ring shard is local.
	Self string
	// VNodes is the ring's virtual-node count per member
	// (0 = client.DefaultVNodes). Every replica and every cluster-aware
	// client must agree on it.
	VNodes int
}

// DefaultMaxQueue bounds the admission queue when Config.MaxQueue is zero.
const DefaultMaxQueue = 64

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the analysis daemon. Create one with New, mount Handler on an
// http.Server, and call SetDraining(true) before shutting that server down
// so load balancers see /healthz flip before in-flight work drains.
type Server struct {
	cfg     Config
	base    *batch.Engine // owns the shared L1 memo (and L2 write-through)
	adm     *admission
	cluster *cluster    // nil in single-process mode
	tracer  *obs.Tracer // never nil after New

	draining atomic.Bool

	requests   atomic.Int64
	rejected   atomic.Int64
	items      atomic.Int64
	itemErrors atomic.Int64

	solverMu  sync.Mutex
	solverAgg solver.Stats
	solves    int64
}

// New creates a Server. The batch engine, its memo, and the store are
// shared by every request the server ever handles. It fails only on an
// inconsistent cluster configuration (Peers without Self, Self not a peer).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cl, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	opts := batch.Options{CacheSize: cfg.CacheSize}
	if cfg.Store != nil {
		opts.L2 = cfg.Store
	}
	tracer := cfg.Tracer
	if tracer == nil {
		// Exported spans name the replica in cluster mode, so a stitched
		// cross-replica trace stays attributable to its producers.
		svc := "rsd"
		if cl != nil {
			svc = cl.self
		}
		tracer = obs.NewTracer(obs.Config{Service: svc})
	}
	return &Server{
		cfg:     cfg,
		base:    batch.New(opts),
		adm:     newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		cluster: cl,
		tracer:  tracer,
	}, nil
}

// Engine exposes the shared batch engine (tests and metrics).
func (s *Server) Engine() *batch.Engine { return s.base }

// SetDraining flips the drain flag: /healthz answers 503 and new analyze
// requests are refused, while requests already admitted run to completion.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Tracer exposes the server's tracer (tests and the trace export path).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/ring", s.handleRing)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	queued, inflight := s.adm.depth()
	h := client.Health{
		Status:   "ok",
		Queued:   queued,
		InFlight: inflight,
		Store:    s.cfg.Store != nil,
	}
	code := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)

	// Correlation ID: reuse the caller's (clients and forwarding
	// coordinators send one), mint one otherwise. Every response — success,
	// error, 429 — echoes it, and every log record of this request carries
	// it, so one ID follows a request across replica logs.
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)
	ctx := obs.ContextWithRequestID(r.Context(), reqID)

	if s.draining.Load() {
		s.httpError(ctx, w, "draining", http.StatusServiceUnavailable)
		return
	}
	forwarded := r.Header.Get(forwardHeader) != ""
	if s.cluster != nil && forwarded {
		s.cluster.forwardsReceived.Add(1)
	}

	var req client.AnalyzeRequest
	body, err := s.readBody(w, r)
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		s.httpError(ctx, w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Graphs) == 0 && len(req.Corpus) == 0 {
		s.httpError(ctx, w, "request names no graphs and no corpus references", http.StatusBadRequest)
		return
	}

	// Trace: join the caller's trace when the request carries a traceparent
	// (a forwarded sub-request, or a client that originated its own trace),
	// record unconditionally when the body asks (Trace), sample otherwise.
	ctx, root := s.tracer.StartRequest(ctx, "server.analyze", obs.Extract(r.Header), req.Trace)
	defer root.End()
	root.SetAttr(
		obs.Str("requestId", reqID),
		obs.Bool("forwarded", forwarded),
		obs.Int("graphs", int64(len(req.Graphs))),
		obs.Int("corpus", int64(len(req.Corpus))),
		obs.Str("method", req.Options.Method),
	)

	if req.TimeoutMs < 0 {
		s.httpError(ctx, w, fmt.Sprintf("timeoutMs must be non-negative (got %d)", req.TimeoutMs), http.StatusBadRequest)
		return
	}
	batchOpts, err := s.batchOptions(req.Options)
	if err != nil {
		s.httpError(ctx, w, err.Error(), http.StatusBadRequest)
		return
	}
	src, err := s.buildSource(&req)
	if err != nil {
		s.httpError(ctx, w, err.Error(), http.StatusBadRequest)
		return
	}

	// Deadline: the context reaches every in-flight solve, so an expired
	// request interrupts its own MILP/BB work instead of abandoning it.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// Admission: shed immediately when the wait queue is full, otherwise
	// queue for an execution slot (abandoning the wait if the client
	// disconnects or the deadline passes first). The queue span makes the
	// wait visible: "slow request" and "queued request" look identical from
	// outside, and this is the only place that can tell them apart.
	_, qsp := obs.StartSpan(ctx, "server.queue")
	err = s.adm.acquire(ctx)
	qsp.End()
	if err != nil {
		if errors.Is(err, errOverloaded) {
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			s.httpError(ctx, w, "analysis queue is full, retry later", http.StatusTooManyRequests)
			return
		}
		s.httpError(ctx, w, fmt.Sprintf("request expired while queued: %v", err), http.StatusServiceUnavailable)
		return
	}
	defer s.adm.release()

	engine := s.base.WithOptions(batchOpts)
	before := engine.Stats()

	// Cluster mode: a request straight from a client is coordinated —
	// partitioned by ring ownership and forwarded (one hop). A request
	// already carrying the forward guard is served entirely locally.
	if s.cluster != nil && !forwarded {
		s.serveClustered(ctx, w, r, &req, engine, before, src)
		return
	}

	ch, err := engine.Run(ctx, src)
	if err != nil {
		s.httpError(ctx, w, err.Error(), http.StatusInternalServerError)
		return
	}

	withWitness := req.Options.Witness
	wantDDG := req.Options.Reduce != nil
	if r.URL.Query().Get("stream") != "" {
		s.streamResults(ctx, w, ch, engine, before, withWitness, wantDDG, root)
		return
	}

	resp := client.AnalyzeResponse{Items: []client.Item{}, RequestID: reqID}
	for res := range ch {
		resp.Items = append(resp.Items, s.itemToWire(res, withWitness, wantDDG))
	}
	if err := ctx.Err(); err != nil {
		// The batch was cut short; report what finished plus the cause, so
		// the client never mistakes a truncated item list for a complete one.
		resp.Error = fmt.Sprintf("batch interrupted: %v", err)
		s.log(ctx).Warn("analyze interrupted", "err", err)
	}
	resp.Stats = runStatsSince(engine, before)
	s.attachTrace(&resp, root, req.TraceSpans)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// maxBodyPresize caps the buffer readBody sets aside from Content-Length
// before any of the body has arrived, so that a client that declares a
// large body and sends nothing holds at most this much.
const maxBodyPresize = 64 << 10

// readBody reads the request body, at most MaxBodyBytes of it, into one
// buffer sized from Content-Length (up to maxBodyPresize) and grown only as
// bytes arrive; a decoder's refills would copy the body about three times
// over.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, maxBodyPresize)
	}
	// One spare byte lets the read that meets EOF find room without
	// growing a buffer the body filled exactly.
	buf := make([]byte, 0, size+1)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// streamResults writes one NDJSON StreamEvent per finished item, flushing
// between items, then a final stats event (carrying the trace ID when the
// request was recorded).
func (s *Server) streamResults(ctx context.Context, w http.ResponseWriter, ch <-chan batch.Result,
	engine *batch.Engine, before batch.Stats, withWitness, wantDDG bool, root *obs.Span) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(ev client.StreamEvent) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for res := range ch {
		item := s.itemToWire(res, withWitness, wantDDG)
		emit(client.StreamEvent{Item: &item})
	}
	if err := ctx.Err(); err != nil {
		emit(client.StreamEvent{Error: fmt.Sprintf("batch interrupted: %v", err)})
	}
	stats := runStatsSince(engine, before)
	emit(client.StreamEvent{Stats: &stats, TraceID: string(root.TraceID())})
}

// runStatsSince renders the engine's counter movement as this request's
// cache accounting (exact with one request in flight, else approximate).
func runStatsSince(engine *batch.Engine, before batch.Stats) client.RunStats {
	after := engine.Stats()
	return client.RunStats{
		L1Hits:   after.Hits - before.Hits,
		L2Hits:   after.L2Hits - before.L2Hits,
		Computed: after.Misses - before.Misses,
	}
}

// recordSolve folds one solve's stats into the server-wide aggregate
// /metrics reports.
func (s *Server) recordSolve(st *solver.Stats) {
	if st == nil {
		return
	}
	s.solverMu.Lock()
	s.solverAgg.Add(*st)
	s.solves++
	s.solverMu.Unlock()
}
