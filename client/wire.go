// Package client is the Go client for rsd, the register-saturation analysis
// daemon (internal/service, cmd/rsd). It also defines the daemon's wire
// types: plain JSON structs with no dependency on the analysis internals,
// shared by both sides of the API.
package client

// AnalyzeRequest submits DDGs for register-saturation analysis
// (POST /v1/analyze). Graphs carry inline .ddg text; Corpus names files or
// directories on the server (resolved under its -corpus-root, when enabled).
// At least one input is required.
type AnalyzeRequest struct {
	Graphs []GraphInput `json:"graphs,omitempty"`
	Corpus []string     `json:"corpus,omitempty"`

	Options AnalyzeOptions `json:"options"`

	// TimeoutMs caps this request's wall time; the deadline propagates into
	// in-flight simplex iterations and branch-and-bound nodes. 0 uses the
	// server default; the server may clamp large values.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`

	// Trace forces this request to be recorded regardless of the daemon's
	// sampling rate; the response then always echoes TraceID. (A request
	// arriving with a traceparent header is recorded unconditionally too —
	// the upstream already made the sampling decision.)
	Trace bool `json:"trace,omitempty"`
	// TraceSpans additionally attaches the request's finished spans inline
	// on the response (Spans). The cluster layer sets it on forwarded
	// sub-requests so the coordinator can stitch the owning replica's spans
	// into the exported trace.
	TraceSpans bool `json:"traceSpans,omitempty"`
}

// GraphInput is one inline DDG in the textual format.
type GraphInput struct {
	// Name identifies the graph in results; defaults to the parsed ddg name.
	Name string `json:"name,omitempty"`
	// DDG is the graph source (see the format in internal/ddg/format.go).
	DDG string `json:"ddg"`
	// Fingerprint is the graph's ir structural fingerprint when the caller
	// can compute it (regsat users: ir.Fingerprint). It is advisory — the
	// server always re-derives ownership from the parsed graph — but it
	// lets a cluster-aware client route the request to the replica whose
	// shard-local caches hold this graph's results.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// AnalyzeOptions mirrors regsat.RSOptions plus the batch-level knobs.
type AnalyzeOptions struct {
	// Method is the saturation algorithm: "greedy" (default), "bb", "ilp".
	Method string `json:"method,omitempty"`
	// Types restricts analysis to these register types (default: every type
	// the graph writes).
	Types []string `json:"types,omitempty"`
	// Witness asks for a saturating schedule per result.
	Witness bool `json:"witness,omitempty"`
	// MaxLeaves caps the exact-BB search (0 = default).
	MaxLeaves int64 `json:"maxLeaves,omitempty"`
	// Solver bounds the MILP solves of "ilp".
	Solver SolverOptions `json:"solver"`
	// Reduce, when non-nil with a positive budget, runs RS reduction on
	// every graph whose saturation exceeds the budget.
	Reduce *ReduceSpec `json:"reduce,omitempty"`
	// Cyclic tunes the periodic analysis of loop-format inputs (DDGs whose
	// header carries the `loop` flag). Loop inputs are accepted — and
	// analyzed with default windows — even when this is nil.
	Cyclic *CyclicSpec `json:"cyclic,omitempty"`
}

// CyclicSpec tunes the unrolled-window periodic analysis of loop inputs.
type CyclicSpec struct {
	// MaxWindow caps the number of unrolled iterations swept (0 = default).
	MaxWindow int `json:"maxWindow,omitempty"`
	// Stable is the number of identical per-iteration deltas that counts as
	// convergence (0 = default).
	Stable int `json:"stable,omitempty"`
	// Certify additionally runs the exact periodic MILP on small kernels and
	// cross-checks it against the unrolled windows.
	Certify bool `json:"certify,omitempty"`
}

// SolverOptions mirrors regsat.SolverOptions on the wire.
type SolverOptions struct {
	// Backend names the MILP engine. "sparse" is the only one; the field is
	// kept for compatibility and accepts "" or "sparse" (anything else is a
	// 400).
	Backend string `json:"backend,omitempty"`
	// MaxNodes caps explored branch-and-bound nodes (0 = default).
	MaxNodes int `json:"maxNodes,omitempty"`
	// TimeLimitMs caps solve wall time (0 = none).
	TimeLimitMs int64 `json:"timeLimitMs,omitempty"`
}

// ReduceSpec asks for reduction below a register budget.
type ReduceSpec struct {
	// Budget is the available register count R_t.
	Budget int `json:"budget"`
	// Method is the reduction algorithm: "heuristic" (default), "exact",
	// "ilp".
	Method string `json:"method,omitempty"`
}

// AnalyzeResponse is the single-shot response: every item of the request in
// input order, plus the run's cache accounting.
type AnalyzeResponse struct {
	Items []Item   `json:"items"`
	Stats RunStats `json:"stats"`
	// Error is set when the batch was cut short (request deadline, client
	// disconnect): Items then holds only what finished, in order, and MUST
	// NOT be read as the complete result set.
	Error string `json:"error,omitempty"`
	// RequestID echoes the request's X-Regsat-Request-Id correlation ID.
	RequestID string `json:"requestId,omitempty"`
	// TraceID is set when the request was recorded (sampled, forced via
	// Trace, or joined from a traceparent header): the key for
	// GET /v1/trace/{id} on the serving daemon.
	TraceID string `json:"traceId,omitempty"`
	// Spans is the inline span attachment (TraceSpans requests only).
	Spans []TraceSpan `json:"spans,omitempty"`
}

// TraceSpan is one finished span of a recorded trace on the wire — the same
// JSON schema as internal/obs.SpanData and each NDJSON line of
// GET /v1/trace/{id}.
type TraceSpan struct {
	TraceID       string            `json:"traceId"`
	SpanID        string            `json:"spanId"`
	Parent        string            `json:"parent,omitempty"`
	Name          string            `json:"name"`
	Service       string            `json:"service,omitempty"`
	StartUnixNs   int64             `json:"startUnixNs"`
	DurationNs    int64             `json:"durationNs"`
	Attrs         map[string]string `json:"attrs,omitempty"`
	Events        []TraceEvent      `json:"events,omitempty"`
	DroppedEvents int64             `json:"droppedEvents,omitempty"`
}

// TraceEvent is one point event on a span's timeline.
type TraceEvent struct {
	Name     string            `json:"name"`
	OffsetNs int64             `json:"offsetNs"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Item is the outcome of one submitted graph.
type Item struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Error is this item's failure (parse error, analysis error); the rest
	// of the batch is unaffected. Parse failures also carry ErrorLine and
	// ErrorCol locating the offending token in the submitted .ddg text.
	Error     string `json:"error,omitempty"`
	ErrorLine int    `json:"errorLine,omitempty"`
	ErrorCol  int    `json:"errorCol,omitempty"`

	Nodes        int   `json:"nodes,omitempty"`
	Edges        int   `json:"edges,omitempty"`
	CriticalPath int64 `json:"criticalPath,omitempty"`

	// RS maps each analyzed register type to its saturation outcome.
	RS map[string]*RSOutcome `json:"rs,omitempty"`
	// Reductions maps each reduced type to its reduction outcome (only
	// types whose saturation exceeded the budget appear).
	Reductions map[string]*ReduceOutcome `json:"reductions,omitempty"`
	// Cyclic maps each analyzed register type of a loop-format input to its
	// periodic saturation outcome (loop items populate Cyclic instead of RS).
	Cyclic map[string]*CyclicOutcome `json:"cyclic,omitempty"`

	// CacheHit reports that every RS computation of this item was served
	// from a cache (the in-memory memo or the persistent store).
	CacheHit  bool    `json:"cacheHit"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// RSOutcome is one register type's saturation.
type RSOutcome struct {
	RS    int  `json:"rs"`
	Exact bool `json:"exact"`
	// Antichain lists the saturating values by node name.
	Antichain []string `json:"antichain,omitempty"`
	// UpperBound is the proven upper bound of a capped exact search: the
	// true RS lies in [RS, UpperBound]. Omitted when the result is exact.
	UpperBound int `json:"upperBound,omitempty"`
	// Witness maps node name to issue time in a saturating schedule
	// (present when the request asked for witnesses).
	Witness map[string]int64 `json:"witness,omitempty"`
	// ILP carries intLP model info for the "ilp" method.
	ILP *ILPModelInfo `json:"ilp,omitempty"`
	// BB carries the combinatorial search accounting for the "bb" method.
	BB *BBInfo `json:"bb,omitempty"`
	// SolverStats is the MILP solve's work accounting ("ilp" method).
	SolverStats *SolverStats `json:"solverStats,omitempty"`
}

// CyclicOutcome is one register type's periodic saturation: the RS(k)
// sequence over unrolled windows, its per-iteration delta estimate and
// Fekete slope bound, and the optional exact periodic certificate.
//
// PerIter is an estimate, not a proven value: the sweep stops after the
// last Stable deltas RS(k) − RS(k−1) were equal (Converged) and reports
// that delta, a heuristic stop that a longer window could still contradict.
// Only Slope, the Fekete bound min_k RS(k)/k, is proven: it bounds the
// asymptotic per-iteration saturation from above.
type CyclicOutcome struct {
	Windows   []int   `json:"windows"`
	PerIter   int     `json:"perIter"`
	Converged bool    `json:"converged"`
	Window    int     `json:"window"`
	Slope     float64 `json:"slope"`
	Exact     bool    `json:"exact"`
	// Periodic is the exact periodic MILP certificate (certify requests on
	// small kernels only).
	Periodic *PeriodicOutcome `json:"periodic,omitempty"`
}

// PeriodicOutcome mirrors the periodic MILP certificate on the wire.
type PeriodicOutcome struct {
	II         int64 `json:"ii"`
	RS         int   `json:"rs"`
	Exact      bool  `json:"exact"`
	UpperBound int   `json:"upperBound"`
	Jmax       int   `json:"jmax"`
}

// ILPModelInfo mirrors the Section 3 model accounting.
type ILPModelInfo struct {
	Vars            int `json:"vars"`
	IntVars         int `json:"intVars"`
	Constrs         int `json:"constrs"`
	RedundantArcs   int `json:"redundantArcs"`
	NeverAlivePairs int `json:"neverAlivePairs"`
}

// BBInfo mirrors the exact branch-and-bound accounting.
type BBInfo struct {
	Leaves     int64 `json:"leaves"`
	Pruned     int64 `json:"pruned"`
	Capped     bool  `json:"capped"`
	UpperBound int   `json:"upperBound"`
}

// SolverStats mirrors regsat.SolverStats on the wire (field names match the
// solver package's JSON schema; DurationNs is nanoseconds).
type SolverStats struct {
	Nodes        int64 `json:"nodes"`
	SimplexIters int64 `json:"simplexIters"`
	WarmStarts   int64 `json:"warmStarts"`
	ColdStarts   int64 `json:"coldStarts"`
	Fallbacks    int64 `json:"fallbacks"`
	Incumbents   int64 `json:"incumbents"`
	DurationNs   int64 `json:"durationNs"`
	// Presolve/cut/branching accounting of the engine (presolve counters
	// are zero when presolve is disabled).
	PresolveRows        int64 `json:"presolveRows,omitempty"`
	PresolveCols        int64 `json:"presolveCols,omitempty"`
	PresolveTightenings int64 `json:"presolveTightenings,omitempty"`
	CutsAdded           int64 `json:"cutsAdded,omitempty"`
	CutsActive          int64 `json:"cutsActive,omitempty"`
	BranchProbes        int64 `json:"branchProbes,omitempty"`
	ReliableVars        int64 `json:"reliableVars,omitempty"`
	BlandIters          int64 `json:"blandIters,omitempty"`
}

// ReduceOutcome is one register type's reduction.
type ReduceOutcome struct {
	// RS is the saturation of the extended graph.
	RS int `json:"rs"`
	// Spill reports that no reduction to the budget exists.
	Spill bool `json:"spill"`
	Exact bool `json:"exact"`
	// CPBefore/CPAfter are the critical paths before and after; their
	// difference is the ILP loss.
	CPBefore int64 `json:"cpBefore"`
	CPAfter  int64 `json:"cpAfter"`
	// Arcs lists the inserted serialization arcs by node name.
	Arcs []Arc `json:"arcs,omitempty"`
	// DDG is the extended graph in the textual format, scheduler-ready.
	DDG string `json:"ddg,omitempty"`
}

// Arc is one serialization arc.
type Arc struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Latency int64  `json:"latency"`
}

// RunStats is the request's cache accounting: Computed counts RS
// computations actually performed, L1Hits those served from the in-memory
// memo, L2Hits those served from the persistent store. Under concurrent
// requests the split is approximate (counter deltas on a shared engine);
// with one request in flight it is exact.
type RunStats struct {
	L1Hits   int64 `json:"l1Hits"`
	L2Hits   int64 `json:"l2Hits"`
	Computed int64 `json:"computed"`
}

// StreamEvent is one line of an NDJSON streaming response
// (POST /v1/analyze?stream=ndjson): items as they complete in input order,
// then exactly one final event carrying the run stats (or a terminal
// request-level error).
type StreamEvent struct {
	Item  *Item     `json:"item,omitempty"`
	Stats *RunStats `json:"stats,omitempty"`
	Error string    `json:"error,omitempty"`
	// TraceID rides on the final stats event when the request was recorded.
	TraceID string `json:"traceId,omitempty"`
}

// RingInfo is the /v1/ring body: the daemon's cluster topology. A client
// that builds NewRing(Members, VNodes) owns exactly the same ownership map
// as the fleet itself.
type RingInfo struct {
	// Enabled reports whether this daemon runs as part of a cluster.
	Enabled bool `json:"enabled"`
	// Self is this replica's member identity (its -self base URL).
	Self string `json:"self,omitempty"`
	// Members is the full normalized, sorted membership, including Self.
	Members []string `json:"members,omitempty"`
	// VNodes is the ring's virtual-node count per member.
	VNodes int `json:"vnodes,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	Status string `json:"status"` // "ok" or "draining"
	// Queued and InFlight describe the admission queue at sample time.
	Queued   int `json:"queued"`
	InFlight int `json:"inFlight"`
	// Store reports whether a persistent result store is attached.
	Store bool `json:"store"`
}
