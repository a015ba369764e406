// Package regsat is a from-scratch Go implementation of register saturation
// analysis, reproducing Sid-Ahmed-Ali Touati's "On the Optimality of Register
// Saturation" (ICPP 2004 / ENTCS 132, 2005).
//
// The register saturation RS_t(G) of a data dependence DAG G is the exact
// maximum, over every valid schedule, of the number of type-t registers
// needed. Computing it before instruction scheduling decouples register
// constraints from the scheduler (the paper's Figure 1 pipeline):
//
//	g := regsat.NewGraph("body", regsat.Superscalar)
//	… build operations and dependences …
//	g.Finalize()
//	res, _ := regsat.ComputeRS(g, regsat.Float, regsat.RSOptions{})
//	if res.RS > 16 {
//	    red, _ := regsat.ReduceRS(g, regsat.Float, 16, regsat.ReduceOptions{})
//	    g = red.Graph // scheduler-ready: no schedule can need > 16 registers
//	}
//
// Three RS methods are provided: the near-optimal Greedy-k heuristic of
// [Touati, CC 2001], an exact branch-and-bound over killing functions, and
// the paper's exact integer linear program (Section 3) solved by the MILP
// engine of internal/solver (a sparse dual-simplex, warm-started best-bound
// branch and bound — see docs/SOLVER.md). Reduction (Section 4) similarly
// offers the value-serialization heuristic, an exact combinatorial search,
// and the paper's coloring intLP, all applying the constructive arc
// insertion of Theorem 4.2.
package regsat

import (
	"context"
	"io"

	"regsat/internal/batch"
	"regsat/internal/cfg"
	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/reduce"
	"regsat/internal/regalloc"
	"regsat/internal/rs"
	"regsat/internal/schedule"
	"regsat/internal/service/store"
	"regsat/internal/solver"
	"regsat/internal/spill"
)

// Core model types (see internal/ddg for full documentation).
type (
	// Graph is a data dependence DAG over operations with typed register
	// values, latencies, and read/write delay offsets.
	Graph = ddg.Graph
	// RegType names a register type (e.g. Int, Float).
	RegType = ddg.RegType
	// MachineKind selects the processor family (Superscalar, VLIW, EPIC).
	MachineKind = ddg.MachineKind
	// SerialArc is a serialization arc added by RS reduction.
	SerialArc = ddg.SerialArc
	// Schedule assigns an issue time to every operation.
	Schedule = schedule.Schedule
	// Interval is a value lifetime ]Start, End].
	Interval = schedule.Interval
	// Resources describes functional units for the post-RS list scheduler.
	Resources = schedule.Resources
	// Allocation maps values to physical registers.
	Allocation = regalloc.Allocation
)

// Register types of the kernel suite.
const (
	Int   = ddg.Int
	Float = ddg.Float
)

// Machine kinds.
const (
	Superscalar = ddg.Superscalar
	VLIW        = ddg.VLIW
	EPIC        = ddg.EPIC
)

// NewGraph creates an empty DDG for the given machine kind. Add operations
// with AddNode/SetWrites/AddFlowEdge/AddSerialEdge, then call Finalize.
func NewGraph(name string, machine MachineKind) *Graph {
	return ddg.New(name, machine)
}

// GraphParseError locates a syntax error in the textual DDG format: the
// 1-based line and column of the offending token. ParseGraph failures
// unwrap to it via errors.As.
type GraphParseError = ddg.ParseError

// ParseGraph reads a DDG in the textual format (see internal/ddg/format.go).
// The returned graph is not finalized. Syntax errors carry their position
// (*GraphParseError).
func ParseGraph(r io.Reader) (*Graph, error) { return ddg.Parse(r) }

// ParseGraphString is ParseGraph over a string.
func ParseGraphString(s string) (*Graph, error) { return ddg.ParseString(s) }

// RSMethod selects the saturation algorithm.
type RSMethod = rs.Method

// Saturation methods.
const (
	// GreedyK is the polynomial near-optimal heuristic of [14].
	GreedyK = rs.MethodGreedy
	// ExactBB is the exact branch-and-bound over killing functions.
	ExactBB = rs.MethodExactBB
	// ExactILP is the paper's Section 3 integer linear program.
	ExactILP = rs.MethodExactILP
)

// RSOptions configures ComputeRS. The zero value uses Greedy-k with a
// saturating witness schedule.
type RSOptions = rs.Options

// RSResult is the computed saturation with a witness schedule and the
// saturating values.
type RSResult = rs.Result

// MILP solving layer (internal/solver): every exact intLP is solved by its
// sparse dual-simplex branch-and-bound engine.
type (
	// SolverOptions bounds a MILP solve (RSOptions.Solver,
	// ReduceOptions.ILP.Solver, BatchOptions.RS.Solver).
	SolverOptions = solver.Options
	// SolverStats is a solve's work accounting (nodes, simplex iterations,
	// warm-start rate, incumbents, recoveries, wall clock).
	SolverStats = solver.Stats
)

// ComputeRS computes the register saturation RS_t(G): the exact upper bound
// of the register requirement of type t over all valid schedules of g.
// The graph must be finalized.
func ComputeRS(g *Graph, t RegType, opts RSOptions) (*RSResult, error) {
	//rsvet:allow ctxthread -- deliberate context-free convenience wrapper; ComputeRSContext is the threaded form
	return rs.Compute(context.Background(), g, t, opts)
}

// ComputeRSContext is ComputeRS under a context: cancellation interrupts an
// in-flight exact solve.
func ComputeRSContext(ctx context.Context, g *Graph, t RegType, opts RSOptions) (*RSResult, error) {
	return rs.Compute(ctx, g, t, opts)
}

// ComputeRSAll computes the saturation of every register type of g.
func ComputeRSAll(g *Graph, opts RSOptions) (map[RegType]*RSResult, error) {
	//rsvet:allow ctxthread -- deliberate context-free convenience wrapper over ComputeRSContext per type
	return rs.ComputeAll(context.Background(), g, opts)
}

// ReduceMethod selects the reduction algorithm.
type ReduceMethod int

// Reduction methods.
const (
	// ReduceHeuristic is the iterative value-serialization heuristic [14].
	ReduceHeuristic ReduceMethod = iota
	// ReduceExact is the exact combinatorial search (minimal critical path).
	ReduceExact
	// ReduceExactILP is the paper's Section 4 coloring intLP.
	ReduceExactILP
)

// ReduceOptions configures ReduceRS. The zero value runs the heuristic.
type ReduceOptions struct {
	Method ReduceMethod
	// Exact combinatorial budget (nodes); 0 = default.
	MaxNodes int64
	// ILP options for ReduceExactILP.
	ILP reduce.ILPOptions
}

// ReduceResult is the reduction outcome (extended graph, added arcs,
// resulting saturation, critical path change, spill verdict).
type ReduceResult = reduce.Result

// ReduceRS adds serialization arcs to g so that no schedule of the returned
// graph can need more than available type-t registers, increasing the
// critical path as little as possible (Section 4 of the paper). Spill is
// reported when impossible.
func ReduceRS(g *Graph, t RegType, available int, opts ReduceOptions) (*ReduceResult, error) {
	//rsvet:allow ctxthread -- deliberate context-free convenience wrapper; ReduceRSContext is the threaded form
	return ReduceRSContext(context.Background(), g, t, available, opts)
}

// ReduceRSContext is ReduceRS under a context: cancellation interrupts an
// in-flight exact MILP solve.
func ReduceRSContext(ctx context.Context, g *Graph, t RegType, available int, opts ReduceOptions) (*ReduceResult, error) {
	switch opts.Method {
	case ReduceExact:
		return reduce.ExactCombinatorial(ctx, g, t, available, reduce.ExactOptions{MaxNodes: opts.MaxNodes})
	case ReduceExactILP:
		return reduce.ExactILP(ctx, g, t, available, opts.ILP)
	default:
		return reduce.Heuristic(ctx, g, t, available)
	}
}

// Batch analysis (the concurrent engine of internal/batch): analyze a
// stream of DDGs across a bounded worker pool with per-graph memoization of
// the shared artifacts (all-pairs longest paths, rs.Analysis,
// potential-killer sets) keyed by structural fingerprint.
type (
	// BatchOptions configures AnalyzeAll (worker count, RS options and
	// their MILP solver limits, type restriction, optional reduction pass,
	// memo size).
	BatchOptions = batch.Options
	// BatchResult is the per-item outcome, delivered in input order.
	BatchResult = batch.Result
	// BatchReduce asks the batch to reduce saturations above a budget.
	BatchReduce = batch.ReduceSpec
	// BatchStats reports memo hits/misses of a batch engine.
	BatchStats = batch.Stats
	// BatchEngine runs batches over a shared memo (NewBatchEngine).
	BatchEngine = batch.Engine
	// GraphSource streams DDGs into the batch engine.
	GraphSource = batch.Source
	// RandomParams controls the synthetic-workload source.
	RandomParams = ddg.RandomParams
)

// AnalyzeAll shards the register saturation analysis of every graph streamed
// by the sources across a bounded worker pool (BatchOptions.Parallel, default
// GOMAXPROCS) and returns the result channel. Results arrive in input-stream
// order regardless of parallelism; one bad graph yields a BatchResult with
// its error without killing the batch; cancelling ctx stops the run and
// closes the channel. Repeated graphs and repeated register types are served
// from a fingerprint-keyed memo instead of recomputing.
func AnalyzeAll(ctx context.Context, sources []GraphSource, opts BatchOptions) (<-chan BatchResult, error) {
	return batch.New(opts).Run(ctx, batch.Concat(sources...))
}

// NewBatchEngine creates a reusable batch engine: consecutive Run calls
// share one memo, and Stats exposes its hit/miss counts.
func NewBatchEngine(opts BatchOptions) *BatchEngine { return batch.New(opts) }

// SourceFiles streams the given .ddg files (lazily loaded and finalized).
func SourceFiles(paths ...string) GraphSource { return batch.Files(paths...) }

// SourceDir streams every *.ddg file of a directory in sorted order.
func SourceDir(dir string) (GraphSource, error) { return batch.Dir(dir) }

// SourcePaths streams a mix of .ddg files and directories.
func SourcePaths(paths ...string) (GraphSource, error) { return batch.Paths(paths...) }

// SourceGraphs streams already-built graphs (finalized in place).
func SourceGraphs(gs ...*Graph) GraphSource { return batch.Graphs(gs...) }

// SourceLoops streams already-built cyclic loop kernels; the batch engine
// analyzes them with the periodic pipeline (BatchOptions.Cyclic).
func SourceLoops(ls ...*Loop) GraphSource { return batch.Loops(ls...) }

// SourceConcat chains sources into one stream.
func SourceConcat(sources ...GraphSource) GraphSource { return batch.Concat(sources...) }

// Persistent result caching (the substrate of the analysis daemon, cmd/rsd
// — see docs/SERVER.md).
type (
	// BatchResultCache is the batch engine's optional second-level result
	// cache (BatchOptions.L2): results the in-memory memo has to compute
	// are looked up in — and written through to — this layer, keyed by
	// (structural fingerprint, register type, canonicalized options).
	BatchResultCache = batch.ResultCache
	// BatchCyclicCache is the optional loop-kernel extension of
	// BatchResultCache: an L2 cache that also implements it serves and
	// stores periodic loop results (the rsd store does).
	BatchCyclicCache = batch.CyclicCache
	// ResultStore is the persistent on-disk BatchResultCache used by rsd:
	// content-addressed, atomically written, corruption-tolerant, safe to
	// share across processes.
	ResultStore = store.Store
)

// OpenResultStore opens (creating if necessary) a persistent result store
// rooted at dir. Plug it into BatchOptions.L2 so batch analyses survive
// process restarts.
func OpenResultStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// SourceRandom streams n random DDGs from consecutive seeds — a synthetic
// workload generator for stress and scale runs.
func SourceRandom(n int, seed int64, params RandomParams) GraphSource {
	return batch.Generate(n, seed, params)
}

// DefaultRandomParams gives a small, dense, single-type superscalar DAG.
func DefaultRandomParams(n int) RandomParams { return ddg.DefaultRandomParams(n) }

// ASAP returns the as-soon-as-possible schedule of g.
func ASAP(g *Graph) (*Schedule, error) { return schedule.ASAP(g) }

// ListSchedule runs the resource-constrained list scheduler — the pass that
// follows RS analysis in the paper's pipeline (Figure 1).
func ListSchedule(g *Graph, res Resources) (*Schedule, error) {
	return schedule.List(g, res)
}

// TypicalVLIW returns a 4-issue machine description for ListSchedule.
func TypicalVLIW() Resources { return schedule.TypicalVLIW() }

// RegisterNeed returns RN_σ,t: the number of type-t registers the schedule
// requires (maximal values simultaneously alive).
func RegisterNeed(s *Schedule, t RegType) int { return s.RegisterNeed(t) }

// Allocate assigns physical registers of type t to the scheduled graph,
// failing with a spill error when available registers do not suffice.
func Allocate(s *Schedule, t RegType, available int) (*Allocation, error) {
	return regalloc.Allocate(s, t, available)
}

// AllocateAll allocates every register type given per-type file sizes.
func AllocateAll(s *Schedule, files map[RegType]int) (map[RegType]*Allocation, error) {
	return regalloc.AllocateAll(s, files)
}

// Listing renders a register-annotated schedule listing.
func Listing(s *Schedule, allocs map[RegType]*Allocation) string {
	return regalloc.Listing(s, allocs)
}

// Global CFG analysis (the paper's Section 6 extension: RS over an acyclic
// control flow graph via per-block entry/exit values).
type (
	// CFG is an acyclic control flow graph of basic blocks.
	CFG = cfg.CFG
	// BasicBlock is one block of a CFG (build its Body like a Graph, then
	// Export/Import the values crossing block boundaries).
	BasicBlock = cfg.Block
	// GlobalRSResult is the per-block and global saturation, including the
	// one-register safety margin for CFG merges.
	GlobalRSResult = cfg.GlobalRSResult
)

// NewCFG creates an empty acyclic CFG.
func NewCFG(name string, machine MachineKind) *CFG { return cfg.New(name, machine) }

// Periodic register saturation for loops (internal/cyclic): cyclic DDGs
// whose loop-carried dependences carry iteration distances, analyzed by
// unrolled-window convergence and certified by an exact periodic MILP on
// small kernels — see docs/CYCLIC.md.
type (
	// Loop is a cyclic data dependence graph of one loop body.
	Loop = cyclic.Loop
	// LoopEdge is one dependence of a Loop, with its iteration distance.
	LoopEdge = cyclic.Edge
	// CyclicOptions configures AnalyzeLoop (window bounds, convergence
	// stability, the periodic certificate, and the per-window RS options).
	CyclicOptions = cyclic.Options
	// CyclicResult is the per-type outcome: the RS(k) window sequence, its
	// converged per-iteration delta and slope, and the optional periodic
	// certificate.
	CyclicResult = cyclic.Result
	// PeriodicResult is the exact periodic MILP certificate (II, PRS, and
	// solver accounting).
	PeriodicResult = cyclic.Periodic
)

// NewLoop creates an empty cyclic DDG for the given machine kind. Add
// operations and dependences (each with an iteration distance), then
// Validate.
func NewLoop(name string, machine MachineKind) *Loop {
	return cyclic.New(name, machine)
}

// DetectLoop reports whether a textual DDG is in the cyclic loop format
// (its header carries the `loop` flag). Loaders use it to route a file to
// ParseLoop or ParseGraph; file-based batch sources do this automatically.
func DetectLoop(text string) bool { return cyclic.Detect(text) }

// ParseLoop reads a cyclic DDG in the textual loop format. Syntax errors
// carry their position (*GraphParseError).
func ParseLoop(r io.Reader) (*Loop, error) { return cyclic.Parse(r) }

// ParseLoopString is ParseLoop over a string.
func ParseLoopString(s string) (*Loop, error) { return cyclic.ParseString(s) }

// AnalyzeLoop computes the periodic register saturation of one register
// type: RS(k) over growing unrolled windows until the per-iteration growth
// stabilizes, plus the exact periodic MILP certificate when
// CyclicOptions.Certify is set and the kernel is small enough.
func AnalyzeLoop(l *Loop, t RegType, opts CyclicOptions) (*CyclicResult, error) {
	//rsvet:allow ctxthread -- deliberate context-free convenience wrapper; AnalyzeLoopContext is the threaded form
	return cyclic.Analyze(context.Background(), l, t, opts)
}

// AnalyzeLoopContext is AnalyzeLoop under a context: cancellation interrupts
// the per-window solves and the periodic MILP.
func AnalyzeLoopContext(ctx context.Context, l *Loop, t RegType, opts CyclicOptions) (*CyclicResult, error) {
	return cyclic.Analyze(ctx, l, t, opts)
}

// AnalyzeLoopAll analyzes every register type the loop writes.
func AnalyzeLoopAll(l *Loop, opts CyclicOptions) (map[RegType]*CyclicResult, error) {
	//rsvet:allow ctxthread -- deliberate context-free convenience wrapper over AnalyzeLoopContext per type
	return cyclic.AnalyzeAll(context.Background(), l, opts)
}

// Spill insertion at the DDG level (the paper's stated future work).
type (
	// SpillResult is the transformed graph with its spill sites.
	SpillResult = spill.Result
	// SpillSite records one inserted store/reload pair.
	SpillSite = spill.Site
)

// SpillUntilFits alternates RS reduction and DDG-level spill insertion until
// the saturation fits the budget (or reports honest failure).
func SpillUntilFits(g *Graph, t RegType, available, maxSpills int) (*SpillResult, error) {
	//rsvet:allow ctxthread -- deliberate context-free convenience wrapper; SpillUntilFitsContext is the threaded form
	return spill.UntilFits(context.Background(), g, t, available, maxSpills)
}

// SpillUntilFitsContext is SpillUntilFits under a context: cancellation
// interrupts the saturation computations between spill rounds.
func SpillUntilFitsContext(ctx context.Context, g *Graph, t RegType, available, maxSpills int) (*SpillResult, error) {
	return spill.UntilFits(ctx, g, t, available, maxSpills)
}
