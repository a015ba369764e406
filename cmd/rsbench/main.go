// Command rsbench regenerates the paper's evaluation: every experiment of
// DESIGN.md's per-experiment index (E1–E8), printed as tables with the
// paper's reference numbers alongside.
//
// Usage:
//
//	rsbench                       # run everything on the superscalar model
//	rsbench -exp reduce -random 40
//	rsbench -exp rs -machine vliw
//	rsbench -exp corpus -dir testdata -parallel 8
//	rsbench -exp corpus -json BENCH.json   # machine-readable timings
//	rsbench -exp families -json BENCH.json # generated structured families
//	rsbench -exp corpus,solver -json BENCH.json -baseline old.json -threshold 0.25
//
// -exp accepts a comma-separated list (e.g. -exp corpus,solver); "all" runs
// the paper experiments but still excludes corpus/solver/families, which
// read -dir or generate inputs and only run when named explicitly.
//
// -json writes a machine-readable summary (per-experiment wall times; for
// -exp corpus/solver/families also per-case timings, ns/op, and solver work
// accounting) for CI artifacts and performance tracking. -baseline diffs the
// current run against a previous BENCH.json via internal/benchcmp and exits
// non-zero when the median per-file ns/op regresses beyond -threshold — the
// hook the CI bench-regression gate stands on.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"regsat/internal/batch"
	"regsat/internal/benchcmp"
	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/experiments"
	"regsat/internal/gen"
	"regsat/internal/obs"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rsbench:", err)
		os.Exit(1)
	}
}

// benchJSON is the -json output schema: the start of the repo's perf
// trajectory, uploaded as a CI artifact on every run.
type benchJSON struct {
	GoVersion   string           `json:"goVersion"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Machine     string           `json:"machine"`
	Experiments []experimentJSON `json:"experiments,omitempty"`
	Corpus      *corpusJSON      `json:"corpus,omitempty"`
	Solver      *solverJSON      `json:"solver,omitempty"`
	Families    *familiesJSON    `json:"families,omitempty"`
	Tracing     *tracingJSON     `json:"tracing,omitempty"`
	Cyclic      *cyclicJSON      `json:"cyclic,omitempty"`
}

// cyclicJSON is the -exp cyclic section: per-loop unrolled-window analysis
// timings over the cyclic generator families, with each loop's convergence
// window count alongside its ns/op. Entries gate in benchcmp under the
// "cyclic/" namespace.
type cyclicJSON struct {
	Count    int              `json:"count"`
	Parallel int              `json:"parallel"`
	WallNs   int64            `json:"wallNs"`
	PerFile  []cyclicLoopJSON `json:"perFile"`
}

// cyclicLoopJSON is one generated loop's periodic analysis cost and outcome.
type cyclicLoopJSON struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	NsOp  int64  `json:"nsOp"`
	// Windows is the number of unrolled windows the sweep ran before the
	// per-iteration delta stabilized (or the cap).
	Windows   int            `json:"windows,omitempty"`
	Converged bool           `json:"converged,omitempty"`
	PerIter   map[string]int `json:"perIter,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// tracingJSON is the -exp tracing section: the observability tax, measured
// as the corpus sweep with tracing disabled (the production default) vs
// force-sampled. The disabled-path per-file numbers feed the benchcmp gate
// under the "tracing/" namespace — a regression there means the disabled
// path stopped being free; the enabled numbers are informational.
type tracingJSON struct {
	Dir         string  `json:"dir"`
	Parallel    int     `json:"parallel"`
	DisabledNs  int64   `json:"disabledNs"`
	EnabledNs   int64   `json:"enabledNs"`
	OverheadPct float64 `json:"overheadPct"`
	// Spans and Events count what the force-sampled run actually recorded —
	// zero means the enabled column measured nothing.
	Spans   int              `json:"spans"`
	Events  int              `json:"events"`
	PerFile []corpusFileJSON `json:"perFile"`
}

// solverJSON is the -exp solver section: per-instance solve timings plus the engine's work accounting, feeding both the BENCH.json
// artifact and the benchcmp regression gate (entries appear under the
// "solver/" namespace there).
type solverJSON struct {
	Dir      string           `json:"dir"`
	Cases    int              `json:"cases"`
	Skipped  int              `json:"skipped"`
	Disagree int              `json:"disagree"`
	PerFile  []solverCaseJSON `json:"perFile"`
}

// solverCaseJSON is the solve of one corpus instance. Name and NsOp match
// the benchcmp per-file schema; the rest is the per-solve instrumentation
// (branch-and-bound size, simplex work, presolve and cut effect, probing,
// numerical-trouble recoveries).
type solverCaseJSON struct {
	// Name is "graph/type [sparse]": the engine suffix keeps entries
	// comparable with baselines recorded when several engines were swept.
	Name                string `json:"name"`
	Values              int    `json:"values,omitempty"`
	NsOp                int64  `json:"nsOp"`
	RS                  int    `json:"rs"`
	UpperBound          int    `json:"upperBound,omitempty"`
	Exact               bool   `json:"exact"`
	Nodes               int64  `json:"nodes,omitempty"`
	SimplexIters        int64  `json:"simplexIters,omitempty"`
	PresolveRows        int64  `json:"presolveRows,omitempty"`
	PresolveCols        int64  `json:"presolveCols,omitempty"`
	PresolveTightenings int64  `json:"presolveTightenings,omitempty"`
	CutsAdded           int64  `json:"cutsAdded,omitempty"`
	CutsActive          int64  `json:"cutsActive,omitempty"`
	BranchProbes        int64  `json:"branchProbes,omitempty"`
	ReliableVars        int64  `json:"reliableVars,omitempty"`
	BlandIters          int64  `json:"blandIters,omitempty"`
	Fallbacks           int64  `json:"fallbacks,omitempty"`
	Error               string `json:"error,omitempty"`
}

// familiesJSON is the -exp families section: per-generated-graph exact-RS
// analysis timings over the structured generator suite (internal/gen).
type familiesJSON struct {
	Count    int              `json:"count"`
	Parallel int              `json:"parallel"`
	WallNs   int64            `json:"wallNs"`
	PerFile  []corpusFileJSON `json:"perFile"`
}

type experimentJSON struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wallNs"`
}

type corpusJSON struct {
	Dir          string  `json:"dir"`
	Files        int     `json:"files"`
	Parallel     int     `json:"parallel"`
	SequentialNs int64   `json:"sequentialNs"`
	ParallelNs   int64   `json:"parallelNs"`
	Speedup      float64 `json:"speedup"`
	// AllocBytes and Mallocs are the parallel run's heap movement
	// (runtime.MemStats deltas): the sweep-level allocation cost.
	AllocBytes uint64           `json:"allocBytes"`
	Mallocs    uint64           `json:"mallocs"`
	MemoHits   int64            `json:"memoHits"`
	MemoMisses int64            `json:"memoMisses"`
	PerFile    []corpusFileJSON `json:"perFile"`
}

type corpusFileJSON struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	// NsOp is this file's analysis wall time in the parallel run — the
	// per-input ns/op of the corpus sweep.
	NsOp  int64          `json:"nsOp"`
	RS    map[string]int `json:"rs,omitempty"`
	Error string         `json:"error,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) error {
	ctx := context.Background()
	fs := flag.NewFlagSet("rsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiments: all|pipeline|fig2|rs|reduce|size|time|versus|thm42, or corpus/solver/tracing (need -dir) / families/cyclic (generated; none part of all)")
		machine  = fs.String("machine", "superscalar", "machine kind: superscalar|vliw|epic")
		random   = fs.Int("random", 20, "number of random loop bodies added to the kernel suite")
		seed     = fs.Int64("seed", 2004, "random population seed")
		maxVals  = fs.Int("maxvalues", 12, "skip cases with more values than this (exactness budget)")
		dir      = fs.String("dir", "testdata", "DDG corpus directory for -exp corpus/solver")
		parallel = fs.Int("parallel", 0, "worker count for -exp corpus (0 = GOMAXPROCS)")
		profile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		jsonOut  = fs.String("json", "", "write a machine-readable benchmark summary to this file")
		baseline = fs.String("baseline", "", "previous BENCH.json to compare against; exits non-zero on regression")
		thresh   = fs.Float64("threshold", 0.25, "median ns/op regression ratio tolerated by -baseline (0.25 = +25%)")
		famCount = fs.Int("fam-count", 8, "graphs per generator family for -exp families")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return err
	}

	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	mk, err := parseMachine(*machine)
	if err != nil {
		return err
	}
	pop := experiments.Population{
		Machine:      mk,
		RandomGraphs: *random,
		Seed:         *seed,
		MaxValues:    *maxVals,
	}
	summary := &benchJSON{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Machine:    *machine,
	}

	// -exp is a comma-separated set; "all" covers the paper experiments below
	// but not corpus/solver/families, which must stay opt-in.
	wants := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		if name = strings.TrimSpace(name); name != "" {
			wants[name] = true
		}
	}

	var firstErr error
	runExp := func(name string, f func() (string, error)) {
		if (!wants["all"] && !wants[name]) || firstErr != nil {
			return
		}
		start := time.Now()
		report, err := f()
		if err != nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
			return
		}
		elapsed := time.Since(start)
		summary.Experiments = append(summary.Experiments, experimentJSON{Name: name, WallNs: int64(elapsed)})
		fmt.Fprintln(stdout, report)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", name, elapsed.Round(time.Millisecond))
	}

	runExp("fig2", func() (string, error) {
		r, err := experiments.Figure2(ctx)
		if err != nil {
			return "", err
		}
		return r.Report(), nil
	})
	runExp("pipeline", func() (string, error) {
		r, err := experiments.Pipeline(ctx, pop)
		if err != nil {
			return "", err
		}
		return r.Report(), nil
	})
	runExp("rs", func() (string, error) {
		r, err := experiments.RSOptimality(pop)
		if err != nil {
			return "", err
		}
		return r.Report(), nil
	})
	runExp("reduce", func() (string, error) {
		p := pop
		if p.MaxValues > 10 {
			p.MaxValues = 10 // exact reduction budget
		}
		r, err := experiments.ReduceOptimality(ctx, p, 2)
		if err != nil {
			return "", err
		}
		return r.Report(), nil
	})
	runExp("size", func() (string, error) {
		r, err := experiments.ModelSize(pop)
		if err != nil {
			return "", err
		}
		return r.Report(), nil
	})
	runExp("time", func() (string, error) {
		r, err := experiments.Timing(ctx, pop, 6, solver.Options{
			MaxNodes: 200000, TimeLimit: 30 * time.Second})
		if err != nil {
			return "", err
		}
		return r.Report(), nil
	})
	runExp("versus", func() (string, error) {
		p := pop
		if p.MaxValues > 10 {
			p.MaxValues = 10
		}
		r, err := experiments.Versus(ctx, p)
		if err != nil {
			return "", err
		}
		return r.Report(), nil
	})
	runExp("thm42", func() (string, error) {
		r, err := experiments.Theorem42(ctx, pop, 3, *seed)
		if err != nil {
			return "", err
		}
		return r.Report(), nil
	})
	if firstErr != nil {
		return firstErr
	}
	// The corpus and solver experiments read -dir from disk, so they only run
	// when asked for explicitly: a plain `rsbench` must keep working from any
	// directory.
	if wants["corpus"] {
		start := time.Now()
		report, cj, err := corpusReport(*dir, *parallel)
		if err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
		elapsed := time.Since(start)
		summary.Corpus = cj
		summary.Experiments = append(summary.Experiments, experimentJSON{Name: "corpus", WallNs: int64(elapsed)})
		fmt.Fprintln(stdout, report)
		fmt.Fprintf(stdout, "[corpus completed in %v]\n\n", elapsed.Round(time.Millisecond))
	}
	if wants["solver"] {
		start := time.Now()
		report, sj, err := solverReport(*dir, *maxVals)
		if err != nil {
			return fmt.Errorf("solver: %w", err)
		}
		elapsed := time.Since(start)
		summary.Solver = sj
		summary.Experiments = append(summary.Experiments, experimentJSON{Name: "solver", WallNs: int64(elapsed)})
		fmt.Fprintln(stdout, report)
		fmt.Fprintf(stdout, "[solver completed in %v]\n\n", elapsed.Round(time.Millisecond))
	}
	if wants["tracing"] {
		start := time.Now()
		report, tj, err := tracingReport(*dir, *parallel)
		if err != nil {
			return fmt.Errorf("tracing: %w", err)
		}
		elapsed := time.Since(start)
		summary.Tracing = tj
		summary.Experiments = append(summary.Experiments, experimentJSON{Name: "tracing", WallNs: int64(elapsed)})
		fmt.Fprintln(stdout, report)
		fmt.Fprintf(stdout, "[tracing completed in %v]\n\n", elapsed.Round(time.Millisecond))
	}
	if wants["cyclic"] {
		start := time.Now()
		report, yj, err := cyclicReport(mk, *famCount, *seed, *parallel)
		if err != nil {
			return fmt.Errorf("cyclic: %w", err)
		}
		elapsed := time.Since(start)
		yj.WallNs = int64(elapsed)
		summary.Cyclic = yj
		summary.Experiments = append(summary.Experiments, experimentJSON{Name: "cyclic", WallNs: int64(elapsed)})
		fmt.Fprintln(stdout, report)
		fmt.Fprintf(stdout, "[cyclic completed in %v]\n\n", elapsed.Round(time.Millisecond))
	}
	if wants["families"] {
		start := time.Now()
		report, fj, err := familiesReport(mk, *famCount, *seed, *parallel)
		if err != nil {
			return fmt.Errorf("families: %w", err)
		}
		elapsed := time.Since(start)
		fj.WallNs = int64(elapsed)
		summary.Families = fj
		summary.Experiments = append(summary.Experiments, experimentJSON{Name: "families", WallNs: int64(elapsed)})
		fmt.Fprintln(stdout, report)
		fmt.Fprintf(stdout, "[families completed in %v]\n\n", elapsed.Round(time.Millisecond))
	}

	if *jsonOut != "" {
		raw, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonOut)
	}
	if *baseline != "" {
		if err := compareBaseline(stdout, summary, *baseline, *thresh); err != nil {
			return err
		}
	}
	return nil
}

// compareBaseline diffs this run against a previous BENCH.json and fails on
// a median per-file regression beyond the threshold. A missing baseline
// file is an error (the CI gate skips the flag entirely on a cold cache).
func compareBaseline(stdout io.Writer, summary *benchJSON, path string, threshold float64) error {
	raw, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	cur, err := benchcmp.Parse(raw)
	if err != nil {
		return err
	}
	old, err := benchcmp.Load(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	diff := benchcmp.Compare(old, cur)
	fmt.Fprint(stdout, diff.Report(threshold))
	if diff.Regressed(threshold) {
		return fmt.Errorf("performance regressed: median ns/op ratio %.2fx exceeds %.2fx (threshold %.0f%%)",
			diff.MedianRatio, 1+threshold, threshold*100)
	}
	return nil
}

// familiesReport generates a deterministic panel of structured graphs from
// every registered generator family and shards exact RS analysis over the
// batch engine — the families counterpart of corpusReport, giving the CI
// gate per-graph ns/op on shapes (unrolled loops, grids, superblocks,
// expression trees, layered DAGs) the committed corpus does not contain.
func familiesReport(mk ddg.MachineKind, perFamily int, seedBase int64, parallel int) (string, *familiesJSON, error) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	var graphs []*ddg.Graph
	for _, f := range gen.Families() {
		for i := 0; i < perFamily; i++ {
			p := f.Defaults
			p.Machine = mk
			p.Seed = seedBase + int64(i)
			p.Size = f.Defaults.Size + i%3
			p.Types = []ddg.RegType{ddg.Int, ddg.Float}
			if err := f.Validate(p); err != nil {
				return "", nil, err
			}
			g, err := f.Generate(p)
			if err != nil {
				return "", nil, err
			}
			graphs = append(graphs, g)
		}
	}
	eng := batch.New(batch.Options{Parallel: parallel, RS: rs.Options{Method: rs.MethodExactBB, SkipWitness: true}})
	start := time.Now()
	results, err := eng.Collect(context.Background(), batch.Graphs(graphs...))
	if err != nil {
		return "", nil, err
	}
	wall := time.Since(start)

	fj := &familiesJSON{Count: len(results), Parallel: parallel}
	var b []byte
	add := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	add("Generated-family batch analysis: %d graphs (%d per family, machine %s)\n", len(results), perFamily, mk)
	add("%-40s %-8s %s\n", "GRAPH", "NODES", "RS per type")
	for _, res := range results {
		file := corpusFileJSON{Name: res.Name, NsOp: int64(res.Elapsed)}
		if res.Err != nil {
			file.Error = res.Err.Error()
			fj.PerFile = append(fj.PerFile, file)
			add("%-40s %v\n", res.Name, res.Err)
			continue
		}
		file.Nodes = res.Graph.NumNodes()
		file.RS = make(map[string]int, len(res.RS))
		types := make([]string, 0, len(res.RS))
		for t, r := range res.RS {
			types = append(types, string(t))
			file.RS[string(t)] = r.RS
		}
		sort.Strings(types)
		line := ""
		for _, t := range types {
			line += fmt.Sprintf("%s=%d ", t, res.RS[ddg.RegType(t)].RS)
		}
		fj.PerFile = append(fj.PerFile, file)
		add("%-40s %-8d %s\n", res.Name, res.Graph.NumNodes(), line)
	}
	add("families sweep: %d graphs in %v (parallel %d)\n", len(results), wall.Round(time.Millisecond), parallel)
	return string(b), fj, nil
}

// cyclicReport generates a deterministic panel of loop kernels from every
// cyclic generator family and shards the unrolled-window periodic analysis
// over the batch engine: the loop counterpart of familiesReport, giving the
// CI gate per-loop ns/op plus each loop's convergence window count.
func cyclicReport(mk ddg.MachineKind, perFamily int, seedBase int64, parallel int) (string, *cyclicJSON, error) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	var loops []*cyclic.Loop
	for _, f := range gen.CyclicFamilies() {
		for i := 0; i < perFamily; i++ {
			p := f.Defaults
			p.Machine = mk
			p.Seed = seedBase + int64(i)
			p.Size = f.Defaults.Size + i%3
			p.Types = []ddg.RegType{ddg.Int, ddg.Float}
			if err := f.Validate(p); err != nil {
				return "", nil, err
			}
			l, err := f.Generate(p)
			if err != nil {
				return "", nil, err
			}
			loops = append(loops, l)
		}
	}
	eng := batch.New(batch.Options{Parallel: parallel, Cyclic: cyclic.Options{
		MaxWindow: 6, RS: rs.Options{Method: rs.MethodExactBB, SkipWitness: true}}})
	start := time.Now()
	results, err := eng.Collect(context.Background(), batch.Loops(loops...))
	if err != nil {
		return "", nil, err
	}
	wall := time.Since(start)

	yj := &cyclicJSON{Count: len(results), Parallel: parallel}
	var b []byte
	add := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	add("Cyclic loop-family periodic analysis: %d loops (%d per family, machine %s)\n", len(results), perFamily, mk)
	add("%-40s %-8s %-9s %s\n", "LOOP", "NODES", "WINDOWS", "Δ/iteration per type")
	for _, res := range results {
		entry := cyclicLoopJSON{Name: res.Name, NsOp: int64(res.Elapsed)}
		if res.Err != nil {
			entry.Error = res.Err.Error()
			yj.PerFile = append(yj.PerFile, entry)
			add("%-40s %v\n", res.Name, res.Err)
			continue
		}
		entry.Nodes = len(res.Loop.Nodes())
		entry.Converged = true
		entry.PerIter = make(map[string]int, len(res.Cyclic))
		types := make([]string, 0, len(res.Cyclic))
		for t, r := range res.Cyclic {
			types = append(types, string(t))
			entry.PerIter[string(t)] = r.PerIter
			if r.Window > entry.Windows {
				entry.Windows = r.Window
			}
			if !r.Converged {
				entry.Converged = false
			}
		}
		sort.Strings(types)
		line := ""
		for _, t := range types {
			line += fmt.Sprintf("%s=%d ", t, res.Cyclic[ddg.RegType(t)].PerIter)
		}
		if !entry.Converged {
			line += "(not converged)"
		}
		yj.PerFile = append(yj.PerFile, entry)
		add("%-40s %-8d %-9d %s\n", res.Name, entry.Nodes, entry.Windows, line)
	}
	add("cyclic sweep: %d loops in %v (parallel %d)\n", len(results), wall.Round(time.Millisecond), parallel)
	return string(b), yj, nil
}

// solverReport runs the MILP solver over the corpus: per instance, nodes
// explored, simplex iterations, warm-start hit rate, and wall clock, each
// solve verified against the combinatorial exact search (a capped solve
// disagrees only when its interval excludes the exact RS). The JSON section
// carries one entry per instance with the full per-solve instrumentation
// for the BENCH.json artifact and the regression gate.
func solverReport(dir string, maxValues int) (string, *solverJSON, error) {
	src, err := batch.Dir(dir)
	if err != nil {
		return "", nil, err
	}
	var graphs []*ddg.Graph
	var names []string
	for {
		it, ok := src.Next()
		if !ok {
			break
		}
		if it.Err != nil {
			return "", nil, it.Err
		}
		if it.Loop != nil {
			continue // loop kernels are benchmarked by -exp cyclic
		}
		if !it.Graph.Finalized() {
			if err := it.Graph.Finalize(); err != nil {
				return "", nil, fmt.Errorf("%s: %w", it.Name, err)
			}
		}
		graphs = append(graphs, it.Graph)
		names = append(names, it.Name)
	}
	sum, err := experiments.SolverBench(context.Background(), graphs, names, maxValues,
		solver.Options{MaxNodes: 400000, TimeLimit: 60 * time.Second})
	if err != nil {
		return "", nil, err
	}
	sj := &solverJSON{Dir: dir, Cases: len(sum.Cases), Skipped: sum.Skipped, Disagree: sum.Disagree}
	for _, c := range sum.Cases {
		r := c.Row
		entry := solverCaseJSON{
			Name:   c.Name + " [sparse]",
			Values: c.Values,
			NsOp:   int64(r.Elapsed),
		}
		if r.Err != nil {
			entry.Error = r.Err.Error()
		} else {
			entry.RS = r.RS
			entry.Exact = r.Exact
			if !r.Exact {
				entry.UpperBound = r.UpperBound
			}
			entry.Nodes = r.Stats.Nodes
			entry.SimplexIters = r.Stats.SimplexIters
			entry.PresolveRows = r.Stats.PresolveRows
			entry.PresolveCols = r.Stats.PresolveCols
			entry.PresolveTightenings = r.Stats.PresolveTightenings
			entry.CutsAdded = r.Stats.CutsAdded
			entry.CutsActive = r.Stats.CutsActive
			entry.BranchProbes = r.Stats.BranchProbes
			entry.ReliableVars = r.Stats.ReliableVars
			entry.BlandIters = r.Stats.BlandIters
			entry.Fallbacks = r.Stats.Fallbacks
		}
		sj.PerFile = append(sj.PerFile, entry)
	}
	return sum.Report(), sj, nil
}

// tracingReport measures the observability tax: the full corpus sweep once
// with tracing disabled — the production default, where StartSpan on an
// untraced context is one map lookup and a nil check — and once under a
// force-sampled recording trace that exercises every span and event site in
// the batch/solver stack. Each pass gets a fresh engine so neither inherits
// the other's memo. The disabled per-file numbers land in BENCH.json under
// "tracing/" and gate in benchcmp exactly like corpus files.
func tracingReport(dir string, parallel int) (string, *tracingJSON, error) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	rsOpts := rs.Options{Method: rs.MethodExactBB, SkipWitness: true}
	runOnce := func(ctx context.Context) ([]batch.Result, time.Duration, error) {
		src, err := batch.Dir(dir)
		if err != nil {
			return nil, 0, err
		}
		eng := batch.New(batch.Options{Parallel: parallel, RS: rsOpts})
		start := time.Now()
		results, err := eng.Collect(ctx, src)
		return results, time.Since(start), err
	}

	disResults, disWall, err := runOnce(context.Background())
	if err != nil {
		return "", nil, err
	}
	tracer := obs.NewTracer(obs.Config{Service: "rsbench", SampleRate: 1})
	tctx, root := tracer.StartRequest(context.Background(), "bench.sweep", obs.Link{}, true)
	defer root.End()
	enResults, enWall, err := runOnce(tctx)
	if err != nil {
		return "", nil, err
	}
	root.End()
	spans := tracer.Collect(root.TraceID())
	events := 0
	for _, sp := range spans {
		events += len(sp.Events)
	}

	tj := &tracingJSON{
		Dir:        dir,
		Parallel:   parallel,
		DisabledNs: int64(disWall),
		EnabledNs:  int64(enWall),
		Spans:      len(spans),
		Events:     events,
	}
	if disWall > 0 {
		tj.OverheadPct = (float64(enWall) - float64(disWall)) / float64(disWall) * 100
	}
	enByName := make(map[string]time.Duration, len(enResults))
	for _, res := range enResults {
		enByName[res.Name] = res.Elapsed
	}
	var b []byte
	add := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	add("Tracing overhead on the corpus sweep (%s, parallel %d)\n", dir, parallel)
	add("%-40s %12s %12s %7s\n", "FILE", "OFF ns/op", "ON ns/op", "RATIO")
	for _, res := range disResults {
		file := corpusFileJSON{Name: res.Name, NsOp: int64(res.Elapsed)}
		if res.Err != nil {
			file.Error = res.Err.Error()
			tj.PerFile = append(tj.PerFile, file)
			add("%-40s %v\n", res.Name, res.Err)
			continue
		}
		if res.Loop != nil {
			file.Nodes = len(res.Loop.Nodes())
		} else {
			file.Nodes = res.Graph.NumNodes()
		}
		tj.PerFile = append(tj.PerFile, file)
		on := enByName[res.Name]
		ratio := 0.0
		if res.Elapsed > 0 {
			ratio = float64(on) / float64(res.Elapsed)
		}
		add("%-40s %12d %12d %6.2fx\n", res.Name, int64(res.Elapsed), int64(on), ratio)
	}
	add("tracing sweep: disabled %v, enabled %v (%+.1f%%), %d spans / %d events recorded\n",
		disWall.Round(time.Millisecond), enWall.Round(time.Millisecond), tj.OverheadPct, len(spans), events)
	return string(b), tj, nil
}

// corpusReport shards exact RS analysis of every corpus file across the
// batch engine, once sequentially and once with the requested parallelism,
// and reports per-file saturations plus the wall-clock speedup and memo
// behavior of the parallel run.
func corpusReport(dir string, parallel int) (string, *corpusJSON, error) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	rsOpts := rs.Options{Method: rs.MethodExactBB, SkipWitness: true}
	runOnce := func(workers int) ([]batch.Result, batch.Stats, time.Duration, error) {
		src, err := batch.Dir(dir)
		if err != nil {
			return nil, batch.Stats{}, 0, err
		}
		eng := batch.New(batch.Options{Parallel: workers, RS: rsOpts})
		start := time.Now()
		results, err := eng.Collect(context.Background(), src)
		return results, eng.Stats(), time.Since(start), err
	}
	seqResults, _, seqTime, err := runOnce(1)
	if err != nil {
		return "", nil, err
	}
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	parResults, stats, parTime, err := runOnce(parallel)
	if err != nil {
		return "", nil, err
	}
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	cj := &corpusJSON{
		Dir:          dir,
		Files:        len(parResults),
		Parallel:     parallel,
		SequentialNs: int64(seqTime),
		ParallelNs:   int64(parTime),
		Speedup:      float64(seqTime) / float64(parTime),
		AllocBytes:   msAfter.TotalAlloc - msBefore.TotalAlloc,
		Mallocs:      msAfter.Mallocs - msBefore.Mallocs,
		MemoHits:     stats.Hits,
		MemoMisses:   stats.Misses,
	}
	var b []byte
	add := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	add("Corpus batch analysis: %s (%d files, method %s)\n", dir, len(parResults), rsOpts.Method)
	add("%-40s %-8s %s\n", "FILE", "NODES", "RS per type")
	for _, res := range parResults {
		file := corpusFileJSON{Name: res.Name, NsOp: int64(res.Elapsed)}
		if res.Err != nil {
			file.Error = res.Err.Error()
			cj.PerFile = append(cj.PerFile, file)
			add("%-40s %v\n", res.Name, res.Err)
			continue
		}
		line := ""
		if res.Loop != nil {
			// Loop kernels in the corpus run the periodic window sweep;
			// report the converged per-iteration delta as the RS column.
			file.Nodes = len(res.Loop.Nodes())
			file.RS = make(map[string]int, len(res.Cyclic))
			types := make([]string, 0, len(res.Cyclic))
			for t, r := range res.Cyclic {
				types = append(types, string(t))
				file.RS[string(t)] = r.PerIter
			}
			sort.Strings(types)
			for _, t := range types {
				line += fmt.Sprintf("%s=Δ%d/iter ", t, res.Cyclic[ddg.RegType(t)].PerIter)
			}
		} else {
			file.Nodes = res.Graph.NumNodes()
			file.RS = make(map[string]int, len(res.RS))
			types := make([]string, 0, len(res.RS))
			for t, r := range res.RS {
				types = append(types, string(t))
				file.RS[string(t)] = r.RS
			}
			sort.Strings(types)
			for _, t := range types {
				line += fmt.Sprintf("%s=%d ", t, res.RS[ddg.RegType(t)].RS)
			}
		}
		cj.PerFile = append(cj.PerFile, file)
		add("%-40s %-8d %s\n", res.Name, file.Nodes, line)
	}
	add("sequential: %v   parallel(%d): %v   speedup %.2fx\n",
		seqTime.Round(time.Millisecond), parallel, parTime.Round(time.Millisecond),
		float64(seqTime)/float64(parTime))
	add("memo: %d hits, %d misses across %d RS computations\n",
		stats.Hits, stats.Misses, stats.Hits+stats.Misses)
	if len(seqResults) != len(parResults) {
		add("WARNING: sequential and parallel runs disagree on result count (%d vs %d)\n",
			len(seqResults), len(parResults))
	}
	return string(b), cj, nil
}

func parseMachine(s string) (ddg.MachineKind, error) {
	switch s {
	case "superscalar":
		return ddg.Superscalar, nil
	case "vliw":
		return ddg.VLIW, nil
	case "epic":
		return ddg.EPIC, nil
	}
	return 0, fmt.Errorf("unknown machine %q", s)
}
