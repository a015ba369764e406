package regsat

// Benchmark harness: one benchmark per paper artifact (see DESIGN.md's
// per-experiment index E1–E8), plus micro-benchmarks of the core analyses.
// Key reproduced quantities are attached as benchmark metrics so
// `go test -bench=.` regenerates the evaluation's numbers.

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"regsat/internal/ddg"
	"regsat/internal/experiments"
	"regsat/internal/gen"
	"regsat/internal/kernels"
	"regsat/internal/reduce"
	"regsat/internal/rs"
	"regsat/internal/schedule"
	"regsat/internal/solver"
)

func benchPop() experiments.Population {
	return experiments.Population{
		Machine:      ddg.Superscalar,
		RandomGraphs: 10,
		Seed:         2004,
		MaxValues:    10,
	}
}

// BenchmarkE1_Pipeline reproduces the Figure 1 flow end-to-end.
func BenchmarkE1_Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum, err := experiments.Pipeline(context.Background(), benchPop())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(sum.Rows)), "cases")
		b.ReportMetric(float64(sum.Spills), "spills")
	}
}

// BenchmarkE2_Figure2 reproduces the paper's Figure 2 comparison.
func BenchmarkE2_Figure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.InitialRS != 4 {
			b.Fatalf("Figure 2 RS=%d, want 4", res.InitialRS)
		}
		b.ReportMetric(float64(res.ReducedArcs), "rs-arcs")
		b.ReportMetric(float64(res.MinimalArcs), "min-arcs")
	}
}

// BenchmarkE3_RSOptimality reproduces §5's RS-computation comparison
// (heuristic error ≤ 1 register, rare).
func BenchmarkE3_RSOptimality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum, err := experiments.RSOptimality(benchPop())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(sum.ExactHit)/float64(sum.Total), "%optimal")
		b.ReportMetric(float64(sum.MaxError), "max-error")
	}
}

// BenchmarkE4_ReduceOptimality reproduces §5's five-case breakdown
// (paper: i.a 72.22%, i.b 18.5%, ii.a 4.63%, ii.b <1%, ii.c 3.7%).
func BenchmarkE4_ReduceOptimality(b *testing.B) {
	p := benchPop()
	p.MaxValues = 9
	for i := 0; i < b.N; i++ {
		sum, err := experiments.ReduceOptimality(context.Background(), p, 2)
		if err != nil {
			b.Fatal(err)
		}
		total := float64(sum.Total)
		if total == 0 {
			b.Fatal("no instances")
		}
		b.ReportMetric(100*float64(sum.Counts[experiments.ClassIA])/total, "%i.a")
		b.ReportMetric(100*float64(sum.Counts[experiments.ClassIB])/total, "%i.b")
		b.ReportMetric(100*float64(sum.Counts[experiments.ClassIIA])/total, "%ii.a")
		b.ReportMetric(100*float64(sum.Counts[experiments.ClassIIB])/total, "%ii.b")
		b.ReportMetric(100*float64(sum.Counts[experiments.ClassIIC])/total, "%ii.c")
	}
}

// BenchmarkE5_ModelSize reproduces §3's model-size claim (O(n²) variables,
// O(m+n²) constraints; time-indexed models grow with the horizon T).
func BenchmarkE5_ModelSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum, err := experiments.ModelSize(benchPop())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.MaxVarRatio, "max-vars/n²")
		b.ReportMetric(sum.MaxConstrRatio, "max-constrs/(m+n²)")
	}
}

// BenchmarkE6_Timing reproduces §5's heuristic-vs-exact time contrast.
func BenchmarkE6_Timing(b *testing.B) {
	p := benchPop()
	p.RandomGraphs = 0
	for i := 0; i < b.N; i++ {
		sum, err := experiments.Timing(context.Background(), p, 5, solver.Options{MaxNodes: 100000, TimeLimit: 20 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.BBOverGreedy, "exact/greedy")
	}
}

// BenchmarkE7_MinimizeVsSaturate reproduces §6's discussion numbers.
func BenchmarkE7_MinimizeVsSaturate(b *testing.B) {
	p := benchPop()
	p.MaxValues = 9
	for i := 0; i < b.N; i++ {
		sum, err := experiments.Versus(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if sum.TightCases > 0 {
			b.ReportMetric(100*float64(sum.SatFewerArcs)/float64(sum.TightCases), "%fewer-arcs")
		}
		b.ReportMetric(float64(sum.MinArcsInZeroCases), "min-arcs-at-zero-pressure")
	}
}

// BenchmarkE8_Construction verifies the Theorem 4.2 construction at scale.
func BenchmarkE8_Construction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum, err := experiments.Theorem42(context.Background(), benchPop(), 3, 2004)
		if err != nil {
			b.Fatal(err)
		}
		if len(sum.Failures) > 0 {
			b.Fatalf("violations: %v", sum.Failures)
		}
		b.ReportMetric(float64(sum.DAGPreserved), "extensions")
	}
}

// --- batch engine benchmarks ---
//
// BenchmarkBatchAnalyzeAll/sequential vs /parallel measures the wall-clock
// gain of sharding exact RS analysis across the worker pool: on a 4+ core
// machine the parallel variant runs the same workload (the committed corpus
// plus a synthetic random stream, exact-BB per type) well over 2x faster.
// Each iteration uses a fresh engine so the memo never carries work across
// iterations.

func benchBatchRun(b *testing.B, workers int) {
	params := DefaultRandomParams(14)
	params.Types = []RegType{Int, Float}
	for i := 0; i < b.N; i++ {
		corpus, err := SourceDir("testdata")
		if err != nil {
			b.Fatal(err)
		}
		sources := []GraphSource{corpus, SourceRandom(32, 99, params)}
		ch, err := AnalyzeAll(context.Background(), sources, BatchOptions{
			Parallel: workers,
			RS:       RSOptions{Method: ExactBB, SkipWitness: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for res := range ch {
			if res.Err != nil {
				b.Fatalf("%s: %v", res.Name, res.Err)
			}
			n++
		}
		b.ReportMetric(float64(n), "graphs")
	}
}

func BenchmarkBatchAnalyzeAll(b *testing.B) {
	b.Run("sequential", func(b *testing.B) { benchBatchRun(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchBatchRun(b, runtime.NumCPU()) })
}

// --- micro-benchmarks of the core algorithms ---

func BenchmarkRSGreedyKernels(b *testing.B) {
	suite := kernels.Suite(ddg.Superscalar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range suite {
			for _, t := range g.Types() {
				an, err := rs.NewAnalysis(g, t)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rs.Greedy(an); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkRSExactBBKernels(b *testing.B) {
	suite := kernels.Suite(ddg.Superscalar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range suite {
			for _, t := range g.Types() {
				an, err := rs.NewAnalysis(g, t)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := rs.ExactBB(an, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// largeTreeInstances are the three (graph, type) instances of the
// BenchmarkExactILPGenMix generator stream (seed 2004, first 1,500 graphs)
// whose Section 3 solves explore the most branch-and-bound nodes at the
// gen-mix node cap (every other instance explores at most 39); k is the
// graph's position in the stream.
var largeTreeInstances = []struct {
	k   int
	typ ddg.RegType
}{{969, ddg.Int}, {194, ddg.Int}, {1384, ddg.Float}} // 101, 98 and 89 nodes

// BenchmarkMILPLargeTree measures the tree search where it has work to do:
// the three largest-tree instances of the gen-mix stream. One op solves all
// three. Metrics: branch-and-bound nodes and simplex iterations per op.
func BenchmarkMILPLargeTree(b *testing.B) {
	last := 0
	for _, in := range largeTreeInstances {
		last = max(last, in.k)
	}
	var ans []*rs.Analysis
	genMixStream(b, last+1, func(k int, g *ddg.Graph) {
		for _, in := range largeTreeInstances {
			if in.k != k {
				continue
			}
			an, err := rs.NewAnalysis(g, in.typ)
			if err != nil {
				b.Fatal(err)
			}
			ans = append(ans, an)
		}
	})
	opt := solver.Options{MaxNodes: 10000}
	var iters, nodes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, an := range ans {
			res, err := rs.ExactILP(context.Background(), an, true, opt)
			if err != nil {
				b.Fatal(err)
			}
			iters += res.Stats.SimplexIters
			nodes += res.Stats.Nodes
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "bb-nodes/op")
	b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
}

func loadBenchGraph(path string) (*ddg.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ddg.Parse(f)
	if err != nil {
		return nil, err
	}
	return g, g.Finalize()
}

func BenchmarkRSExactILPSmall(b *testing.B) {
	g := kernels.ByNameMust("lin-daxpy").Build(ddg.Superscalar)
	an, err := rs.NewAnalysis(g, ddg.Float)
	if err != nil {
		b.Fatal(err)
	}
	params := solver.Options{MaxNodes: 200000, TimeLimit: 30 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.ExactILP(context.Background(), an, true, params); err != nil {
			b.Fatal(err)
		}
	}
}

// genMixGraphs is the size of BenchmarkExactILPGenMix's sample.
const genMixGraphs = 48

// genMixStream generates the first n graphs of the gen-mix stream: the five
// generator families in turn at their default parameters on the
// superscalar machine, int and float values, seeds drawn from seed 2004.
func genMixStream(b *testing.B, n int, fn func(k int, g *ddg.Graph)) {
	rng := rand.New(rand.NewSource(2004))
	fams := gen.Families()
	for k := 0; k < n; k++ {
		f := fams[k%len(fams)]
		d := f.Defaults
		g, err := f.Generate(gen.Params{Seed: rng.Int63(), Machine: ddg.Superscalar,
			Size: d.Size, Width: d.Width, Density: d.Density, Types: []ddg.RegType{ddg.Int, ddg.Float}})
		if err != nil {
			b.Fatal(err)
		}
		fn(k, g)
	}
}

// BenchmarkExactILPGenMix is the solver layer's benchmark on the input mix
// of the daemon benchmark's cold-ilp workload: a fixed-seed sample of the
// five generator families at their default parameters on the superscalar
// machine, int and float values, every register type solved with the
// Section 3 model capped at 10,000 branch-and-bound nodes. Graph generation
// and the analyses are built outside the timer. Metrics: simplex
// iterations and branch-and-bound nodes per op (one op = the whole sample).
func BenchmarkExactILPGenMix(b *testing.B) {
	var ans []*rs.Analysis
	genMixStream(b, genMixGraphs, func(_ int, g *ddg.Graph) {
		for _, t := range g.Types() {
			an, err := rs.NewAnalysis(g, t)
			if err != nil {
				b.Fatal(err)
			}
			ans = append(ans, an)
		}
	})
	opt := solver.Options{MaxNodes: 10000}
	b.ReportAllocs()
	b.ResetTimer()
	var iters, nodes int64
	for i := 0; i < b.N; i++ {
		for _, an := range ans {
			res, err := rs.ExactILP(context.Background(), an, true, opt)
			if err != nil {
				b.Fatal(err)
			}
			iters += res.Stats.SimplexIters
			nodes += res.Stats.Nodes
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "bb-nodes/op")
}

func BenchmarkReduceHeuristicSwim(b *testing.B) {
	g := kernels.ByNameMust("spec-swim").Build(ddg.Superscalar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := reduce.Heuristic(context.Background(), g, ddg.Float, 6)
		if err != nil || res.Spill {
			b.Fatalf("err=%v spill=%v", err, res.Spill)
		}
	}
}

func BenchmarkReduceExactDaxpy(b *testing.B) {
	g := kernels.ByNameMust("lin-daxpy").Build(ddg.Superscalar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := reduce.ExactCombinatorial(context.Background(), g, ddg.Int, 3, reduce.ExactOptions{})
		if err != nil || res.Spill {
			b.Fatalf("err=%v spill=%v", err, res.Spill)
		}
	}
}

func BenchmarkListSchedulerSuite(b *testing.B) {
	suite := kernels.Suite(ddg.VLIW)
	res := schedule.TypicalVLIW()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range suite {
			if _, err := schedule.List(g, res); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMaxLiveSweep(b *testing.B) {
	g := kernels.ByNameMust("liv-l7").Build(ddg.Superscalar)
	s, err := schedule.ASAP(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.RegisterNeed(ddg.Float) < 1 {
			b.Fatal("bogus")
		}
	}
}
