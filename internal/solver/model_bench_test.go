package solver_test

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"regsat/internal/ddg"
	"regsat/internal/gen"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// genMixAnalyses returns the analyses of the first 48 graphs of the gen-mix
// stream (the cold-ilp input mix of the root package's
// BenchmarkExactILPGenMix): the five generator families in turn at their
// default parameters on the superscalar machine, int and float values,
// seeds drawn from seed 2004 — 96 register-type analyses.
func genMixAnalyses(tb testing.TB) []*rs.Analysis {
	tb.Helper()
	rng := rand.New(rand.NewSource(2004))
	fams := gen.Families()
	var ans []*rs.Analysis
	for k := 0; k < 48; k++ {
		f := fams[k%len(fams)]
		d := f.Defaults
		g, err := f.Generate(gen.Params{Seed: rng.Int63(), Machine: ddg.Superscalar,
			Size: d.Size, Width: d.Width, Density: d.Density, Types: []ddg.RegType{ddg.Int, ddg.Float}})
		if err != nil {
			tb.Fatal(err)
		}
		for _, t := range g.Types() {
			an, err := rs.NewAnalysis(g, t)
			if err != nil {
				tb.Fatal(err)
			}
			ans = append(ans, an)
		}
	}
	return ans
}

// loadModel builds the reduced Section 3 model of an and loads it the way
// a solve does: presolve writing the sparse problem.
func loadModel(tb testing.TB, an *rs.Analysis) {
	m, _, _, err := rs.BuildSaturationModel(an, true)
	if err != nil {
		tb.Fatal(err)
	}
	if err := solver.PresolveModel(m); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSaturationModel is the model-building layer of a cold solve:
// build the reduced Section 3 model, presolve it and load the sparse
// problem, for each of the 96 gen-mix analyses (one op = all of them).
// The analyses are built outside the timer.
func BenchmarkSaturationModel(b *testing.B) {
	ans := genMixAnalyses(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, an := range ans {
			loadModel(b, an)
		}
	}
}

// livL7Float returns the reduced Section 3 model of
// superscalar-liv-l7/float, one of the largest of the committed corpus
// (2,307 rows and 889 columns after presolve).
func livL7Float(tb testing.TB) *solver.RootLP {
	tb.Helper()
	an := corpusAnalysis(tb, "superscalar-liv-l7.ddg", ddg.Float)
	m, _, _, err := rs.BuildSaturationModel(an, true)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := solver.NewRootLP(m)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkRootLPLarge solves the root LP relaxation of the reduced
// Section 3 model of superscalar-liv-l7/float cold, presolve outside the
// timer, and reports the time per simplex iteration: the dual simplex's
// cost on a large tableau.
func BenchmarkRootLPLarge(b *testing.B) {
	r := livL7Float(b)
	var iters int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, ok := r.Solve()
		if !ok {
			b.Fatal("root LP not solved to optimality")
		}
		iters += k
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/simplex-iter")
	b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
}

// TestTableauHoldsOnlyNonbasicColumns pins the tableau's memory: for the
// reduced Section 3 model of superscalar-liv-l7/float, fresh tableau
// storage is exactly one float per row and structural column. The full
// tableau, with the m slack columns and a right-hand side, held
// m × (n+m+1): about 59 MB for this model.
func TestTableauHoldsOnlyNonbasicColumns(t *testing.T) {
	r := livL7Float(t)
	m, n := r.Size()
	if got := r.TableauFloats(); got != m*n {
		t.Fatalf("the %d × %d tableau holds %d floats, want %d", m, n, got, m*n)
	}
}

// corpusAnalysis parses a graph of the committed corpus and analyzes one
// register type of it.
func corpusAnalysis(tb testing.TB, file string, typ ddg.RegType) *rs.Analysis {
	tb.Helper()
	raw, err := os.ReadFile("../../testdata/" + file)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := ddg.ParseString(string(raw))
	if err == nil {
		err = g.Finalize()
	}
	if err != nil {
		tb.Fatal(err)
	}
	an, err := rs.NewAnalysis(g, typ)
	if err != nil {
		tb.Fatal(err)
	}
	return an
}

// maxLoadAllocs bounds the allocations of building and loading the
// reduced Section 3 model of superscalar-spec-swim/float: 17 values, 311
// variables, 773 rows, 2,062 nonzeros. The path measures 77 allocations
// (go1.24, linux/amd64): amortized slice growth of the model's arenas plus a
// fixed number per model. The bound leaves 30% headroom; allocating per row
// or per variable again (this model made 6,569 allocations that way) fails
// it by far.
const maxLoadAllocs = 100

// TestSaturationModelAllocs guards the allocation count of the model
// building and loading path on one mid-size corpus graph.
func TestSaturationModelAllocs(t *testing.T) {
	an := corpusAnalysis(t, "superscalar-spec-swim.ddg", ddg.Float)
	loadModel(t, an) // warm the analysis' memoized graph facts
	if got := testing.AllocsPerRun(20, func() { loadModel(t, an) }); got > maxLoadAllocs {
		t.Fatalf("building and loading the model allocates %.0f times, bound %d", got, maxLoadAllocs)
	}
}

// One warm-pool rs.ExactILP solve of superscalar-spec-swim/float (greedy
// seed on a pooled evaluator, model build, presolve, a root LP that proves
// the seed optimal, σ witness) measures 76 allocations and 19,056 bytes
// (go1.24, linux/amd64). The bounds leave 30% headroom. Deriving the
// clique hints before the root LP, solving the root to optimality and a
// fresh Greedy-k evaluator per solve made it 302 allocations and 51,112
// bytes; building the model, the presolve copy and the sparse problem
// afresh on every solve, as before the solve workspace and the model pool,
// made 370 allocations and 451,179 bytes.
const (
	maxILPSolveAllocs = 99
	maxILPSolveBytes  = 24_773
)

// TestExactILPSolveAllocs guards the allocations of one Section 3 solve
// whose model, solve workspace and tableaux come from warm pools. The
// bytes are the median of single solves, so a garbage collection emptying
// the pools mid-test costs one sample, not the verdict.
func TestExactILPSolveAllocs(t *testing.T) {
	an := corpusAnalysis(t, "superscalar-spec-swim.ddg", ddg.Float)
	solve := func() {
		if _, err := rs.ExactILP(context.Background(), an, true, solver.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a random quarter of what is put into it")
	}
	solve() // warm the pools and the analysis' memoized graph facts
	got := testing.AllocsPerRun(10, solve)
	t.Logf("%.0f allocations per solve", got)
	if got > maxILPSolveAllocs {
		t.Errorf("a warm-pool solve allocates %.0f times, bound %d", got, maxILPSolveAllocs)
	}
	var bytes []uint64
	var before, after runtime.MemStats
	for i := 0; i < 11; i++ {
		runtime.ReadMemStats(&before)
		solve()
		runtime.ReadMemStats(&after)
		bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(bytes)
	t.Logf("%d bytes per solve (median)", bytes[len(bytes)/2])
	if got := bytes[len(bytes)/2]; got > maxILPSolveBytes {
		t.Errorf("a warm-pool solve allocates %d bytes (median), bound %d", got, maxILPSolveBytes)
	}
}
