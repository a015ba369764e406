package regsat

// Corpus-wide differential tests of the MILP solving layer: the engine must
// agree with the combinatorial exact search (rs.ExactBB) on the register
// saturation of every committed corpus graph.

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"regsat/internal/ddg"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

func loadCorpus(t *testing.T) []*ddg.Graph {
	t.Helper()
	files, err := filepath.Glob("testdata/*.ddg")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("corpus is empty: no .ddg files in testdata/")
	}
	var graphs []*ddg.Graph
	for _, file := range files {
		g, err := loadSingleGraph(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if g == nil {
			continue // cyclic loop kernel: covered by the cyclic differential
		}
		graphs = append(graphs, g)
	}
	if len(graphs) == 0 {
		t.Fatal("corpus holds no acyclic graphs")
	}
	return graphs
}

// loadSingleGraph loads one corpus file through the public source layer,
// returning (nil, nil) for cyclic loop kernels.
func loadSingleGraph(path string) (*ddg.Graph, error) {
	src := SourceFiles(path)
	it, ok := src.Next()
	if !ok {
		return nil, nil
	}
	if it.Err != nil {
		return nil, it.Err
	}
	if it.Loop != nil {
		return nil, nil
	}
	if !it.Graph.Finalized() {
		if err := it.Graph.Finalize(); err != nil {
			return nil, err
		}
	}
	return it.Graph, nil
}

// TestSolverAgreesOnCorpus: for every corpus graph and register type within
// the exactness budget, the intLP saturation equals the exact-BB saturation
// when the solve completes, and never exceeds it when a search limit capped
// the solve (RS is then a valid lower bound, with the reported interval
// bracketing the exact value). No solve may need a numerical-trouble
// recovery. The engine runs twice — once with its presolve and clique-cut
// layers, once raw — so the speed layers are differentially proven
// semantics-free on the whole corpus.
func TestSolverAgreesOnCorpus(t *testing.T) {
	maxValues := 8
	limit := 15 * time.Second
	if testing.Short() {
		maxValues = 5
		limit = 5 * time.Second
	}
	type config struct {
		label string
		opt   solver.Options
	}
	configs := []config{
		{"sparse", solver.Options{TimeLimit: limit}},
		{"sparse/raw", solver.Options{TimeLimit: limit, DisablePresolve: true, DisableCuts: true}},
	}
	for _, g := range loadCorpus(t) {
		for _, typ := range g.Types() {
			an, err := rs.NewAnalysis(g, typ)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, typ, err)
			}
			if len(an.Values) == 0 || len(an.Values) > maxValues {
				continue
			}
			ref, _, err := rs.ExactBB(an, 0)
			if err != nil {
				t.Fatalf("%s/%s: exact-bb: %v", g.Name, typ, err)
			}
			for _, c := range configs {
				res, err := rs.ExactILP(context.Background(), an, true, c.opt)
				if err != nil {
					t.Fatalf("%s/%s [%s]: %v", g.Name, typ, c.label, err)
				}
				if n := res.Stats.Fallbacks; n != 0 {
					t.Errorf("%s/%s [%s]: %d numerical-trouble recoveries", g.Name, typ, c.label, n)
				}
				switch {
				case res.Exact && res.RS != ref.RS:
					t.Errorf("%s/%s [%s]: intLP RS=%d, exact-bb RS=%d", g.Name, typ, c.label, res.RS, ref.RS)
				case !res.Exact && res.RS > ref.RS:
					t.Errorf("%s/%s [%s]: capped intLP RS=%d exceeds exact %d", g.Name, typ, c.label, res.RS, ref.RS)
				case !res.Exact && res.UpperBound < ref.RS:
					t.Errorf("%s/%s [%s]: capped interval [%d,%d] excludes exact %d",
						g.Name, typ, c.label, res.RS, res.UpperBound, ref.RS)
				}
				if res.Witness != nil {
					if err := res.Witness.Validate(); err != nil {
						t.Errorf("%s/%s [%s]: witness invalid: %v", g.Name, typ, c.label, err)
					}
				}
			}
		}
	}
}

// TestBatchSolverBackendSelection: BatchOptions.RS.Solver reaches every
// intLP solve of a batch. A one-node cap must bound every solve's node count
// and leave the solves that need branching capped.
func TestBatchSolverBackendSelection(t *testing.T) {
	src, err := SourceDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := AnalyzeAll(context.Background(), []GraphSource{src}, BatchOptions{
		RS: RSOptions{Method: ExactILP, ApplyReductions: true, SkipWitness: true,
			Solver: SolverOptions{MaxNodes: 1, TimeLimit: 5 * time.Second}},
		Types: []RegType{Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	solves, capped := 0, 0
	for res := range ch {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Name, res.Err)
		}
		r := res.RS[Float]
		if r == nil {
			continue
		}
		if r.SolverStats == nil || r.SolverStats.Nodes > 1 {
			t.Fatalf("%s: solver stats %+v, want at most 1 node", res.Name, r.SolverStats)
		}
		solves++
		if !r.Exact {
			capped++
		}
	}
	if solves == 0 || capped == 0 {
		t.Fatalf("%d solves, %d capped: the one-node cap showed nothing", solves, capped)
	}
}
