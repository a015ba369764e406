package solver_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/lp"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// section3Models returns the Section 3 saturation model of every register
// type of the committed acyclic corpus, with the paper's model
// optimizations on and off, each with the clique hints ExactILP gives it.
func section3Models(tb testing.TB) (tags []string, models []*lp.Model, hints []*solver.Hints) {
	tb.Helper()
	files, err := filepath.Glob("../../testdata/*.ddg")
	if err != nil || len(files) == 0 {
		tb.Fatalf("corpus glob: %d files, %v", len(files), err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		if cyclic.Detect(string(raw)) {
			continue
		}
		g, err := ddg.ParseString(string(raw))
		if err == nil {
			err = g.Finalize()
		}
		if err != nil {
			tb.Fatalf("%s: %v", file, err)
		}
		for _, typ := range g.Types() {
			an, err := rs.NewAnalysis(g, typ)
			if err != nil {
				tb.Fatal(err)
			}
			for _, reduced := range []bool{true, false} {
				m, vars, _, err := rs.BuildSaturationModel(an, reduced)
				if err != nil {
					tb.Fatalf("%s/%s: %v", file, typ, err)
				}
				var h *solver.Hints
				if cl := rs.SaturationCliques(an, vars); len(cl) > 0 {
					h = &solver.Hints{Cliques: func() []solver.Clique { return cl }}
				}
				tags = append(tags, filepath.Base(file)+"/"+string(typ))
				models, hints = append(models, m), append(hints, h)
			}
		}
	}
	return tags, models, hints
}

// TestPooledSection3NoStaleData: over the corpus' Section 3 models, whose
// sizes differ from one solve to the next, a solve from pooled workspaces
// and tableaux that were poisoned on release must give the same Solution
// and Stats as a solve from drained pools. A node cap keeps every solve
// deterministic and short; the two superscalar-liv-l7/float models (889
// and 1,228 columns), whose root LPs alone take seconds, are left out.
func TestPooledSection3NoStaleData(t *testing.T) {
	const maxCols = 800
	tags, models, hints := section3Models(t)
	solveAll := func(drain bool) []*solver.Solution {
		sols := make([]*solver.Solution, len(models))
		for i, m := range models {
			if m.NumVars() > maxCols {
				continue
			}
			if drain {
				solver.DrainPools()
			}
			sol, err := solver.Solve(context.Background(), m, solver.Options{MaxNodes: 10, Hints: hints[i]})
			if err != nil {
				t.Fatalf("%s: %v", tags[i], err)
			}
			sol.Stats.Duration = 0
			sols[i] = sol
		}
		return sols
	}
	want := solveAll(true)
	restore := solver.PoisonPools()
	defer restore()
	for i, got := range solveAll(false) {
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s (model %d): from poisoned pools\n%+v\nfrom drained pools\n%+v", tags[i], i, got, want[i])
		}
	}
}
