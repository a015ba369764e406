package gen

import (
	"context"
	"strings"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// TestSolverNoFallbacks is the numerical-trouble gate of the MILP engine:
// on every generator family at its default parameters on every machine
// model, and on the periodic MILP of small kernels of both cyclic families,
// no solve may need a recovery (Stats.Fallbacks == 0). A recovery is never
// a wrong answer — the node is rebuilt or its subtree abandoned into a
// capped interval — but on the paper's models it would mean the tableau
// drifted, which the engine's refactorization schedule should prevent.
func TestSolverNoFallbacks(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 1
	}
	opt := solver.Options{MaxNodes: 10_000}
	ctx := context.Background()
	for _, f := range Families() {
		for _, m := range sweepMachines {
			for seed := int64(1); seed <= seeds; seed++ {
				d := f.Defaults
				p := Params{Seed: seed, Machine: m, Size: d.Size, Width: d.Width, Density: d.Density,
					Types: []ddg.RegType{ddg.Int, ddg.Float}}
				g, err := f.Generate(p)
				if err != nil {
					t.Fatalf("generate %s [%s]: %v", f.Name, p, err)
				}
				for _, typ := range g.Types() {
					an, err := rs.NewAnalysis(g, typ)
					if err != nil {
						t.Fatalf("%s/%s: %v", g.Name, typ, err)
					}
					if len(an.Values) == 0 {
						continue
					}
					res, err := rs.ExactILP(ctx, an, true, opt)
					if err != nil {
						t.Fatalf("%s/%s: %v", g.Name, typ, err)
					}
					if n := res.Stats.Fallbacks; n != 0 {
						t.Errorf("%s/%s [%s]: %d recoveries", g.Name, typ, m, n)
					}
				}
			}
		}
	}
	solved := 0
	for _, f := range CyclicFamilies() {
		for _, m := range sweepMachines {
			for seed := int64(1); seed <= seeds; seed++ {
				l, err := f.Generate(Params{Seed: seed, Machine: m, Size: 1, Width: 2})
				if err != nil {
					t.Fatalf("generate %s: %v", f.Name, err)
				}
				for _, typ := range l.Types() {
					per, err := cyclic.PeriodicRS(ctx, l, typ, cyclic.PeriodicOptions{Solver: opt})
					if err != nil {
						if strings.Contains(err.Error(), "too large to certify") {
							continue // the builder refused the model: nothing was solved
						}
						t.Fatalf("%s/%s: %v", l.Name, typ, err)
					}
					if per.Stats == nil {
						continue // no values of this type: no model was solved
					}
					solved++
					if n := per.Stats.Fallbacks; n != 0 {
						t.Errorf("%s/%s [%s]: periodic MILP needed %d recoveries", l.Name, typ, m, n)
					}
				}
			}
		}
	}
	if solved == 0 {
		t.Fatal("no periodic MILP was solved: the cyclic half of the gate is vacuous")
	}
}
