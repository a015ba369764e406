package rs_test

import (
	"context"
	"testing"

	"regsat/internal/ddg"
	"regsat/internal/gen"
	"regsat/internal/rs"
)

// TestCheckAllPoisonedIncrementalPool runs the metamorphic invariant
// catalog, whose checks compare Greedy-k and ExactBB with from-scratch
// references, while every evaluator released to the pool is poisoned: an
// evaluator that read stale pooled storage would break an invariant.
func TestCheckAllPoisonedIncrementalPool(t *testing.T) {
	restore := rs.PoisonIncrementalPool()
	defer restore()
	seeds := 4
	if testing.Short() {
		seeds = 1
	}
	for _, f := range gen.Families() {
		for seed := 1; seed <= seeds; seed++ {
			p := f.Defaults
			p.Seed, p.Types = int64(seed), []ddg.RegType{ddg.Int, ddg.Float}
			p.Machine = []ddg.MachineKind{ddg.Superscalar, ddg.VLIW, ddg.EPIC}[seed%3]
			g, err := f.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := gen.CheckAll(context.Background(), g, gen.CheckOptions{}); err != nil {
				t.Fatalf("%s seed %d: %v", f.Name, seed, err)
			}
		}
	}
}
