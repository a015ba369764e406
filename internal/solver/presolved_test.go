package solver_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/gen"
	"regsat/internal/lp"
	"regsat/internal/reduce"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// presolvedSHA256 is the hash of what the engine loads (solver.WritePresolved)
// for every model of paperModels. It pins presolve and the sparse problem
// it emits bit for bit: rows, relations, right-hand sides, bounds, costs,
// integrality, offset, column map, fixed values and reduction counters.
const presolvedSHA256 = "86c355c71129f6ebc6539b2f6dedaa35fa6fdaa3ed14ba5d32936d5a07b4c057"

// paperModels calls fn with every Section 3 saturation model (with and
// without the paper's model optimizations) and Section 4 coloring model
// (two register budgets, π ordering on) of the committed acyclic corpus,
// then the periodic model at the minimum initiation interval of both cyclic
// generator families (size 1, width 2, seeds 1–4, every machine and
// register type) — the models on which presolve does real work.
func paperModels(tb testing.TB, fn func(tag string, m *lp.Model)) {
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
				m, _, _, err := rs.BuildSaturationModel(an, reduced)
				if err != nil {
					tb.Fatalf("%s/%s: %v", file, typ, err)
				}
				fn(file, m)
			}
			for _, r := range []int{2, 3} {
				m, err := reduce.ColoringModel(g, typ, r, reduce.ILPOptions{ApplyReductions: true, GuaranteeDAG: true})
				if err != nil {
					tb.Fatalf("%s/%s R=%d: %v", file, typ, r, err)
				}
				fn(file, m)
			}
		}
	}
	for _, f := range gen.CyclicFamilies() {
		for _, mk := range []ddg.MachineKind{ddg.Superscalar, ddg.VLIW, ddg.EPIC} {
			for seed := int64(1); seed <= 4; seed++ {
				l, err := f.Generate(gen.Params{Seed: seed, Machine: mk, Size: 1, Width: 2})
				if err != nil {
					tb.Fatal(err)
				}
				for _, typ := range l.Types() {
					m, _, _, err := cyclic.PeriodicModel(l, typ, cyclic.PeriodicOptions{})
					if err != nil {
						tb.Fatalf("%s/%s: %v", l.Name, typ, err)
					}
					if m != nil {
						fn(l.Name, m)
					}
				}
			}
		}
	}
}

// TestPresolvedProblemsUnchanged hashes the presolved sparse problem of
// every paper model and compares it with the pinned value.
func TestPresolvedProblemsUnchanged(t *testing.T) {
	h := sha256.New()
	models := 0
	paperModels(t, func(tag string, m *lp.Model) {
		if err := solver.WritePresolved(h, m); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		models++
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != presolvedSHA256 {
		t.Fatalf("%d presolved problems hash to sha256 %s, want %s", models, got, presolvedSHA256)
	}
}
