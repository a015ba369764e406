package gen

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/reduce"
	"regsat/internal/rs"
)

// The three native fuzz targets the nightly CI workflow runs (see
// .github/workflows/fuzz.yml and docs/FUZZING.md):
//
//	FuzzParseDDG           hostile text → parser must error, never panic,
//	                       and accepted graphs must format/parse losslessly
//	Fuzz AnalyzeProperties fuzzed family parameters → generated graphs must
//	                       satisfy the cheap metamorphic invariant catalog
//	FuzzReduce             fuzzed parameters + budget → the heuristic
//	                       reduction contract must hold
//
// Crashers minimize with Shrink + WriteRepro into testdata/regressions/.

// corpusSeeds reads the committed .ddg corpus as seed inputs.
func corpusSeeds(f *testing.F) [][]byte {
	f.Helper()
	entries, err := os.ReadDir("../../testdata")
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ddg") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("../../testdata", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	if len(seeds) == 0 {
		f.Fatal("no corpus seeds found in testdata/")
	}
	return seeds
}

// FuzzParseDDG: Parse must reject malformed text with an error (never a
// panic), everything it accepts must round-trip losslessly through Format —
// including across Finalize — and the outcome must match the reference
// Scanner parser's (checkFlatParse).
func FuzzParseDDG(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte("ddg \"t\" machine=vliw\nnode a op=x lat=2 writes=float:1 dr=1\nnode b op=y lat=1 writes=int\nedge a b flow float\nedge a b serial lat=-1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFlatParse(t, "input", string(data))
		g, err := ddg.ParseString(string(data))
		if err != nil {
			return // rejected cleanly: fine
		}
		text := g.Format()
		again, err := ddg.ParseString(text)
		if err != nil {
			t.Fatalf("Format output failed to re-parse: %v\n%s", err, text)
		}
		if got := again.Format(); got != text {
			t.Fatalf("Format not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, got)
		}
		// Finalization either succeeds (and then fingerprints must agree
		// between the two parses) or fails identically on both.
		errA, errB := g.Finalize(), again.Finalize()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("Finalize disagrees across a round-trip: %v vs %v", errA, errB)
		}
		if errA == nil && ir.Fingerprint(g) != ir.Fingerprint(again) {
			t.Fatalf("fingerprint changed across parse(format(g))\n%s", text)
		}
	})
}

// fuzzedParams maps arbitrary fuzz bytes into a valid, *small* parameter
// point of some family — the graphs must stay analyzable within the per-exec
// fuzz budget.
func fuzzedParams(famSel, size, width, density, machine, mix uint8, seed int64) (*Family, Params) {
	f := families[int(famSel)%len(families)]
	p := Params{
		Seed:    seed,
		Machine: []ddg.MachineKind{ddg.Superscalar, ddg.VLIW, ddg.EPIC}[int(machine)%3],
		Density: float64(density%101) / 100,
		Types:   sweepTypes[int(mix)%len(sweepTypes)],
	}
	// Clamp into the family's range, then shrink to a fuzz-sized core: the
	// per-exec budget cannot absorb a 341-node expression tree (exact search
	// plus the from-scratch reference on every exec).
	p.Size = f.SizeRange[0] + int(size)%4
	p.Width = f.WidthRange[0] + int(width)%3
	if p.Size > f.SizeRange[1] {
		p.Size = f.SizeRange[1]
	}
	if p.Width > f.WidthRange[1] {
		p.Width = f.WidthRange[1]
	}
	for f.nodeEstimate(p) > 24 {
		switch {
		case p.Size > f.SizeRange[0]:
			p.Size--
		case p.Width > f.WidthRange[0]:
			p.Width--
		default:
			return f, p
		}
	}
	return f, p
}

// FuzzAnalyzeProperties: any generated graph, at any fuzzed parameter point,
// must satisfy the cheap invariant catalog (bounds chain, incremental vs
// reference differential, format round-trip).
func FuzzAnalyzeProperties(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(1), uint8(30), uint8(0), uint8(1), int64(1))
	f.Add(uint8(1), uint8(2), uint8(0), uint8(70), uint8(1), uint8(0), int64(2))
	f.Add(uint8(2), uint8(0), uint8(2), uint8(0), uint8(2), uint8(1), int64(3))
	f.Add(uint8(3), uint8(1), uint8(0), uint8(50), uint8(0), uint8(0), int64(4))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(40), uint8(1), uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, famSel, size, width, density, machine, mix uint8, seed int64) {
		fam, p := fuzzedParams(famSel, size, width, density, machine, mix, seed)
		g, err := fam.Generate(p)
		if err != nil {
			t.Fatalf("valid params %s rejected: %v", p, err)
		}
		opt := CheckOptions{Cheap: true, MaxExactLeaves: 20_000}
		if err := CheckAll(context.Background(), g, opt); err != nil {
			if v, ok := err.(*Violation); ok {
				small := Shrink(g, FailsInvariant(context.Background(), v.Invariant, opt))
				if path, werr := WriteRepro(regressionsDir, v, small); werr == nil {
					t.Fatalf("%v\nminimized repro written to %s", err, path)
				}
			}
			t.Fatal(err)
		}
	})
}

// FuzzReduce: the heuristic reduction contract on fuzzed graphs and
// budgets — never an error, and a non-spill result actually delivers a
// valid extension within budget whose arcs reapply.
func FuzzReduce(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(1), uint8(30), uint8(0), uint8(1), int64(1), uint8(1))
	f.Add(uint8(2), uint8(1), uint8(2), uint8(60), uint8(2), uint8(0), int64(7), uint8(2))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(40), uint8(1), uint8(1), int64(9), uint8(3))
	f.Fuzz(func(t *testing.T, famSel, size, width, density, machine, mix uint8, seed int64, budget uint8) {
		fam, p := fuzzedParams(famSel, size, width, density, machine, mix, seed)
		g, err := fam.Generate(p)
		if err != nil {
			t.Fatalf("valid params %s rejected: %v", p, err)
		}
		for _, rt := range g.Types() {
			an, err := rs.NewAnalysis(g, rt)
			if err != nil {
				t.Fatal(err)
			}
			if len(an.Values) == 0 {
				continue
			}
			greedy, err := rs.Greedy(an)
			if err != nil {
				t.Fatal(err)
			}
			R := 1 + int(budget)%greedyMax(greedy.RS)
			res, err := reduce.Heuristic(context.Background(), g, rt, R)
			if err != nil {
				t.Fatalf("%s/%s R=%d: %v", g.Name, rt, R, err)
			}
			if res.Spill {
				continue
			}
			if res.RS > R {
				t.Fatalf("%s/%s: non-spill reduction reports RS %d > budget %d", g.Name, rt, res.RS, R)
			}
			if err := res.Graph.Validate(); err != nil {
				t.Fatalf("%s/%s: reduced graph invalid: %v", g.Name, rt, err)
			}
			if res.CPAfter < res.CPBefore {
				t.Fatalf("%s/%s: critical path shrank %d → %d", g.Name, rt, res.CPBefore, res.CPAfter)
			}
			reapplied, err := reduce.ApplyArcs(g, res.Arcs)
			if err != nil {
				t.Fatalf("%s/%s: reported arcs do not reapply: %v", g.Name, rt, err)
			}
			if ir.Fingerprint(reapplied) != ir.Fingerprint(res.Graph) {
				t.Fatalf("%s/%s: reapplying arcs yields a different graph", g.Name, rt)
			}
		}
	})
}

// greedyMax keeps the fuzzed register budget inside [1, RS] (a budget at or
// above RS is the trivial no-op case, still worth hitting occasionally).
func greedyMax(rs int) int {
	if rs < 1 {
		return 1
	}
	return rs + 1
}
