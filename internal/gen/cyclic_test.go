package gen

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
)

// cyclicSweepShapes are the per-family (size, width) points of the cyclic
// metamorphic sweep: small enough that every window solves with the exact
// search and the periodic MILP certifies frequently, varied enough to mix
// single-value recurrences with multi-tap reuse.
var cyclicSweepShapes = map[string][][2]int{
	"recurrence": {{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 3}},
	"stencil":    {{1, 1}, {1, 2}, {2, 1}, {1, 3}, {2, 2}},
}

// cyclicSweepParams returns the i-th parameter point of a cyclic family's
// sweep, deterministically cycling every knob (seeds are offset from the
// acyclic sweep so the two suites never share a PRNG stream).
func cyclicSweepParams(f *CyclicFamily, i int) Params {
	shape := cyclicSweepShapes[f.Name][i%len(cyclicSweepShapes[f.Name])]
	return Params{
		Seed:    int64(5000 + i),
		Machine: sweepMachines[i%len(sweepMachines)],
		Size:    shape[0],
		Width:   shape[1],
		Density: sweepDensities[i%len(sweepDensities)],
		Types:   sweepTypes[i%len(sweepTypes)],
	}
}

// TestCyclicSuite runs the cyclic invariant catalog over ≥ 200 generated
// loops per family (a dozen with -short, certification off). Violations are
// delta-minimized and committed to testdata/regressions/ before failing, same
// contract as the acyclic sweep. CI runs this as the blocking cyclic-suite
// step.
func TestCyclicSuite(t *testing.T) {
	count := 200
	opt := CyclicCheckOptions{Certify: true}
	if testing.Short() {
		count = 12
		opt.Certify = false
		opt.MaxWindow = 3
	}
	for _, f := range CyclicFamilies() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < count; i++ {
				p := cyclicSweepParams(f, i)
				l, err := f.Generate(p)
				if err != nil {
					t.Fatalf("generate %s [%s]: %v", f.Name, p, err)
				}
				if err := CheckCyclic(context.Background(), l, opt); err != nil {
					reportCyclicViolation(t, l, err, opt)
				}
			}
		})
	}
}

// reportCyclicViolation shrinks a failing loop, writes the minimized repro
// into the shared regression corpus, and fails pointing at it.
func reportCyclicViolation(t *testing.T, l *cyclic.Loop, err error, opt CyclicCheckOptions) {
	t.Helper()
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("analysis failure (not an invariant violation): %v\n%s", err, l.Format())
	}
	small := ShrinkCyclic(l, FailsCyclicInvariant(context.Background(), v.Invariant, opt))
	if verr := CheckCyclic(context.Background(), small, opt); verr != nil {
		if sv, ok := verr.(*Violation); ok {
			v = sv
		}
	}
	path, werr := WriteCyclicRepro(regressionsDir, v, small)
	if werr != nil {
		t.Fatalf("%v\n(also failed to write repro: %v)\nminimized:\n%s", err, werr, small.Format())
	}
	t.Fatalf("%v\nminimized repro written to %s — commit it so the regression replay keeps covering this", err, path)
}

// TestPeriodicVsUnrolledDifferential is the zero-disagreement gate: on a
// deterministic grid over both cyclic families, the exact periodic MILP at
// MinII must stay within the Jmax-window RS (certify() hard-errors if not),
// and at a period beyond the one-iteration horizon it must reach at least
// RS(1). Kernels the certifier skips (Jmax past its cap) don't count, so the
// test fails loudly if a family's grid certified nothing.
func TestPeriodicVsUnrolledDifferential(t *testing.T) {
	grids := map[string][][2]int{
		"recurrence": {{1, 1}, {1, 2}, {2, 1}, {2, 2}},
		"stencil":    {{1, 1}, {1, 2}, {2, 1}},
	}
	for _, f := range CyclicFamilies() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			certified := 0
			total := 0
			for _, shape := range grids[f.Name] {
				for _, m := range sweepMachines {
					for _, density := range []float64{0, 0.6} {
						for seed := int64(1); seed <= 3; seed++ {
							total++
							p := Params{Seed: seed, Machine: m, Size: shape[0], Width: shape[1], Density: density}
							l, err := f.Generate(p)
							if err != nil {
								t.Fatalf("generate %s [%s]: %v", f.Name, p, err)
							}
							opt := CyclicCheckOptions{MaxWindow: 6, Certify: true}
							if err := CheckCyclic(context.Background(), l, opt); err != nil {
								reportCyclicViolation(t, l, err, opt)
							}
							res, err := cyclic.Analyze(context.Background(), l, l.Types()[0], cyclic.Options{Certify: true})
							if err != nil {
								t.Fatalf("%s: %v", l.Name, err)
							}
							if res.Periodic != nil {
								certified++
							}
						}
					}
				}
			}
			if certified == 0 {
				t.Fatalf("differential grid for %s certified 0 of %d kernels — every Jmax exceeded the cap, the gate is vacuous", f.Name, total)
			}
			t.Logf("%s: %d/%d kernels certified by the periodic MILP", f.Name, certified, total)
		})
	}
}

// TestCyclicGenerateDeterministic: same params, same loop — the registry
// contract the daemon's memo keys rely on.
func TestCyclicGenerateDeterministic(t *testing.T) {
	for _, f := range CyclicFamilies() {
		p := f.Defaults
		p.Seed = 42
		a, err := f.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("%s: same params generated different loops", f.Name)
		}
	}
}

func TestCyclicFamilyValidateRanges(t *testing.T) {
	f, ok := CyclicByName("recurrence")
	if !ok {
		t.Fatal("recurrence family missing from registry")
	}
	if err := f.Validate(Params{Size: 0, Width: 1}); err == nil {
		t.Fatal("size below range accepted")
	}
	if err := f.Validate(Params{Size: 1, Width: 999}); err == nil {
		t.Fatal("width above range accepted")
	}
	if _, ok := CyclicByName("nope"); ok {
		t.Fatal("unknown cyclic family resolved")
	}
	if len(CyclicNames()) != len(CyclicFamilies()) {
		t.Fatal("names/registry length mismatch")
	}
}

// TestCheckCyclicDetectsSeededViolation proves the cyclic engine can actually
// fail: an invalid loop is rejected outright.
func TestCheckCyclicDetectsSeededViolation(t *testing.T) {
	l := cyclic.New("bad", ddg.Superscalar)
	a := l.AddNode("a", "op", 1)
	b := l.AddNode("b", "op", 1)
	l.SetWrites(a, ddg.Float, 0)
	l.SetWrites(b, ddg.Float, 0)
	l.AddFlowEdge(a, b, ddg.Float, 0)
	l.AddFlowEdge(b, a, ddg.Float, 0)
	if err := CheckCyclic(context.Background(), l, CyclicCheckOptions{}); err == nil {
		t.Fatal("CheckCyclic accepted a zero-distance cycle")
	}
}

// TestShrinkCyclicMinimizes: the shrinker must strip a decorated loop down to
// the core that still trips the predicate.
func TestShrinkCyclicMinimizes(t *testing.T) {
	l := cyclic.New("fat", ddg.Superscalar)
	a := l.AddNode("a", "op", 3)
	b := l.AddNode("b", "op", 2)
	c := l.AddNode("c", "op", 4)
	l.SetWrites(a, ddg.Float, 0)
	l.SetWrites(b, ddg.Float, 0)
	l.SetWrites(c, ddg.Float, 0)
	l.AddFlowEdge(a, a, ddg.Float, 2)
	l.AddFlowEdge(a, b, ddg.Float, 0)
	l.AddFlowEdge(b, c, ddg.Float, 1)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Predicate: the loop still has a carried self-edge.
	small := ShrinkCyclic(l, func(s *cyclic.Loop) bool {
		for _, e := range s.Edges() {
			if e.From == e.To && e.Dist >= 1 {
				return true
			}
		}
		return false
	})
	if n := len(small.Nodes()); n != 1 {
		t.Fatalf("shrunk to %d nodes, want 1:\n%s", n, small.Format())
	}
	if len(small.Edges()) != 1 || small.Edges()[0].Dist != 1 || small.Edges()[0].Latency != 1 {
		t.Fatalf("edge not minimized: %+v", small.Edges())
	}
}

// cyclicCorpusSeeds reads the committed loop corpus as fuzz seed inputs.
func cyclicCorpusSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, dir := range []string{"../../testdata", "../../testdata/cyclic"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".ddg") {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			if cyclic.Detect(string(raw)) {
				seeds = append(seeds, raw)
			}
		}
	}
	if len(seeds) == 0 {
		f.Fatal("no cyclic corpus seeds found under testdata/")
	}
	return seeds
}

// FuzzParseCyclicDDG: the distance-annotated loop parser must reject
// malformed text with an error (never a panic), and everything it accepts
// must round-trip losslessly through Format — fingerprint included — with
// Validate agreeing across the round trip, and the outcome must match the
// reference Scanner parser's (checkCyclicParse). Nightly CI runs this target
// alongside the flat-parser fuzzers (see .github/workflows/fuzz.yml).
func FuzzParseCyclicDDG(f *testing.F) {
	for _, seed := range cyclicCorpusSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte("ddg \"t\" machine=vliw loop\nnode a op=x lat=2 writes=float:1 dr=1\nnode b op=y lat=1 writes=int\nedge a b flow float dist=2\nedge b a serial lat=-1 dist=1\n"))
	f.Add([]byte("ddg \"r\" loop\nnode a lat=1 writes=float\nedge a a flow float dist=1\n"))
	f.Add([]byte("ddg \"z\" loop\nnode a lat=1 writes=float\nedge a a flow float dist=0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCyclicParse(t, "input", string(data))
		l, err := cyclic.ParseString(string(data))
		if err != nil {
			return // rejected cleanly: fine
		}
		text := l.Format()
		if !cyclic.Detect(text) {
			t.Fatalf("formatted loop not detected as cyclic:\n%s", text)
		}
		again, err := cyclic.ParseString(text)
		if err != nil {
			t.Fatalf("Format output failed to re-parse: %v\n%s", err, text)
		}
		if got := again.Format(); got != text {
			t.Fatalf("Format not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, got)
		}
		if l.Fingerprint() != again.Fingerprint() {
			t.Fatalf("fingerprint changed across parse(format(l))\n%s", text)
		}
		errA, errB := l.Validate(), again.Validate()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("Validate disagrees across a round-trip: %v vs %v", errA, errB)
		}
	})
}
