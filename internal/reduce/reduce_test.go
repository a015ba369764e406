package reduce

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/kernels"
	"regsat/internal/rs"
	"regsat/internal/schedule"
	"regsat/internal/solver"
)

func exactRS(t *testing.T, g *ddg.Graph, typ ddg.RegType) int {
	t.Helper()
	res, err := rs.Compute(context.Background(), g, typ, rs.Options{Method: rs.MethodExactBB, SkipWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("exact RS capped")
	}
	return res.RS
}

func ilpParams() solver.Options {
	return solver.Options{MaxNodes: 300000, TimeLimit: 60 * time.Second}
}

func TestHeuristicFigure2(t *testing.T) {
	g := kernels.Figure2(ddg.Superscalar)
	if got := exactRS(t, g, ddg.Float); got != 4 {
		t.Fatalf("fig2 RS=%d, want 4", got)
	}
	res, err := Heuristic(context.Background(), g, ddg.Float, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spill {
		t.Fatal("unexpected spill")
	}
	if res.RS > 3 {
		t.Fatalf("reduced RS=%d, want ≤ 3", res.RS)
	}
	if exact := exactRS(t, res.Graph, ddg.Float); exact > 3 {
		t.Fatalf("true RS of reduced graph=%d, want ≤ 3", exact)
	}
	if len(res.Arcs) == 0 {
		t.Fatal("no arcs added")
	}
	// The long-latency value a gives plenty of slack: reducing 4→3 must not
	// stretch the critical path.
	if res.CPAfter != res.CPBefore {
		t.Fatalf("CP grew from %d to %d; the b/c/d serialization fits under a's latency",
			res.CPBefore, res.CPAfter)
	}
}

func TestHeuristicNoopWhenRSFits(t *testing.T) {
	g := kernels.Figure2(ddg.Superscalar)
	res, err := Heuristic(context.Background(), g, ddg.Float, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arcs) != 0 || res.Graph != g {
		t.Fatal("heuristic must not touch a graph whose RS already fits")
	}
}

func TestHeuristicSpillWhenImpossible(t *testing.T) {
	// s1 = a + b requires both operands alive at its read: RN ≥ 2 always.
	g := ddg.New("need2", ddg.Superscalar)
	a := g.AddNode("a", "load", 1)
	b := g.AddNode("b", "load", 1)
	s1 := g.AddNode("s1", "fadd", 1)
	g.SetWrites(a, ddg.Float, 0)
	g.SetWrites(b, ddg.Float, 0)
	g.SetWrites(s1, ddg.Float, 0)
	g.AddFlowEdge(a, s1, ddg.Float)
	g.AddFlowEdge(b, s1, ddg.Float)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := Heuristic(context.Background(), g, ddg.Float, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spill {
		t.Fatalf("want spill with R=1 (two operands must coexist), got RS=%d", res.RS)
	}
}

func TestExactCombinatorialFigure2(t *testing.T) {
	g := kernels.Figure2(ddg.Superscalar)
	res, err := ExactCombinatorial(context.Background(), g, ddg.Float, 3, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spill || !res.Exact {
		t.Fatalf("spill=%v exact=%v", res.Spill, res.Exact)
	}
	if res.RS > 3 {
		t.Fatalf("RS=%d, want ≤ 3", res.RS)
	}
	if res.CPAfter != res.CPBefore {
		t.Fatalf("optimal reduction must not stretch CP here: %d→%d", res.CPBefore, res.CPAfter)
	}
	if got := exactRS(t, res.Graph, ddg.Float); got != res.RS {
		t.Fatalf("RS(Ḡ)=%d but result says %d", got, res.RS)
	}
}

func TestExactReducesToEveryFeasibleR(t *testing.T) {
	g := kernels.Figure2(ddg.Superscalar)
	for _, R := range []int{1, 2, 3} {
		res, err := ExactCombinatorial(context.Background(), g, ddg.Float, R, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Spill {
			t.Fatalf("R=%d: unexpected spill", R)
		}
		if res.RS > R {
			t.Fatalf("R=%d: RS=%d", R, res.RS)
		}
		if got := exactRS(t, res.Graph, ddg.Float); got > R {
			t.Fatalf("R=%d: true RS(Ḡ)=%d", R, got)
		}
	}
}

func TestHeuristicNeverBeatsExactCPWhenSound(t *testing.T) {
	if testing.Short() {
		t.Skip("slow exhaustive check; skipped with -short")
	}
	// The heuristic may claim a smaller critical path when its Greedy-k
	// saturation estimate is optimistic (the paper's case ii.c). When its
	// extension *verifiably* fits R registers, the exact reduction must be
	// at least as good.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		p := ddg.DefaultRandomParams(4 + rng.Intn(4))
		p.MaxLatency = 2
		g := ddg.RandomGraph(rng, p)
		R := 2
		if exactRS(t, g, ddg.Float) <= R {
			continue
		}
		h, err := Heuristic(context.Background(), g, ddg.Float, R)
		if err != nil {
			t.Fatal(err)
		}
		e, err := ExactCombinatorial(context.Background(), g, ddg.Float, R, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if h.Spill || e.Spill || !e.Exact {
			continue
		}
		if exactRS(t, h.Graph, ddg.Float) > R {
			continue // heuristic over-claimed: its CP is not comparable
		}
		if h.CPAfter < e.CPAfter {
			t.Fatalf("trial %d: heuristic CP %d < exact CP %d (exactness violated)\n%s",
				trial, h.CPAfter, e.CPAfter, g.Format())
		}
	}
}

// TestTheorem42Construction checks the constructive proof: for any valid
// schedule σ, the extension built from σ's lifetime order is an acyclic DAG
// in which σ stays valid, with RN_σ ≤ RS(Ḡ) ≤ RN⁺_σ (the strict-interference
// need; on offset-free machines the latency-1 arcs can only pin strictly
// separated lifetimes, so touching pairs may stay free) and critical path
// ≤ makespan(σ).
func TestTheorem42Construction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		p := ddg.DefaultRandomParams(3 + rng.Intn(5))
		p.MaxLatency = 3
		g := ddg.RandomGraph(rng, p)
		// Random valid schedule: ASAP plus random slack, repaired forward.
		s := randomValidSchedule(t, rng, g)
		rn := s.RegisterNeed(ddg.Float)
		// Strict-interference need: touching lifetimes count as overlapping.
		ivs := s.Lifetimes(ddg.Float)
		for i := range ivs {
			if !ivs[i].Empty() {
				ivs[i].End += StrictSlack(g)
			}
		}
		rnStrict := schedule.MaxLive(ivs)
		snap, err := ir.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		arcs := SerializationArcs(snap, ddg.Float, s)
		ext, err := ApplyArcs(g, arcs)
		if err != nil {
			t.Fatalf("trial %d: superscalar extension must stay acyclic: %v", trial, err)
		}
		// σ remains valid in the extended graph (Σ(Ḡ) ∋ σ).
		s2 := schedule.New(ext, s.Times)
		if err := s2.Validate(); err != nil {
			t.Fatalf("trial %d: driving schedule invalid in extension: %v", trial, err)
		}
		got := exactRS(t, ext, ddg.Float)
		if got < rn || got > rnStrict {
			t.Fatalf("trial %d: RS(Ḡ)=%d outside [RN_σ=%d, RN⁺_σ=%d]\n%s",
				trial, got, rn, rnStrict, g.Format())
		}
		if cp := ext.CriticalPath(); cp > s.Makespan() {
			t.Fatalf("trial %d: CP(Ḡ)=%d > makespan %d", trial, cp, s.Makespan())
		}
	}
}

func randomValidSchedule(t *testing.T, rng *rand.Rand, g *ddg.Graph) *schedule.Schedule {
	t.Helper()
	asap, err := schedule.ASAP(g)
	if err != nil {
		t.Fatal(err)
	}
	dg := g.ToDigraph()
	order, err := dg.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	times := make([]int64, g.NumNodes())
	for _, u := range order {
		earliest := asap.Times[u]
		for _, ei := range dg.InEdges(u) {
			e := dg.Edge(ei)
			if tt := times[e.From] + e.Weight; tt > earliest {
				earliest = tt
			}
		}
		times[u] = earliest + rng.Int63n(3)
	}
	s := schedule.New(g, times)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExactILPMatchesCombinatorial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	checked := 0
	for trial := 0; trial < 40 && checked < 6; trial++ {
		p := ddg.DefaultRandomParams(3 + rng.Intn(3))
		p.MaxLatency = 2
		g := ddg.RandomGraph(rng, p)
		R := 2
		if rsv := exactRS(t, g, ddg.Float); rsv <= R || len(g.Values(ddg.Float)) > 5 {
			continue
		}
		comb, err := ExactCombinatorial(context.Background(), g, ddg.Float, R, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ilpRes, err := ExactILP(context.Background(), g, ddg.Float, R, ILPOptions{Solver: ilpParams(), ApplyReductions: true})
		if err != nil {
			t.Fatal(err)
		}
		if comb.Spill {
			// Truly impossible ⇒ the (more conservative) intLP must agree.
			if !ilpRes.Spill {
				t.Fatalf("trial %d: combinatorial spills but intLP found a reduction", trial)
			}
			continue
		}
		if ilpRes.Spill || !comb.Exact || !ilpRes.Exact {
			continue // strict intLP interference may be conservative on ties
		}
		// Both are valid reductions; the combinatorial search is the true
		// optimum, and the strict intLP can only be equal or worse.
		if ilpRes.CPAfter < comb.CPAfter {
			t.Fatalf("trial %d: intLP CP=%d beats combinatorial optimum CP=%d\n%s",
				trial, ilpRes.CPAfter, comb.CPAfter, g.Format())
		}
		if ilpRes.RS > R || comb.RS > R {
			t.Fatalf("trial %d: reduction exceeded R", trial)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d cross-checks completed", checked)
	}
}

func TestExactILPSpillDetection(t *testing.T) {
	g := ddg.New("need2", ddg.Superscalar)
	a := g.AddNode("a", "load", 1)
	b := g.AddNode("b", "load", 1)
	s1 := g.AddNode("s1", "fadd", 1)
	g.SetWrites(a, ddg.Float, 0)
	g.SetWrites(b, ddg.Float, 0)
	g.SetWrites(s1, ddg.Float, 0)
	g.AddFlowEdge(a, s1, ddg.Float)
	g.AddFlowEdge(b, s1, ddg.Float)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := ExactILP(context.Background(), g, ddg.Float, 1, ILPOptions{Solver: ilpParams()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spill {
		t.Fatal("want spill with R=1")
	}
}

func TestReductionOnKernelSuite(t *testing.T) {
	// Every kernel must be reducible to RS-1 registers (or report spill)
	// with the heuristic. The heuristic's own claim must hold (greedy RS of
	// the extension ≤ R); the *true* saturation may occasionally exceed R
	// when Greedy-k under-estimates (the paper's sub-optimal cases), but
	// adding arcs must never increase the saturation.
	overClaims := 0
	cases := 0
	for _, spec := range kernels.All() {
		g := spec.Build(ddg.Superscalar)
		for _, typ := range g.Types() {
			rsv := exactRS(t, g, typ)
			if rsv < 2 {
				continue
			}
			R := rsv - 1
			res, err := Heuristic(context.Background(), g, typ, R)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, typ, err)
			}
			if res.Spill {
				continue // legitimate when R below the minimum possible need
			}
			cases++
			if res.RS > R {
				t.Fatalf("%s/%s: heuristic returned RS=%d > R=%d without spill",
					spec.Name, typ, res.RS, R)
			}
			got := exactRS(t, res.Graph, typ)
			if got > rsv {
				t.Fatalf("%s/%s: adding arcs increased saturation %d → %d",
					spec.Name, typ, rsv, got)
			}
			if got > R {
				overClaims++
			}
			if res.CPAfter < res.CPBefore {
				t.Fatalf("%s/%s: CP shrank?!", spec.Name, typ)
			}
		}
	}
	if cases == 0 {
		t.Fatal("no reduction cases exercised")
	}
	if overClaims*4 > cases {
		t.Fatalf("Greedy-k over-claimed on %d/%d reductions — far from 'nearly optimal'",
			overClaims, cases)
	}
}

func TestVLIWSerializationLatencies(t *testing.T) {
	g := kernels.Figure2(ddg.VLIW)
	// On VLIW, arcs carry δr(u′) − δw(v) which is typically non-positive.
	a := g.NodeByName("a")
	sa := g.NodeByName("sa")
	_ = sa
	arcs := ValueSerializationArcs(g, ddg.Float, a, g.NodeByName("b"))
	if len(arcs) == 0 {
		t.Fatal("no arcs")
	}
	for _, arc := range arcs {
		want := g.Node(arc.From).DelayR - g.Node(arc.To).DelayW(ddg.Float)
		if arc.Latency != want {
			t.Fatalf("VLIW arc latency=%d, want δr−δw=%d", arc.Latency, want)
		}
	}
	gs := kernels.Figure2(ddg.Superscalar)
	for _, arc := range ValueSerializationArcs(gs, ddg.Float, gs.NodeByName("a"), gs.NodeByName("b")) {
		if arc.Latency != 1 {
			t.Fatalf("superscalar arc latency=%d, want 1", arc.Latency)
		}
	}
}

func TestVLIWReductionKeepsDAG(t *testing.T) {
	for _, spec := range kernels.All() {
		g := spec.Build(ddg.VLIW)
		for _, typ := range g.Types() {
			rsv := exactRS(t, g, typ)
			if rsv < 2 {
				continue
			}
			res, err := Heuristic(context.Background(), g, typ, rsv-1)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, typ, err)
			}
			if res.Spill {
				continue
			}
			if !res.Graph.ToDigraph().IsDAG() {
				t.Fatalf("%s/%s: reduced VLIW graph has a circuit", spec.Name, typ)
			}
		}
	}
}
