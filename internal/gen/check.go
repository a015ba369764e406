package gen

import (
	"context"
	"fmt"
	"time"

	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/reduce"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// This file is the metamorphic property engine: the catalog of paper
// invariants every generated (or fuzzed, or regression-replayed) graph must
// satisfy. Each invariant has a stable name so failures can be bucketed,
// shrunk, and filed as regression repros (see shrink.go and
// docs/FUZZING.md).
//
// The catalog, per register type t of the graph:
//
//	format-roundtrip          parse(format(g)) is structurally identical to g
//	greedy-le-exact           Greedy-k RS* ≤ exact RS (Greedy is achievable)
//	exact-le-antichain        exact RS ≤ the Dilworth antichain bound of the
//	                          forced-killers order ≤ |values|
//	incremental-vs-reference  the incremental ExactBB == the from-scratch
//	                          reference search
//	antichain-witness         the saturating antichain has exactly RS members
//	                          and its killing function is valid
//	serial-removal-monotone   removing a serial arc never lowers RS
//	heuristic-reduction-valid a non-spilling heuristic reduction reports
//	                          RS ≤ R, a valid DAG, reapplicable arcs, and a
//	                          non-decreased critical path
//	exact-reduction-certifies an exact reduction's extension truly has
//	                          exact RS ≤ R (re-proved with ExactBB)
//	solver-backends-agree     the MILP engine solves the intLP without a
//	                          numerical-trouble recovery, and a capped
//	                          interval must contain the answer; against the
//	                          combinatorial exact RS the relation is
//	                          machine-dependent — equal on
//	                          superscalar, ≥ on VLIW/EPIC, where the intLP
//	                          maximizes over *all* schedules while the
//	                          killing-function framework excludes killings
//	                          whose enforcement arcs form non-positive
//	                          circuits (the paper's acyclicity requirement),
//	                          making ExactBB a certified lower bound there
//	                          (see testdata/regressions/solver-backends-
//	                          agree-*.ddg for the 3-node witness)
//	presolve-onoff-agree      the sparse engine with its presolve and cut
//	                          layers enabled proves the same RS as the raw
//	                          engine (the layers are speed, never semantics)
//	clique-cuts-valid         every clique inequality the model builder hints
//	                          to the solver is satisfied by an incumbent of
//	                          the unmodified model solved without cuts

// Violation is one falsified invariant: which one, where, and the concrete
// numbers that contradict it.
type Violation struct {
	Invariant string      // stable catalog name, e.g. "greedy-le-exact"
	Graph     string      // graph name
	Type      ddg.RegType // register type under analysis ("" when type-free)
	Detail    string
}

func (v *Violation) Error() string {
	if v.Type != "" {
		return fmt.Sprintf("invariant %s violated on %s/%s: %s", v.Invariant, v.Graph, v.Type, v.Detail)
	}
	return fmt.Sprintf("invariant %s violated on %s: %s", v.Invariant, v.Graph, v.Detail)
}

// CheckOptions tunes how much of the catalog CheckAll runs.
type CheckOptions struct {
	// MaxExactLeaves caps each exact search (0 = 200k). Graphs whose search
	// exceeds the cap skip the invariants that need a proven exact RS.
	MaxExactLeaves int64
	// MaxILPValues gates the MILP cross-checks: types with more values skip
	// them (0 = 6). Negative disables the gate.
	MaxILPValues int
	// MaxReduceValues gates the exact-reduction certificate (0 = 5).
	// Negative disables the gate.
	MaxReduceValues int
	// MaxRemovals bounds how many serial arcs the removal-monotonicity
	// invariant tries (0 = 2; each one costs an extra exact solve).
	MaxRemovals int
	// Cheap drops the expensive invariants (arc removal, reductions, MILP
	// solves) — the profile fuzz targets run under their per-exec budget.
	Cheap bool
}

func (o CheckOptions) withDefaults() CheckOptions {
	if o.MaxExactLeaves == 0 {
		o.MaxExactLeaves = 200_000
	}
	if o.MaxILPValues == 0 {
		o.MaxILPValues = 6
	}
	if o.MaxReduceValues == 0 {
		o.MaxReduceValues = 5
	}
	if o.MaxRemovals == 0 {
		o.MaxRemovals = 2
	}
	return o
}

// CheckAll runs the metamorphic invariant catalog on the finalized graph g
// and returns the first *Violation found (or a plain error if an analysis
// itself fails, which is also a bug: every finalized DAG must analyze).
func CheckAll(ctx context.Context, g *ddg.Graph, opt CheckOptions) error {
	opt = opt.withDefaults()
	if !g.Finalized() {
		return fmt.Errorf("gen: CheckAll needs a finalized graph")
	}
	if err := checkRoundTrip(g); err != nil {
		return err
	}
	for _, t := range g.Types() {
		if err := checkType(ctx, g, t, opt); err != nil {
			return err
		}
	}
	return nil
}

// checkRoundTrip: format → parse → finalize must reproduce the exact
// structure (same ir fingerprint).
func checkRoundTrip(g *ddg.Graph) error {
	text := g.Format()
	parsed, err := ddg.ParseString(text)
	if err != nil {
		return &Violation{Invariant: "format-roundtrip", Graph: g.Name,
			Detail: fmt.Sprintf("formatted output failed to parse: %v\n%s", err, text)}
	}
	if err := parsed.Finalize(); err != nil {
		return &Violation{Invariant: "format-roundtrip", Graph: g.Name,
			Detail: fmt.Sprintf("re-parsed graph failed to finalize: %v", err)}
	}
	if got, want := ir.Fingerprint(parsed), ir.Fingerprint(g); got != want {
		return &Violation{Invariant: "format-roundtrip", Graph: g.Name,
			Detail: fmt.Sprintf("fingerprint changed across parse(format(g)): %s != %s", got, want)}
	}
	return nil
}

func checkType(ctx context.Context, g *ddg.Graph, t ddg.RegType, opt CheckOptions) error {
	an, err := rs.NewAnalysis(g, t)
	if err != nil {
		return fmt.Errorf("gen: %s/%s: analysis failed: %w", g.Name, t, err)
	}
	nv := len(an.Values)
	if nv == 0 {
		return nil
	}
	fail := func(invariant, format string, args ...any) error {
		return &Violation{Invariant: invariant, Graph: g.Name, Type: t, Detail: fmt.Sprintf(format, args...)}
	}

	greedy, err := rs.Greedy(an)
	if err != nil {
		return fmt.Errorf("gen: %s/%s: greedy failed: %w", g.Name, t, err)
	}
	exact, stats, err := rs.ExactBB(an, opt.MaxExactLeaves)
	if err != nil {
		return fmt.Errorf("gen: %s/%s: exact BB failed: %w", g.Name, t, err)
	}

	// Bound chain. On a capped search the proven facts shrink to
	// greedy ≤ best-found ≤ UpperBound.
	if greedy.RS > exact.RS && !stats.Capped {
		return fail("greedy-le-exact", "Greedy-k found %d > exact %d", greedy.RS, exact.RS)
	}
	if exact.RS > stats.UpperBound {
		return fail("exact-le-antichain", "exact %d exceeds the search's proven upper bound %d", exact.RS, stats.UpperBound)
	}
	if stats.UpperBound > nv {
		return fail("exact-le-antichain", "antichain bound %d exceeds the value count %d", stats.UpperBound, nv)
	}
	// The Dilworth bound of the forced-killers-only order bounds every
	// killing function, hence RS.
	ik := rs.NewIncremental(an)
	forcedOK := true
	for i := 0; i < nv; i++ {
		if len(an.PKill[i]) == 1 && !ik.Push(i, an.PKill[i][0]) {
			forcedOK = false
			break
		}
	}
	if forcedOK {
		if bound := ik.Bound(); exact.RS > bound {
			return fail("exact-le-antichain", "exact %d exceeds the forced-order antichain bound %d", exact.RS, bound)
		}
	}

	// Witness sanity: the saturating antichain must have exactly RS members,
	// and the killing function behind it must be valid.
	if len(exact.Antichain) != exact.RS {
		return fail("antichain-witness", "antichain has %d members for RS=%d", len(exact.Antichain), exact.RS)
	}
	if exact.Killing != nil && !exact.Killing.Valid() {
		return fail("antichain-witness", "the exact search returned an invalid (cyclic) killing function")
	}

	// Differential: incremental engine vs from-scratch reference.
	ref, refStats, err := rs.ExactBBReference(an, opt.MaxExactLeaves)
	if err != nil {
		return fmt.Errorf("gen: %s/%s: reference BB failed: %w", g.Name, t, err)
	}
	if !stats.Capped && !refStats.Capped && ref.RS != exact.RS {
		return fail("incremental-vs-reference", "incremental found %d, reference found %d", exact.RS, ref.RS)
	}

	if opt.Cheap || stats.Capped {
		return nil
	}

	if err := checkSerialRemoval(g, t, exact.RS, opt); err != nil {
		return err
	}
	if err := checkHeuristicReduction(ctx, g, t, exact.RS); err != nil {
		return err
	}
	if opt.MaxReduceValues < 0 || nv <= opt.MaxReduceValues {
		if err := checkExactReduction(ctx, g, t, exact.RS, opt); err != nil {
			return err
		}
	}
	if opt.MaxILPValues < 0 || nv <= opt.MaxILPValues {
		if err := checkSolver(ctx, g, an, exact.RS); err != nil {
			return err
		}
		if err := checkPresolveAgreement(ctx, g, an); err != nil {
			return err
		}
		if err := checkCliqueCuts(ctx, g, an); err != nil {
			return err
		}
	}
	return nil
}

// checkPresolveAgreement: the sparse engine's presolve and clique-cut
// layers are pure speed — with both on and both off, a proven saturation
// must be identical.
func checkPresolveAgreement(ctx context.Context, g *ddg.Graph, an *rs.Analysis) error {
	base := solver.Options{MaxNodes: 100_000, TimeLimit: 5 * time.Second}
	on, err := rs.ExactILP(ctx, an, true, base)
	if err != nil {
		return fmt.Errorf("gen: %s/%s: presolved solve failed: %w", g.Name, an.Type, err)
	}
	raw := base
	raw.DisablePresolve, raw.DisableCuts = true, true
	off, err := rs.ExactILP(ctx, an, true, raw)
	if err != nil {
		return fmt.Errorf("gen: %s/%s: raw solve failed: %w", g.Name, an.Type, err)
	}
	if on.Exact && off.Exact && on.RS != off.RS {
		return &Violation{Invariant: "presolve-onoff-agree", Graph: g.Name, Type: an.Type,
			Detail: fmt.Sprintf("presolve+cuts proved RS=%d, raw engine proved RS=%d", on.RS, off.RS)}
	}
	return nil
}

// checkCliqueCuts: every never-alive clique the saturation-model builder
// would hint to the solver must hold at an incumbent of the *unmodified*
// model, solved without the cut layer — a direct validity certificate for
// the hinted inequalities.
func checkCliqueCuts(ctx context.Context, g *ddg.Graph, an *rs.Analysis) error {
	m, vars, _, err := rs.BuildSaturationModel(an, true)
	if err != nil {
		return fmt.Errorf("gen: %s/%s: saturation model failed: %w", g.Name, an.Type, err)
	}
	cliques := rs.SaturationCliques(an, vars)
	if len(cliques) == 0 {
		return nil
	}
	sol, err := solver.Solve(ctx, m, solver.Options{
		MaxNodes: 100_000, TimeLimit: 5 * time.Second, DisableCuts: true})
	if err != nil {
		return fmt.Errorf("gen: %s/%s: cut-free solve failed: %w", g.Name, an.Type, err)
	}
	if !sol.Feasible() || sol.AtCutoff {
		return nil
	}
	for ci, c := range cliques {
		sum := 0.0
		for _, v := range c.Vars {
			sum += sol.Value(v)
		}
		if sum > float64(c.RHS)+1e-6 {
			return &Violation{Invariant: "clique-cuts-valid", Graph: g.Name, Type: an.Type,
				Detail: fmt.Sprintf("hinted clique %d %v sums to %g > %d at a cut-free incumbent",
					ci, c.Vars, sum, c.RHS)}
		}
	}
	return nil
}

// checkSerialRemoval: dropping a serial arc only loosens the schedule set,
// so RS (the max over schedules) cannot decrease. Flow arcs are exempt —
// removing one changes the consumer sets, i.e. the program itself.
func checkSerialRemoval(g *ddg.Graph, t ddg.RegType, exactRS int, opt CheckOptions) error {
	bottom := g.Bottom()
	tried := 0
	for idx, e := range g.Edges() {
		if tried >= opt.MaxRemovals {
			break
		}
		if e.Kind != ddg.Serial || e.From == bottom || e.To == bottom {
			continue
		}
		tried++
		without, err := rebuildWithoutEdge(g, idx)
		if err != nil {
			return fmt.Errorf("gen: %s: rebuilding without serial arc %d→%d: %w", g.Name, e.From, e.To, err)
		}
		res, stats, err := exactOf(without, t, opt.MaxExactLeaves)
		if err != nil {
			return fmt.Errorf("gen: %s: exact RS without arc %d→%d: %w", g.Name, e.From, e.To, err)
		}
		if stats.Capped {
			continue
		}
		if res != nil && res.RS < exactRS {
			return &Violation{Invariant: "serial-removal-monotone", Graph: g.Name, Type: t,
				Detail: fmt.Sprintf("RS dropped from %d to %d after removing serial arc %s→%s",
					exactRS, res.RS, g.Node(e.From).Name, g.Node(e.To).Name)}
		}
	}
	return nil
}

// checkHeuristicReduction: a reduction that reports success must deliver
// what it reports — a valid DAG whose arcs reapply cleanly, a (Greedy)
// saturation within budget, and a critical path that did not shrink.
func checkHeuristicReduction(ctx context.Context, g *ddg.Graph, t ddg.RegType, exactRS int) error {
	R := exactRS - 1
	if R < 1 {
		return nil
	}
	fail := func(format string, args ...any) error {
		return &Violation{Invariant: "heuristic-reduction-valid", Graph: g.Name, Type: t,
			Detail: fmt.Sprintf(format, args...)}
	}
	res, err := reduce.Heuristic(ctx, g, t, R)
	if err != nil {
		return fmt.Errorf("gen: %s/%s: heuristic reduction failed: %w", g.Name, t, err)
	}
	if res.Spill {
		return nil
	}
	if res.RS > R {
		return fail("non-spill reduction reports RS %d > budget %d", res.RS, R)
	}
	if err := res.Graph.Validate(); err != nil {
		return fail("reduced graph is invalid: %v", err)
	}
	if res.CPAfter < res.CPBefore {
		return fail("critical path shrank from %d to %d under added arcs", res.CPBefore, res.CPAfter)
	}
	reapplied, err := reduce.ApplyArcs(g, res.Arcs)
	if err != nil {
		return fail("reported arcs do not reapply: %v", err)
	}
	if ir.Fingerprint(reapplied) != ir.Fingerprint(res.Graph) {
		return fail("reapplying the reported arcs yields a different graph")
	}
	return nil
}

// checkExactReduction: the exact reducer's certificate is re-proved — the
// extension it returns must *really* have exact RS ≤ R, not just a Greedy
// estimate ≤ R.
func checkExactReduction(ctx context.Context, g *ddg.Graph, t ddg.RegType, exactRS int, opt CheckOptions) error {
	R := exactRS - 1
	if R < 1 {
		return nil
	}
	res, err := reduce.ExactCombinatorial(ctx, g, t, R, reduce.ExactOptions{MaxNodes: 50_000})
	if err != nil {
		return fmt.Errorf("gen: %s/%s: exact reduction failed: %w", g.Name, t, err)
	}
	if !res.Exact || res.Spill {
		return nil // budget exhausted or genuinely infeasible: nothing claimed
	}
	fail := func(format string, args ...any) error {
		return &Violation{Invariant: "exact-reduction-certifies", Graph: g.Name, Type: t,
			Detail: fmt.Sprintf(format, args...)}
	}
	if err := res.Graph.Validate(); err != nil {
		return fail("certified extension is invalid: %v", err)
	}
	after, stats, err := exactOf(res.Graph, t, opt.MaxExactLeaves)
	if err != nil {
		return fmt.Errorf("gen: %s/%s: exact RS of certified extension: %w", g.Name, t, err)
	}
	if stats.Capped {
		return nil
	}
	if after.RS > R {
		return fail("certified extension has exact RS %d > budget %d", after.RS, R)
	}
	if res.CPAfter < res.CPBefore {
		return fail("critical path shrank from %d to %d under added arcs", res.CPBefore, res.CPAfter)
	}
	return nil
}

// checkSolver ("solver-backends-agree", the catalog name of the MILP
// cross-check): the engine solves the intLP without numerical trouble
// (Stats.Fallbacks == 0), never reports an achieved RS above its own proven
// upper bound, and relates to the combinatorial exact search by machine:
// equality on superscalar; on offset machines the intLP (which maximizes
// over all schedules) may strictly exceed ExactBB (which excludes killings
// whose enforcement arcs form non-positive circuits), so only
// ILP ≥ combinatorial is required. A capped solve's interval must contain
// the combinatorial answer on that same relation.
func checkSolver(ctx context.Context, g *ddg.Graph, an *rs.Analysis, exactRS int) error {
	res, err := rs.ComputeWithAnalysis(ctx, an, rs.Options{
		Method:          rs.MethodExactILP,
		ApplyReductions: true,
		SkipWitness:     true,
		Solver:          solver.Options{MaxNodes: 100_000, TimeLimit: 5 * time.Second},
	})
	if err != nil {
		return fmt.Errorf("gen: %s/%s: intLP solve failed: %w", g.Name, an.Type, err)
	}
	fail := func(format string, args ...any) error {
		return &Violation{Invariant: "solver-backends-agree", Graph: g.Name, Type: an.Type,
			Detail: fmt.Sprintf(format, args...)}
	}
	if st := res.SolverStats; st != nil && st.Fallbacks != 0 {
		return fail("%d numerical-trouble recoveries (want none on the paper's models)", st.Fallbacks)
	}
	if res.RS > res.ILPUpperBound {
		return fail("achieved %d above own proven upper bound %d", res.RS, res.ILPUpperBound)
	}
	switch {
	case res.ILPUpperBound < exactRS:
		return fail("proven upper bound %d below the combinatorial exact %d", res.ILPUpperBound, exactRS)
	case !res.Exact:
		if !g.Machine.HasOffsets() && res.RS > exactRS {
			return fail("capped interval [%d, %d] misses the combinatorial exact %d", res.RS, res.ILPUpperBound, exactRS)
		}
	case g.Machine.HasOffsets():
		if res.RS < exactRS {
			return fail("proved RS=%d below the combinatorial lower bound %d", res.RS, exactRS)
		}
	case res.RS != exactRS:
		return fail("proved RS=%d, combinatorial exact is %d", res.RS, exactRS)
	}
	return nil
}

// exactOf computes the exact RS of a finalized graph, tolerating types the
// graph does not write (nil result).
func exactOf(g *ddg.Graph, t ddg.RegType, maxLeaves int64) (*rs.RSResult, *rs.ExactStats, error) {
	an, err := rs.NewAnalysis(g, t)
	if err != nil {
		return nil, nil, err
	}
	if len(an.Values) == 0 {
		return nil, &rs.ExactStats{}, nil
	}
	return rs.ExactBB(an, maxLeaves)
}

// rebuildWithoutEdge reconstructs g's pre-finalize structure minus the edge
// at index drop, then finalizes. Bottom-incident edges are regenerated by
// Finalize, so the result is a well-formed DDG differing from g by exactly
// the dropped arc.
func rebuildWithoutEdge(g *ddg.Graph, drop int) (*ddg.Graph, error) {
	return rebuild(g, func(i int, e ddg.Edge) bool { return i == drop })
}

// rebuild copies g's pre-finalize structure, skipping edges for which skip
// returns true, and finalizes the copy.
func rebuild(g *ddg.Graph, skip func(i int, e ddg.Edge) bool) (*ddg.Graph, error) {
	bottom := g.Bottom()
	limit := g.NumNodes()
	if bottom >= 0 {
		limit = bottom
	}
	out := ddg.New(g.Name+"-rebuilt", g.Machine)
	for i := 0; i < limit; i++ {
		n := g.Node(i)
		id := out.AddNode(n.Name, n.Op, n.Latency)
		if n.DelayR != 0 {
			out.SetReadDelay(id, n.DelayR)
		}
		for _, w := range n.Writes {
			out.SetWrites(id, w.Type, w.DelayW)
		}
	}
	for i, e := range g.Edges() {
		if e.From >= limit || e.To >= limit || skip(i, e) {
			continue
		}
		if e.Kind == ddg.Flow {
			out.AddFlowEdgeLatency(e.From, e.To, e.Type, e.Latency)
		} else {
			out.AddSerialEdge(e.From, e.To, e.Latency)
		}
	}
	if err := out.Finalize(); err != nil {
		return nil, err
	}
	return out, nil
}
