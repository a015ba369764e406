package rs

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"regsat/internal/ddg"
	"regsat/internal/graph"
	"regsat/internal/ilp"
	"regsat/internal/interference"
	"regsat/internal/lp"
	"regsat/internal/schedule"
	"regsat/internal/solver"
)

// ILPInfo reports the size of the constructed intLP system — the paper's
// headline complexity claim is O(n²) integer variables and O(m + n²) linear
// constraints (Section 3).
type ILPInfo struct {
	Vars, IntVars, Constrs int
	// RedundantArcs is the number of scheduling constraints dropped by the
	// first model optimization of Section 3.
	RedundantArcs int
	// NeverAlivePairs is the number of interference variables dropped by
	// the second model optimization (values that can never be
	// simultaneously alive).
	NeverAlivePairs int
}

// CoreVars are the variables shared by the Section 3 (saturation) and
// Section 4 (reduction) intLP systems: scheduling times, killing dates, and
// pairwise interference binaries.
type CoreVars struct {
	// Sigma[u] is σ_u for every node u.
	Sigma []lp.Var
	// Kill[i] is k of value i (index into Analysis.Values).
	Kill []lp.Var
	// nv is the number of values; s and h are nv×nv row-major matrices
	// holding -1 where a pair has no variable.
	nv   int
	s, h []lp.Var
}

// S returns the interference binary s_{i,j} (i < j) and whether the pair
// has one; pairs marked NeverAlive have none.
func (c *CoreVars) S(i, j int) (lp.Var, bool) {
	v := c.s[i*c.nv+j]
	return v, v >= 0
}

// H returns the half-interference binary h_{i→j} (ordered pair)
// ⇔ (k_i > σ_vj + δw(j)), i.e. ¬(LT_i ≺ LT_j), and whether the pair has one.
func (c *CoreVars) H(i, j int) (lp.Var, bool) {
	v := c.h[i*c.nv+j]
	return v, v >= 0
}

// NeverAlive reports whether values i < j are statically known to never be
// simultaneously alive (the second model optimization): such pairs get no
// S/H variables.
func (c *CoreVars) NeverAlive(i, j int) bool { return c.s[i*c.nv+j] < 0 }

// BuildCore adds to m the Section 3 constraint core for the given analysis:
// bounded scheduling variables with precedence constraints, killing dates as
// linearized max operators, and the interference equivalence
// s_{u,v} ⇔ ¬(LT_u ≺ LT_v) ∧ ¬(LT_v ≺ LT_u). When reduceModel is set, the
// paper's two model optimizations are applied.
//
// strictSlack widens the interference test: a pair counts as interfering
// already when one value dies within strictSlack cycles of the other's
// birth. Saturation (Section 3) always uses 0 (the exact left-open overlap);
// the Section 4 reduction on zero-offset machines uses 1, because its
// latency-1 serialization arcs can only realize strictly separated
// lifetimes.
func BuildCore(an *Analysis, reduceModel bool, strictSlack int64, m *lp.Model) (*CoreVars, *ILPInfo, error) {
	g := an.G
	T := g.Horizon()
	lo, hi, err := schedule.WindowsIR(an.IR, T)
	if err != nil {
		return nil, nil, err
	}
	nv := len(an.Values)
	pairs := make([]lp.Var, 2*nv*nv)
	for i := range pairs {
		pairs[i] = -1
	}
	vars := &CoreVars{
		Sigma: make([]lp.Var, g.NumNodes()),
		Kill:  make([]lp.Var, nv),
		nv:    nv,
		s:     pairs[:nv*nv],
		h:     pairs[nv*nv:],
	}
	info := &ILPInfo{}

	// Scheduling variables σ_u ∈ [ASAP_u, ALAP_u(T)].
	for u := range vars.Sigma {
		vars.Sigma[u] = m.NewVar(float64(lo[u]), float64(hi[u]), true, "sigma("+g.Node(u).Name+")")
	}

	// Precedence constraints, optionally dropping redundant arcs.
	var skip []bool
	if reduceModel {
		red := an.IR.RedundantEdges()
		skip = make([]bool, g.NumEdges())
		for _, ei := range red {
			skip[ei] = true
		}
		info.RedundantArcs = len(red)
	}
	for ei, e := range g.Edges() {
		if skip != nil && skip[ei] {
			continue
		}
		ilp.GE(m, ilp.Diff(vars.Sigma[e.To], vars.Sigma[e.From], float64(-e.Latency)))
	}

	// Killing dates: k_i = max over consumers of σ_v + δr(v). MaxEquals
	// keeps none of its expressions, so one buffer serves every value.
	maxCons := 0
	for _, cons := range an.Cons {
		maxCons = max(maxCons, len(cons))
	}
	exprBuf, termBuf := make([]ilp.Expr, maxCons), make([]lp.Term, maxCons)
	for i, u := range an.Values {
		cons := an.Cons[i]
		kloVal, khiVal := int64(-1)<<62, int64(-1)<<62
		for _, v := range cons {
			if r := lo[v] + g.Node(v).DelayR; r > kloVal {
				kloVal = r
			}
			if r := hi[v] + g.Node(v).DelayR; r > khiVal {
				khiVal = r
			}
		}
		name := g.Node(u).Name
		kv := m.NewVar(float64(kloVal), float64(khiVal), true, "kill("+name+")")
		vars.Kill[i] = kv
		exprs, terms := exprBuf[:len(cons)], termBuf[:len(cons)]
		for ci, v := range cons {
			terms[ci] = lp.Term{Var: vars.Sigma[v], Coef: 1}
			exprs[ci] = ilp.Expr{Terms: terms[ci : ci+1 : ci+1], Const: float64(g.Node(v).DelayR)}
		}
		ilp.MaxEquals(m, kv, exprs, "killmax("+name+")")
	}

	// Interference equivalences per value pair.
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			if reduceModel && (an.neverAlive(i, j) || an.neverAlive(j, i)) {
				info.NeverAlivePairs++
				continue
			}
			ui, uj := an.Values[i], an.Values[j]
			pair := strconv.Itoa(i) + "," + strconv.Itoa(j) + ")"
			// h_{i→j} ⇔ k_i − σ_uj − δw(j) − 1 + strictSlack ≥ 0
			// (k_i > birth of j, strengthened by the machine slack).
			h1 := ilp.IffGE(m, ilp.Diff(vars.Kill[i], vars.Sigma[uj], float64(-an.DelayW(j)-1+strictSlack)),
				"h("+pair)
			h2 := ilp.IffGE(m, ilp.Diff(vars.Kill[j], vars.Sigma[ui], float64(-an.DelayW(i)-1+strictSlack)),
				"h("+strconv.Itoa(j)+","+strconv.Itoa(i)+")")
			vars.h[i*nv+j] = h1
			vars.h[j*nv+i] = h2
			vars.s[i*nv+j] = ilp.AndBinary(m, h1, h2, "s("+pair)
		}
	}
	return vars, info, nil
}

// ILPVars exposes the saturation-model variables.
type ILPVars struct {
	*CoreVars
	// X[i] is the independent-set binary of value i.
	X []lp.Var
}

// BuildSaturationModel constructs the Section 3 intLP for RS_t(G):
//
//	maximize Σ x_{u^t}
//	s.t.     the interference core (BuildCore), and
//	         s_{u,v} = 0 ⇒ x_u + x_v ≤ 1   (independent set in H′_t)
func BuildSaturationModel(an *Analysis, reduceModel bool) (*lp.Model, *ILPVars, *ILPInfo, error) {
	m := lp.NewModel(saturationModelName(an), lp.Maximize)
	vars, info, err := buildSaturationModel(an, reduceModel, m)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, vars, info, nil
}

func saturationModelName(an *Analysis) string {
	return "RS(" + an.G.Name + "," + string(an.Type) + ")"
}

// modelPool recycles the models ExactILP builds: a model's arenas are most
// of a cold solve's model-building allocation. Everything in it was
// released by releaseModel and is owned by nobody.
var modelPool = sync.Pool{New: func() any { return new(lp.Model) }}

// testHookReleaseModel, when set, sees every model releaseModel pools.
// Tests use it to poison released storage; it is nil in production.
var testHookReleaseModel func(m *lp.Model)

// releaseModel returns m to the pool. Nothing may touch m afterwards.
func releaseModel(m *lp.Model) {
	if testHookReleaseModel != nil {
		testHookReleaseModel(m)
	}
	modelPool.Put(m)
}

// buildSaturationModel adds the Section 3 intLP for RS_t(G) to m, an empty
// maximization model (see BuildSaturationModel).
func buildSaturationModel(an *Analysis, reduceModel bool, m *lp.Model) (*ILPVars, *ILPInfo, error) {
	core, info, err := BuildCore(an, reduceModel, 0, m)
	if err != nil {
		return nil, nil, err
	}
	vars := &ILPVars{CoreVars: core, X: make([]lp.Var, len(an.Values))}
	for i, u := range an.Values {
		vars.X[i] = m.NewBinary("x(" + an.G.Node(u).Name + ")")
	}
	for i := 0; i < len(an.Values); i++ {
		for j := i + 1; j < len(an.Values); j++ {
			s, ok := core.S(i, j)
			if !ok {
				// s is statically 0: emit the IS constraint directly.
				m.AddConstr([]lp.Term{{Var: vars.X[i], Coef: 1}, {Var: vars.X[j], Coef: 1}}, lp.LE, 1)
				continue
			}
			// s = 0 ⇒ x_i + x_j ≤ 1, linearized as x_i + x_j ≤ 1 + s.
			m.AddConstr([]lp.Term{
				{Var: vars.X[i], Coef: 1}, {Var: vars.X[j], Coef: 1}, {Var: s, Coef: -1},
			}, lp.LE, 1)
		}
	}
	for _, x := range vars.X {
		m.SetObjCoef(x, 1)
	}
	info.Vars = m.NumVars()
	info.IntVars = m.NumIntVars()
	info.Constrs = m.NumConstrs()
	return vars, info, nil
}

// neverAlive implements the second Section 3 optimization: value j can never
// be alive together with value i if every consumer of value i reads before
// value j is defined in all schedules: ∀v′ ∈ Cons(i): lp(v′, u_j) ≥
// δr(v′) − δw(j).
func (an *Analysis) neverAlive(i, j int) bool {
	uj := an.Values[j]
	for _, vp := range an.Cons[i] {
		lpw := an.AP.Path(vp, uj)
		if lpw == graph.NoPath {
			return false
		}
		if lpw < an.G.Node(vp).DelayR-an.DelayW(j) {
			return false
		}
	}
	return true
}

// ForcedInterference reports a static sufficient condition for the
// half-interference binary h_{i→j} to be 1 in every feasible point of the
// intLP core: some consumer v of value i lies on a path from u_j, so
// k_i ≥ σ_v + δr(v) ≥ σ_{u_j} + lp(u_j, v) + δr(v) in every schedule the
// precedence constraints admit, and when lp(u_j, v) + δr(v) ≥
// δw(j) + 1 − strictSlack that makes the IffGE body nonnegative always.
// Pairs forced in both directions have s_{ij} = 1 in every feasible point
// (the interference AND-link), i.e. they always interfere.
func (an *Analysis) ForcedInterference(i, j int, strictSlack int64) bool {
	uj := an.Values[j]
	for _, v := range an.Cons[i] {
		lpw := an.AP.Path(uj, v)
		if lpw == graph.NoPath {
			continue
		}
		if lpw+an.G.Node(v).DelayR >= an.DelayW(j)+1-strictSlack {
			return true
		}
	}
	return false
}

// SaturationCliques derives the clique cuts of the saturation model from
// the never-alive relation: any two values that can never be simultaneously
// alive exclude each other from the maximal antichain (the is0/is rows
// enforce the pairs one by one), so for a clique C of the relation
// Σ_{i∈C} x_i ≤ 1 is valid for every integer-feasible point — a much
// tighter LP statement than the pairwise rows. The cliques come from
// interference.MaximalCliques and are deterministic for a given analysis.
func SaturationCliques(an *Analysis, vars *ILPVars) []solver.Clique {
	n := len(an.Values)
	if n < 3 {
		return nil
	}
	adj := make([]bool, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if an.neverAlive(i, j) || an.neverAlive(j, i) {
				adj[i*n+j] = true
				adj[j*n+i] = true
			}
		}
	}
	cliques := interference.MaximalCliques(n,
		func(i, j int) bool { return adj[i*n+j] }, 3, 64)
	out := make([]solver.Clique, 0, len(cliques))
	for _, c := range cliques {
		cl := solver.Clique{Vars: make([]lp.Var, len(c)), RHS: 1}
		for k, i := range c {
			cl.Vars[k] = vars.X[i]
		}
		out = append(out, cl)
	}
	return out
}

// ILPResult is the outcome of the exact intLP computation.
type ILPResult struct {
	RS        int
	Antichain []int // node IDs with x = 1
	Witness   *schedule.Schedule
	Exact     bool // false if a search limit was hit (RS is then a lower bound)
	// UpperBound is the solver's proven dual bound: when Exact is false the
	// true saturation lies in the interval [RS, UpperBound] (the intLP
	// analogue of ExactStats.Capped reporting).
	UpperBound int
	Info       *ILPInfo
	Nodes      int // branch-and-bound nodes explored
	// Stats is the MILP solve's work accounting.
	Stats solver.Stats
}

// ExactILP computes RS_t(G) with the paper's intLP formulation, solved by
// the MILP engine under the limits in opt. The search is seeded with
// Greedy-k's valid killing-function bound — an objective value some
// schedule provably achieves — so subtrees that cannot reach it are pruned
// before the first incumbent. Cancelling ctx interrupts an in-flight solve.
func ExactILP(ctx context.Context, an *Analysis, reduceModel bool, opt solver.Options) (*ILPResult, error) {
	return exactILP(ctx, an, reduceModel, opt, true)
}

// exactILP is ExactILP; without witness, an answer resting on the greedy
// seed carries no saturating schedule (the seed's is not built), while
// the solver's own σ is still decoded and validated on every answer that
// has one. The model is built into a pooled lp.Model, released when the
// solve returns.
func exactILP(ctx context.Context, an *Analysis, reduceModel bool, opt solver.Options, witness bool) (*ILPResult, error) {
	m := modelPool.Get().(*lp.Model)
	defer releaseModel(m)
	m.Reset(saturationModelName(an), lp.Maximize)
	vars, info, err := buildSaturationModel(an, reduceModel, m)
	if err != nil {
		return nil, err
	}
	if opt.Hints == nil && !opt.DisableCuts {
		// Thread the never-alive clique structure down to the solver's cut
		// layer, so it never re-derives graph facts from the matrix. The
		// solver derives it only when the root LP leaves the solve open.
		opt.Hints = &solver.Hints{Cliques: func() []solver.Clique { return SaturationCliques(an, vars) }}
	}
	var seed *RSResult
	if opt.Cutoff == nil {
		if g, err := Greedy(an); err == nil {
			// Greedy's killing function is valid, so RS* is achievable: seed
			// it as a held incumbent and search only for strictly more
			// simultaneously-alive values.
			seed = g
			opt.Cutoff = solver.CutoffAt(float64(g.RS))
			opt.ExclusiveCutoff = true
		}
	}
	sol, err := solver.Solve(ctx, m, opt)
	if err != nil {
		return nil, fmt.Errorf("rs: intLP for %s/%s: %w", an.G.Name, an.Type, err)
	}
	res := &ILPResult{Info: info, Stats: sol.Stats, Nodes: int(sol.Stats.Nodes)}
	// |VR| values can never need more than |VR| registers: cap the reported
	// upper bound by the trivial one.
	clamp := func() {
		if nv := len(an.Values); res.UpperBound > nv {
			res.UpperBound = nv
		}
	}
	defer clamp()
	// fromSeed finishes the result from the greedy seed (whose killing
	// function is valid, so its RS, antichain, and saturating schedule are
	// all achievable).
	fromSeed := func(exact bool) (*ILPResult, error) {
		res.RS = seed.RS
		res.Exact = exact
		res.UpperBound = boundToInt(sol.Bound, res.RS, exact)
		res.Antichain = append([]int(nil), seed.Antichain...)
		if !witness {
			return res, nil
		}
		w, err := SaturatingSchedule(seed)
		if err != nil {
			return nil, err
		}
		res.Witness = w
		return res, nil
	}
	if sol.AtCutoff && seed != nil {
		// Nothing beats the greedy bound: it is the saturation (proved when
		// the tree was exhausted); the greedy antichain and witness stand.
		return fromSeed(sol.Status == lp.StatusOptimal)
	}
	switch sol.Status {
	case lp.StatusOptimal, lp.StatusFeasible:
		if sol.X == nil {
			// AtCutoff with a caller-supplied exclusive cutoff: no
			// assignment to decode a witness from.
			return nil, fmt.Errorf("rs: intLP for %s/%s: optimum equals the caller's cutoff %g; no witness available",
				an.G.Name, an.Type, sol.Obj)
		}
		res.RS = int(sol.Obj + 0.5)
		res.Exact = sol.Status == lp.StatusOptimal
		res.UpperBound = boundToInt(sol.Bound, res.RS, res.Exact)
		for i, x := range vars.X {
			if sol.IntValue(x) == 1 {
				res.Antichain = append(res.Antichain, an.Values[i])
			}
		}
		times := make([]int64, an.G.NumNodes())
		for u, sv := range vars.Sigma {
			times[u] = sol.IntValue(sv)
		}
		w := schedule.New(an.G, times)
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("rs: intLP witness invalid: %w", err)
		}
		res.Witness = w
		return res, nil
	case lp.StatusLimit:
		// Capped before any incumbent: fall back to the greedy seed, which
		// is a valid achievable lower bound, and report the interval.
		if seed == nil {
			if seed, err = Greedy(an); err != nil {
				return nil, fmt.Errorf("rs: intLP for %s/%s capped with no incumbent: %w",
					an.G.Name, an.Type, err)
			}
		}
		return fromSeed(false)
	default:
		return nil, fmt.Errorf("rs: intLP for %s/%s: %v", an.G.Name, an.Type, sol.Status)
	}
}

// boundToInt converts the solver's dual bound on the (integral) saturation
// objective to an integer upper bound, never below the achieved value.
func boundToInt(bound float64, achieved int, exact bool) int {
	if exact {
		return achieved
	}
	if math.IsInf(bound, 0) || math.IsNaN(bound) {
		return int(^uint(0) >> 1) // unknown: everything is possible
	}
	ub := int(math.Floor(bound + 1e-6))
	if ub < achieved {
		ub = achieved
	}
	return ub
}

// TimeIndexedStats counts the variables and constraints a classic
// time-indexed formulation (x_{u,τ} issue binaries, per-cycle liveness and
// register-pressure rows) would need for the same instance — the literature
// baseline the paper's O(n²)/O(m+n²) claim is measured against.
func TimeIndexedStats(g *ddg.Graph, t ddg.RegType) (vars, constrs int64) {
	T := g.Horizon()
	n := int64(g.NumNodes())
	m := int64(g.NumEdges())
	nv := int64(len(g.Values(t)))
	vars = n*T + nv*T            // issue binaries + liveness binaries
	constrs = n + m*T + nv*T + T // assignment + precedence + liveness linking + pressure rows
	return vars, constrs
}
