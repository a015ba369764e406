package reduce

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"regsat/internal/ddg"
	"regsat/internal/ilp"
	"regsat/internal/interference"
	"regsat/internal/lp"
	"regsat/internal/rs"
	"regsat/internal/schedule"
	"regsat/internal/solver"
)

// ILPOptions configures the Section 4 exact intLP reduction.
type ILPOptions struct {
	// Solver bounds the MILP solve.
	Solver solver.Options
	// ApplyReductions enables the Section 3 model optimizations.
	ApplyReductions bool
	// GuaranteeDAG adds the topological-sort machinery (π ordering
	// variables) that excludes optimal solutions whose serialization arcs
	// would close non-positive circuits. Only meaningful for VLIW/EPIC
	// targets — superscalar serialization arcs carry latency 1 and can
	// never close a circuit.
	GuaranteeDAG bool
	// MakespanBound, when positive, adds σ_⊥ ≤ P (the decision variant of
	// Definition 4.1 used by tests).
	MakespanBound int64
}

// ExactILP solves the Section 4 intLP: keep the interference core of
// Section 3, drop the independent-set part, and instead color the
// interference graph with exactly R_t registers,
//
//	Σ_i x^i_{u^t} = 1                      (one register per value)
//	s_{u,v} = 1 ⇒ x^i_u + x^i_v ≤ 1, ∀i   (interfering values differ)
//	minimize σ_⊥
//
// then insert the Theorem 4.2 serialization arcs of the solved schedule.
// An infeasible system means spilling is unavoidable.
//
// When the value-serialization heuristic already finds a reduction, its
// makespan seeds the solver as an incumbent cutoff (the σ_⊥ the MILP must
// beat or match), after checking the heuristic schedule really is a feasible
// point of the widened-interference coloring model.
func ExactILP(ctx context.Context, g *ddg.Graph, t ddg.RegType, available int, opt ILPOptions) (*Result, error) {
	an, err := rs.NewAnalysis(g, t)
	if err != nil {
		return nil, err
	}
	exactRS, err := quickExactRS(ctx, an)
	if err != nil {
		return nil, err
	}
	if exactRS <= available && opt.MakespanBound == 0 {
		return unchanged(g, exactRS, true), nil
	}
	if available < 1 {
		r := unchanged(g, exactRS, true)
		r.Spill = true
		return r, nil
	}

	m, core, colors, err := coloringModel(g, t, an, available, opt)
	if err != nil {
		return nil, err
	}

	sopt := opt.Solver
	if sopt.Hints == nil && !sopt.DisableCuts {
		// Thread the always-interfering clique structure down to the
		// solver's cut layer: values forced to overlap in every schedule
		// must take pairwise distinct registers, so each clique admits at
		// most one member per color. The solver derives it only when the
		// root LP leaves the solve open.
		sopt.Hints = &solver.Hints{Cliques: func() []solver.Clique {
			return coloringCliques(an, core, colors, StrictSlack(g))
		}}
	}
	var heurSched *schedule.Schedule
	if sopt.Cutoff == nil {
		// Incumbent seeding: the heuristic reduction's makespan is a valid
		// upper bound on the optimal σ_⊥ whenever its schedule is provably a
		// feasible point of this model; the solver then looks only for
		// strictly shorter schedules. The π-ordering variant adds acyclicity
		// constraints the quick check cannot certify, so seeding is skipped
		// there.
		if !(opt.GuaranteeDAG && g.Machine.HasOffsets()) {
			if hs, cut, ok := heuristicMakespanBound(ctx, g, t, an, available, StrictSlack(g)); ok {
				if opt.MakespanBound <= 0 || cut <= float64(opt.MakespanBound) {
					heurSched = hs
					sopt.Cutoff = solver.CutoffAt(cut)
					sopt.ExclusiveCutoff = true
				}
			}
		}
	}
	sol, err := solver.Solve(ctx, m, sopt)
	if err != nil {
		return nil, fmt.Errorf("reduce: intLP for %s/%s: %w", g.Name, t, err)
	}
	switch sol.Status {
	case lp.StatusOptimal, lp.StatusFeasible:
	case lp.StatusInfeasible:
		r := unchanged(g, exactRS, true)
		r.Spill = true
		return r, nil
	default:
		return nil, fmt.Errorf("reduce: intLP for %s/%s: %v", g.Name, t, sol.Status)
	}

	var sched *schedule.Schedule
	if sol.AtCutoff {
		// No schedule strictly shorter than the heuristic's exists: the
		// heuristic schedule (a verified feasible point of this model) is
		// the optimum.
		if heurSched == nil {
			// The exclusive cutoff came from the caller, not from our own
			// seeding: there is no held schedule to fall back on.
			return nil, fmt.Errorf("reduce: intLP for %s/%s: optimum equals the caller's cutoff %g; no schedule available",
				g.Name, t, sol.Obj)
		}
		sched = heurSched
	} else {
		times := make([]int64, g.NumNodes())
		for u, sv := range core.Sigma {
			times[u] = sol.IntValue(sv)
		}
		sched = schedule.New(g, times)
	}
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("reduce: intLP schedule invalid: %w", err)
	}
	if rn := sched.RegisterNeed(t); rn > available {
		return nil, fmt.Errorf("reduce: intLP schedule needs %d > %d registers", rn, available)
	}
	arcs := SerializationArcs(an.IR, t, sched)
	ext, err := ApplyArcs(g, arcs)
	if err != nil {
		return nil, err
	}
	extAn, err := rs.NewAnalysis(ext, t)
	if err != nil {
		return nil, err
	}
	extRS, err := quickExactRS(ctx, extAn)
	if err != nil {
		return nil, err
	}
	if extRS > available {
		return nil, fmt.Errorf("reduce: intLP extension has RS=%d > R=%d", extRS, available)
	}
	stats := sol.Stats
	return &Result{
		Graph:       ext,
		Arcs:        arcs,
		RS:          extRS,
		CPBefore:    g.CriticalPath(),
		CPAfter:     ext.CriticalPath(),
		Schedule:    sched,
		Exact:       sol.Status == lp.StatusOptimal,
		SolverStats: &stats,
	}, nil
}

// ColoringModel builds the Section 4 intLP that ExactILP solves for
// reducing g's type-t saturation to available registers (for rendering or
// cross-checking with an external solver).
func ColoringModel(g *ddg.Graph, t ddg.RegType, available int, opt ILPOptions) (*lp.Model, error) {
	an, err := rs.NewAnalysis(g, t)
	if err != nil {
		return nil, err
	}
	m, _, _, err := coloringModel(g, t, an, available, opt)
	return m, err
}

// coloringModel builds the Section 4 intLP for reducing g's type-t
// saturation to available registers: the Section 3 interference core, the
// coloring variables colors[i][c] and rows, the optional π ordering, and
// the σ_⊥ objective.
func coloringModel(g *ddg.Graph, t ddg.RegType, an *rs.Analysis, available int, opt ILPOptions) (*lp.Model, *rs.CoreVars, [][]lp.Var, error) {
	m := lp.NewModel("ReduceRS("+g.Name+","+string(t)+",R="+strconv.Itoa(available)+")", lp.Minimize)
	// On zero-offset machines the latency-1 serialization arcs require
	// strictly separated lifetimes, so the interference test is widened by
	// one cycle (see rs.BuildCore).
	core, _, err := rs.BuildCore(an, opt.ApplyReductions, StrictSlack(g), m)
	if err != nil {
		return nil, nil, nil, err
	}
	nv := len(an.Values)

	// Coloring variables: x^c_i, one register c per value i.
	colors := make([][]lp.Var, nv)
	colorVars := make([]lp.Var, nv*available)
	terms := make([]lp.Term, available)
	for i := 0; i < nv; i++ {
		colors[i] = colorVars[i*available : (i+1)*available : (i+1)*available]
		name := "(" + g.Node(an.Values[i]).Name + ")"
		for c := 0; c < available; c++ {
			colors[i][c] = m.NewBinary("x" + strconv.Itoa(c) + name)
			terms[c] = lp.Term{Var: colors[i][c], Coef: 1}
		}
		m.AddConstr(terms, lp.EQ, 1)
	}
	// Interfering values cannot share a register: x^c_i + x^c_j ≤ 2 − s_{ij}.
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			s, ok := core.S(i, j)
			if !ok {
				continue // statically disjoint lifetimes: any colors work
			}
			for c := 0; c < available; c++ {
				m.AddConstr([]lp.Term{
					{Var: colors[i][c], Coef: 1},
					{Var: colors[j][c], Coef: 1},
					{Var: s, Coef: 1},
				}, lp.LE, 2)
			}
		}
	}

	// Topological-sort guarantee (VLIW/EPIC): ordering variables π with
	// π_v ≥ π_u + 1 along original edges, and whenever LT_i ≺ LT_j (the
	// half-interference binary h_{i→j} is 0), the would-be serialization
	// arcs must also respect π.
	if opt.GuaranteeDAG && g.Machine.HasOffsets() {
		n := g.NumNodes()
		pi := make([]lp.Var, n)
		for u := 0; u < n; u++ {
			pi[u] = m.NewVar(0, float64(n-1), true, "pi("+g.Node(u).Name+")")
		}
		for _, e := range g.Edges() {
			ilp.GE(m, ilp.Diff(pi[e.To], pi[e.From], -1))
		}
		for i := 0; i < nv; i++ {
			for j := 0; j < nv; j++ {
				if i == j {
					continue
				}
				h, ok := core.H(i, j)
				if !ok {
					continue // statically handled pair
				}
				for _, a := range ValueSerializationArcs(g, t, an.Values[i], an.Values[j]) {
					if a.From == a.To {
						continue
					}
					// h_{i→j} = 0 (i.e. LT_i ≺ LT_j) ⇒ π_to ≥ π_from + 1.
					ilp.ImpliesGEWhenZero(m, h, ilp.Diff(pi[a.To], pi[a.From], -1))
				}
			}
		}
	}

	// Objective: minimize the total schedule time σ_⊥.
	m.SetObjCoef(core.Sigma[g.Bottom()], 1)
	if opt.MakespanBound > 0 {
		m.AddConstr([]lp.Term{{Var: core.Sigma[g.Bottom()], Coef: 1}}, lp.LE, float64(opt.MakespanBound))
	}
	return m, core, colors, nil
}

// coloringCliques derives the always-interfere clique hints of the Section 4
// coloring model: for pairs that still carry an interference binary, both
// half-interference directions forced by the precedence structure
// (rs.ForcedInterference) pin s_{ij} = 1 in every feasible point, so the
// members of a clique of that relation must take pairwise distinct
// registers — per color c, Σ_{i∈C} x^c_i ≤ 1.
func coloringCliques(an *rs.Analysis, core *rs.CoreVars, colors [][]lp.Var, slack int64) []solver.Clique {
	nv := len(an.Values)
	if nv < 3 {
		return nil
	}
	adj := make([]bool, nv*nv)
	any := false
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			if core.NeverAlive(i, j) {
				continue // no s variable, no col rows: colors may coincide
			}
			if an.ForcedInterference(i, j, slack) && an.ForcedInterference(j, i, slack) {
				adj[i*nv+j] = true
				adj[j*nv+i] = true
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	cliques := interference.MaximalCliques(nv,
		func(i, j int) bool { return adj[i*nv+j] }, 3, 16)
	var out []solver.Clique
	for _, c := range cliques {
		for reg := range colors[0] {
			cl := solver.Clique{Vars: make([]lp.Var, len(c)), RHS: 1}
			for k, i := range c {
				cl.Vars[k] = colors[i][reg]
			}
			out = append(out, cl)
		}
	}
	return out
}

// heuristicMakespanBound runs the value-serialization heuristic and, when
// its reduction yields a schedule that is certifiably a feasible point of
// the Section 4 coloring model — every σ_u inside its window and the
// widened-interference graph of the schedule colorable with ≤ R registers —
// returns that schedule (over the original graph) and its makespan as an
// achievable objective value.
func heuristicMakespanBound(ctx context.Context, g *ddg.Graph, t ddg.RegType, an *rs.Analysis, R int, slack int64) (*schedule.Schedule, float64, bool) {
	red, err := heuristicOf(ctx, an, R)
	if err != nil || red.Spill {
		return nil, 0, false
	}
	s, err := schedule.ASAP(red.Graph)
	if err != nil {
		return nil, 0, false
	}
	// The extension only adds arcs, so s is a valid schedule of g; it still
	// must fit the model's [ASAP, ALAP(T)] windows over the ORIGINAL graph.
	lo, hi, err := schedule.WindowsIR(an.IR, g.Horizon())
	if err != nil {
		return nil, 0, false
	}
	for u := 0; u < g.NumNodes(); u++ {
		if s.Times[u] < lo[u] || s.Times[u] > hi[u] {
			return nil, 0, false
		}
	}
	// Widened lifetime intervals: value i occupies [birth_i+1−slack, k_i];
	// the model's interference graph of s is this closed-interval graph, an
	// interval graph whose chromatic number is its max overlap.
	type ev struct {
		at    int64
		delta int
	}
	var events []ev
	for i, u := range an.Values {
		birth := s.Times[u] + an.DelayW(i)
		kill := int64(-1) << 62
		for _, v := range an.Cons[i] {
			if r := s.Times[v] + g.Node(v).DelayR; r > kill {
				kill = r
			}
		}
		start := birth + 1 - slack
		if kill < start {
			continue // never widened-alive: interferes with nothing
		}
		events = append(events, ev{start, +1}, ev{kill + 1, -1})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].delta < events[b].delta // close before open at ties
	})
	cur, peak := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	if peak > R {
		return nil, 0, false
	}
	return schedule.New(g, s.Times), float64(s.Times[g.Bottom()]), true
}

func quickExactRS(ctx context.Context, an *rs.Analysis) (int, error) {
	res, err := rs.ComputeWithAnalysis(ctx, an, rs.Options{Method: rs.MethodExactBB, SkipWitness: true})
	if err != nil {
		return 0, err
	}
	return res.RS, nil
}
