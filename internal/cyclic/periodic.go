package cyclic

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"regsat/internal/ddg"
	"regsat/internal/lp"
	"regsat/internal/obs"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// The exact periodic formulation. A periodic schedule with initiation
// interval II issues operation u of iteration i at x_u + II·i; the value
// u^t of iteration i is written at x_u + δw + II·i and dies at its last
// read. Steady-state register pressure at kernel position τ ∈ [0,II) counts,
// over all values u and iteration offsets j, the copies alive at instant
// τ + II·j (lifetimes are the acyclic engine's left-open intervals
// ]write, last read], so the two models count the same sets). The MILP
// maximizes the peak over τ — the periodic register saturation PRS(II).
//
// Certification against the unrolled windows rests on two provable
// containments (docs/CYCLIC.md):
//
//	PRS(II) ≤ RS(k)  for every window k ≥ Jmax   (upper sandwich)
//	PRS(II_big) ≥ RS(1)  once II exceeds the one-iteration horizon
//
// where Jmax bounds how many copies of one value overlap. The CI cyclic
// suite enforces both with zero tolerance on every generated kernel.

// DefaultMaxAliveBinaries bounds the periodic model: values·II·Jmax alive
// binaries beyond this refuse to build rather than hang the solver.
const DefaultMaxAliveBinaries = 4096

// maxCertifyJmax bounds the window extension certify() is willing to verify
// containment against.
const maxCertifyJmax = 14

// PeriodicOptions configures one exact periodic solve.
type PeriodicOptions struct {
	// II is the initiation interval (0 = the minimum feasible one).
	II int64
	// MaxAliveBinaries bounds model size (0 = DefaultMaxAliveBinaries).
	MaxAliveBinaries int
	// Solver bounds the MILP solve.
	Solver solver.Options
}

// MinII returns the smallest initiation interval that admits a periodic
// schedule: the smallest II ≥ 1 such that the precedence system
// x_v − x_u ≥ λ − II·ω has no positive cycle. Found by binary search with a
// Bellman–Ford longest-path feasibility probe; equals the classic recurrence
// bound max over cycles of ⌈Σλ / Σω⌉.
func MinII(l *Loop) (int64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	lo, hi := int64(1), int64(1)
	for _, e := range l.edges {
		if e.Latency > 0 {
			hi += e.Latency
		}
	}
	if !l.feasibleII(hi) {
		return 0, fmt.Errorf("cyclic: no feasible initiation interval for %q", l.Name)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if l.feasibleII(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// feasibleII probes the precedence system at a fixed II: Bellman–Ford
// longest paths over edge weights λ − II·ω; a relaxation still possible
// after n passes witnesses a positive cycle (no periodic schedule at II).
func (l *Loop) feasibleII(ii int64) bool {
	n := len(l.nodes)
	dist := make([]int64, n)
	for pass := 0; pass < n; pass++ {
		changed := false
		for _, e := range l.edges {
			w := e.Latency - ii*e.Dist
			if dist[e.From]+w > dist[e.To] {
				dist[e.To] = dist[e.From] + w
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	for _, e := range l.edges {
		if dist[e.From]+e.Latency-ii*e.Dist > dist[e.To] {
			return false
		}
	}
	return true
}

// horizon is the acyclic-style schedule bound of one iteration's offsets:
// the sum of positive edge latencies plus the node count.
func (l *Loop) horizon() int64 {
	h := int64(len(l.nodes))
	for _, e := range l.edges {
		if e.Latency > 0 {
			h += e.Latency
		}
	}
	return h
}

// BigII returns an initiation interval large enough that one iteration's
// schedule fits entirely within a single period — the regime where
// PRS(BigII) ≥ RS(1) is provable (the lower sandwich of the differential).
func (l *Loop) BigII() int64 {
	var maxLat, maxDR int64
	for _, e := range l.edges {
		if e.Latency > maxLat {
			maxLat = e.Latency
		}
	}
	for i := range l.nodes {
		if l.nodes[i].DelayR > maxDR {
			maxDR = l.nodes[i].DelayR
		}
	}
	return l.horizon() + maxLat + maxDR + 1
}

// periodicBounds computes the death bound Dmax and copy bound Jmax of the
// formulation at (t, II).
func (l *Loop) periodicBounds(t ddg.RegType, ii int64) (dmax int64, jmax int) {
	hx := l.horizon()
	var maxDR, maxDW, maxLat, maxOmega int64
	for i := range l.nodes {
		n := &l.nodes[i]
		if n.DelayR > maxDR {
			maxDR = n.DelayR
		}
		if n.WritesType(t) {
			if dw := n.DelayW(t); dw > maxDW {
				maxDW = dw
			}
			if n.Latency > maxLat {
				maxLat = n.Latency
			}
		}
	}
	for _, e := range l.edges {
		if e.Dist > maxOmega {
			maxOmega = e.Dist
		}
	}
	dmax = hx + maxDR + ii*maxOmega
	if alt := hx + maxDW + maxLat + 1; alt > dmax {
		dmax = alt
	}
	jmax = int(dmax/ii) + 2
	return dmax, jmax
}

// PeriodicRS solves the exact periodic MILP for one register type at the
// given (or minimum) initiation interval.
func PeriodicRS(ctx context.Context, l *Loop, t ddg.RegType, opt PeriodicOptions) (*Periodic, error) {
	m, ii, jmax, err := PeriodicModel(l, t, opt)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return &Periodic{II: ii, RS: 0, Exact: true}, nil
	}
	ctx, sp := obs.StartSpan(ctx, "cyclic.periodic",
		obs.Str("type", string(t)), obs.Int("ii", ii), obs.Int("jmax", int64(jmax)))
	defer sp.End()
	sol, err := solver.Solve(ctx, m, opt.Solver)
	if err != nil {
		return nil, err
	}
	out := &Periodic{II: ii, Jmax: jmax}
	stats := sol.Stats
	out.Stats = &stats
	switch sol.Status {
	case lp.StatusOptimal:
		out.RS = int(math.Round(sol.Obj))
		out.Exact = true
		out.UpperBound = out.RS
	case lp.StatusFeasible:
		out.RS = int(math.Round(sol.Obj))
		out.UpperBound = int(math.Floor(sol.Bound + 1e-6))
	case lp.StatusLimit:
		out.RS = 0
		out.UpperBound = int(math.Floor(sol.Bound + 1e-6))
	default:
		return nil, fmt.Errorf("cyclic: periodic solve for %q/%s: unexpected status %v", l.Name, t, sol.Status)
	}
	sp.SetAttr(obs.Int("prs", int64(out.RS)), obs.Bool("exact", out.Exact))
	return out, nil
}

// PeriodicModel builds the exact periodic MILP of l for register type t at
// opt.II (0 = the minimum feasible initiation interval) and returns it with
// the interval used and the copy bound Jmax. The model is nil when l writes
// no value of type t.
func PeriodicModel(l *Loop, t ddg.RegType, opt PeriodicOptions) (m *lp.Model, ii int64, jmax int, err error) {
	if err := l.Validate(); err != nil {
		return nil, 0, 0, err
	}
	ii = opt.II
	if ii <= 0 {
		if ii, err = MinII(l); err != nil {
			return nil, 0, 0, err
		}
	} else if !l.feasibleII(ii) {
		return nil, 0, 0, fmt.Errorf("cyclic: initiation interval %d is infeasible for %q", ii, l.Name)
	}
	var values []int
	for i := range l.nodes {
		if l.nodes[i].WritesType(t) {
			values = append(values, i)
		}
	}
	if len(values) == 0 {
		return nil, ii, 0, nil
	}
	dmax, jmax := l.periodicBounds(t, ii)
	maxBin := opt.MaxAliveBinaries
	if maxBin <= 0 {
		maxBin = DefaultMaxAliveBinaries
	}
	if int64(len(values))*ii*int64(jmax) > int64(maxBin) {
		return nil, 0, 0, fmt.Errorf("cyclic: periodic model for %q/%s needs %d alive binaries (> %d): kernel too large to certify",
			l.Name, t, int64(len(values))*ii*int64(jmax), maxBin)
	}

	hx := l.horizon()
	bigM := float64(dmax + ii*int64(jmax) + 1)
	m = lp.NewModel("prs-"+l.Name+"-"+string(t), lp.Maximize)

	x := make([]lp.Var, len(l.nodes))
	for i := range l.nodes {
		x[i] = m.NewVar(0, float64(hx), true, "x_"+l.nodes[i].Name)
	}
	// Periodic precedence: x_v − x_u ≥ λ − II·ω for every dependence.
	for _, e := range l.edges {
		rhs := float64(e.Latency - ii*e.Dist)
		if e.From == e.To {
			if rhs > 0 {
				return nil, 0, 0, fmt.Errorf("cyclic: self-edge on %s infeasible at II=%d", l.nodes[e.From].Name, ii)
			}
			continue
		}
		m.AddConstr([]lp.Term{{Var: x[e.To], Coef: 1}, {Var: x[e.From], Coef: -1}}, lp.GE, rhs)
	}

	// Death dates: d_u = last read of u^t across consumer instances (c, ω) —
	// d ≥ every read, pinned to the chosen killer's read by a binary per
	// consumer instance. Values without consumers die a fixed latency after
	// their write.
	d := make(map[int]lp.Var, len(values))
	for _, u := range values {
		name := l.nodes[u].Name
		d[u] = m.NewVar(0, float64(dmax), true, "d_"+name)
		dw := l.nodes[u].DelayW(t)
		var kills []lp.Term
		for ei, e := range l.edges {
			if e.Kind != ddg.Flow || e.From != u || e.Type != t {
				continue
			}
			rhs := float64(l.nodes[e.To].DelayR + ii*e.Dist)
			m.AddConstr([]lp.Term{{Var: d[u], Coef: 1}, {Var: x[e.To], Coef: -1}}, lp.GE, rhs)
			k := m.NewBinary("kill_" + name + "_" + strconv.Itoa(ei))
			m.AddConstr([]lp.Term{{Var: d[u], Coef: 1}, {Var: x[e.To], Coef: -1}, {Var: k, Coef: bigM}},
				lp.LE, rhs+bigM)
			kills = append(kills, lp.Term{Var: k, Coef: 1})
		}
		if len(kills) == 0 {
			lat := l.nodes[u].Latency
			if lat < 1 {
				lat = 1
			}
			m.AddConstr([]lp.Term{{Var: d[u], Coef: 1}, {Var: x[u], Coef: -1}}, lp.EQ, float64(dw+lat))
			continue
		}
		m.AddConstr(kills, lp.EQ, 1)
	}

	// Alive binaries a_{u,τ,j}: copy j of value u alive at kernel position τ
	// (instant T = τ + II·j lies in ]write, death]). One-directional big-M —
	// the objective pushes a up, so only the "may be 1" direction is modeled.
	sumAt := make([][]lp.Term, ii)
	for _, u := range values {
		name := l.nodes[u].Name
		dw := l.nodes[u].DelayW(t)
		for tau := int64(0); tau < ii; tau++ {
			for j := 0; j < jmax; j++ {
				T := tau + ii*int64(j)
				a := m.NewBinary("a_" + name + "_" + strconv.FormatInt(tau, 10) + "_" + strconv.Itoa(j))
				// T ≥ write + 1 when alive: x_u + M·a ≤ M + T − 1 − δw.
				m.AddConstr([]lp.Term{{Var: x[u], Coef: 1}, {Var: a, Coef: bigM}}, lp.LE, bigM+float64(T-1-dw))
				// T ≤ death when alive: M·a − d_u ≤ M − T.
				m.AddConstr([]lp.Term{{Var: a, Coef: bigM}, {Var: d[u], Coef: -1}}, lp.LE, bigM-float64(T))
				sumAt[tau] = append(sumAt[tau], lp.Term{Var: a, Coef: 1})
			}
		}
	}

	// Peak selection: P is the pressure at the one chosen kernel position.
	peakCap := float64(len(values) * jmax)
	p := m.NewVar(0, peakCap, true, "P")
	m.SetObjCoef(p, 1)
	var zs []lp.Term
	for tau := int64(0); tau < ii; tau++ {
		z := m.NewBinary("z_" + strconv.FormatInt(tau, 10))
		terms := []lp.Term{{Var: p, Coef: 1}, {Var: z, Coef: peakCap}}
		for _, at := range sumAt[tau] {
			terms = append(terms, lp.Term{Var: at.Var, Coef: -1})
		}
		m.AddConstr(terms, lp.LE, peakCap)
		zs = append(zs, lp.Term{Var: z, Coef: 1})
	}
	m.AddConstr(zs, lp.EQ, 1)
	return m, ii, jmax, nil
}

// certify runs the periodic MILP at the minimum II and verifies the upper
// sandwich PRS ≤ RS(Jmax) against an exact window, extending the sweep when
// the convergence loop stopped short of Jmax. Kernels whose Jmax exceeds
// maxCertifyJmax are skipped (nil certificate) rather than solved at any
// cost. A refuted containment is a hard error — it means one of the two
// engines is wrong.
func certify(ctx context.Context, w *Windows, t ddg.RegType, res *Result, opt Options) (*Periodic, error) {
	l := w.l
	ii, err := MinII(l)
	if err != nil {
		return nil, err
	}
	_, jmax := l.periodicBounds(t, ii)
	if jmax > maxCertifyJmax {
		return nil, nil
	}
	cert, err := PeriodicRS(ctx, l, t, PeriodicOptions{II: ii, Solver: opt.RS.Solver})
	if err != nil {
		return nil, err
	}
	windowUpper, exact, err := windowUpperBound(ctx, w, t, jmax, opt)
	if err != nil {
		return nil, err
	}
	if cert.RS > windowUpper {
		return nil, fmt.Errorf(
			"cyclic: periodic/unrolled disagreement on %q/%s: PRS(II=%d) ≥ %d exceeds RS(%d) ≤ %d (windowExact=%t)",
			l.Name, t, ii, cert.RS, jmax, windowUpper, exact)
	}
	return cert, nil
}

// windowUpperBound returns a proven upper bound on RS of the k-iteration
// window: the exact value when the search completes, the search's dual bound
// when capped.
func windowUpperBound(ctx context.Context, w *Windows, t ddg.RegType, k int, opt Options) (int, bool, error) {
	rsOpts := opt.RS
	rsOpts.Method = rs.MethodExactBB
	rsOpts.SkipWitness = true
	r, err := w.windowRS(ctx, t, k, rsOpts)
	if err != nil {
		return 0, false, err
	}
	if r.Exact {
		return r.RS, true, nil
	}
	if r.BBStats != nil && r.BBStats.UpperBound >= r.RS {
		return r.BBStats.UpperBound, false, nil
	}
	if r.ILPUpperBound >= r.RS {
		return r.ILPUpperBound, false, nil
	}
	return math.MaxInt32, false, nil
}
