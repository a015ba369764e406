package reduce

import (
	"context"
	"fmt"

	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/rs"
	"regsat/internal/schedule"
)

// ExactOptions bounds the exact reduction search.
type ExactOptions struct {
	// MaxNodes caps DFS nodes per decision phase (0 = default 2e6).
	MaxNodes int64
	// SkipMaxRN disables the secondary search that, at the optimal
	// makespan, maximizes the register need (the paper's "maximized and
	// does not exceed R_t" reading); the primary objective min σ_⊥ is
	// always optimized.
	SkipMaxRN bool
}

// ExactCombinatorial solves the ReduceRS problem optimally: it finds the
// minimal total schedule time P for which a schedule σ exists whose
// Theorem 4.2 extension Ḡ(σ) is an acyclic DAG with RS_t(Ḡ) ≤ R (the SRC
// search the NP-hardness proof reduces from), then returns that extension.
// The returned critical path CPAfter is the minimum achievable by any
// serialization-arc reduction, so the heuristic's ILP loss can be compared
// against it. One snapshot of g serves the saturation check and every
// decision phase of the search.
func ExactCombinatorial(ctx context.Context, g *ddg.Graph, t ddg.RegType, available int, opt ExactOptions) (*Result, error) {
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 2_000_000
	}
	an, err := rs.NewAnalysis(g, t)
	if err != nil {
		return nil, err
	}
	snap := an.IR
	exactRS, err := exactSaturationOf(ctx, an)
	if err != nil {
		return nil, err
	}
	if exactRS <= available {
		return unchanged(g, exactRS, true), nil
	}
	if available < 1 {
		r := unchanged(g, exactRS, true)
		r.Spill = true
		return r, nil
	}

	// Feasible upper bound for P from the heuristic's extension (verified
	// with the exact saturation of the extended graph).
	pub := g.Horizon()
	heur, herr := heuristicOf(ctx, an, available)
	if herr == nil && !heur.Spill {
		if hRS, err := exactSaturation(ctx, heur.Graph, t); err == nil && hRS <= available {
			pub = heur.Graph.CriticalPath()
		}
	}

	cp := g.CriticalPath()
	budget := opt.MaxNodes
	var found *leaf
	for P := cp; P <= pub; P++ {
		l, used, err := srcDecision(ctx, snap, t, available, P, budget)
		if err != nil {
			return nil, err
		}
		budget -= used
		if l != nil {
			found = l
			break
		}
		if budget <= 0 {
			// Budget exhausted without an answer: fall back to the
			// heuristic result, marked inexact.
			if herr == nil {
				heur.Exact = false
				return heur, nil
			}
			return &Result{Graph: g, RS: exactRS, CPBefore: cp, CPAfter: cp,
				Spill: true, Exact: false}, nil
		}
	}
	if found == nil {
		// No reduction to R registers exists within the horizon: spilling
		// is unavoidable (Section 4).
		return &Result{Graph: g, RS: exactRS, CPBefore: cp, CPAfter: cp,
			Spill: true, Exact: true}, nil
	}

	// Secondary objective: among minimal-makespan reductions, keep the
	// register need as high as possible (fewest superfluous constraints).
	if !opt.SkipMaxRN {
		if l2, _, err := srcMaxRN(ctx, snap, t, available, found.sched.Makespan(), opt.MaxNodes); err == nil && l2 != nil {
			if l2.extRS > found.extRS {
				found = l2
			}
		}
	}

	// Report the true saturation of the chosen extension. A value above the
	// budget here means acceptLeaf's verification logic has a hole — fail
	// loudly rather than hand back a "certified" extension that does not fit.
	finalRS, err := exactSaturation(ctx, found.ext, t)
	if err != nil {
		return nil, err
	}
	if finalRS > available {
		return nil, fmt.Errorf("reduce: internal error: accepted extension of %s has RS %d > budget %d",
			g.Name, finalRS, available)
	}
	return &Result{
		Graph:    found.ext,
		Arcs:     found.arcs,
		RS:       finalRS,
		CPBefore: cp,
		CPAfter:  found.ext.CriticalPath(),
		Schedule: found.sched,
		Exact:    true,
	}, nil
}

func exactSaturation(ctx context.Context, g *ddg.Graph, t ddg.RegType) (int, error) {
	an, err := rs.NewAnalysis(g, t)
	if err != nil {
		return 0, err
	}
	return exactSaturationOf(ctx, an)
}

func exactSaturationOf(ctx context.Context, an *rs.Analysis) (int, error) {
	res, err := rs.ComputeWithAnalysis(ctx, an, rs.Options{Method: rs.MethodExactBB, SkipWitness: true})
	if err != nil {
		return 0, err
	}
	if !res.Exact {
		return 0, fmt.Errorf("reduce: exact saturation capped on %s", an.G.Name)
	}
	return res.RS, nil
}

// leaf is an accepted schedule together with its verified extension.
type leaf struct {
	sched *schedule.Schedule
	arcs  []ddg.SerialArc
	ext   *ddg.Graph
	extRS int
}

// srcDecision answers: does a valid schedule with makespan ≤ P exist whose
// Theorem 4.2 extension has RS ≤ R? Returns the first accepted leaf.
func srcDecision(ctx context.Context, snap *ir.Snapshot, t ddg.RegType, R int, P int64, budget int64) (*leaf, int64, error) {
	search, err := newSrcSearch(ctx, snap, t, R, P, budget)
	if err != nil {
		return nil, 0, nil // horizon below critical path: infeasible at this P
	}
	l := search.run(nil)
	return l, search.used, nil
}

// srcMaxRN searches, at fixed makespan bound P, for the accepted leaf whose
// extension keeps the highest saturation still ≤ R.
func srcMaxRN(ctx context.Context, snap *ir.Snapshot, t ddg.RegType, R int, P int64, budget int64) (*leaf, int64, error) {
	search, err := newSrcSearch(ctx, snap, t, R, P, budget)
	if err != nil {
		return nil, 0, nil
	}
	var best *leaf
	search.run(func(l *leaf) bool {
		if best == nil || l.extRS > best.extRS {
			best = l
		}
		return best.extRS < R // stop early once R is reached
	})
	return best, search.used, nil
}

type srcSearch struct {
	ctx    context.Context
	snap   *ir.Snapshot
	g      *ddg.Graph
	t      ddg.RegType
	R      int
	topo   []int
	lo, hi []int64
	times  []int64
	placed []bool
	budget int64
	used   int64
	slack  int64 // StrictSlack of the machine

	values    []int
	consumers [][]int
	preds     [][]predEdge
}

type predEdge struct {
	from int
	lat  int64
}

func newSrcSearch(ctx context.Context, snap *ir.Snapshot, t ddg.RegType, R int, P int64, budget int64) (*srcSearch, error) {
	lo, hi, err := schedule.WindowsIR(snap, P)
	if err != nil {
		return nil, err
	}
	g := snap.G
	s := &srcSearch{
		ctx:  ctx,
		snap: snap,
		g:    g, t: t, R: R,
		topo: snap.Topo, lo: lo, hi: hi,
		times:  make([]int64, g.NumNodes()),
		placed: make([]bool, g.NumNodes()),
		budget: budget,
		slack:  StrictSlack(g),
	}
	if tbl := snap.Table(t); tbl != nil {
		s.values = tbl.Values
		s.consumers = tbl.Cons
	}
	s.preds = make([][]predEdge, g.NumNodes())
	for _, e := range g.Edges() {
		s.preds[e.To] = append(s.preds[e.To], predEdge{e.From, e.Latency})
	}
	return s, nil
}

// acceptLeaf validates a complete schedule: its register need must fit, and
// its Theorem 4.2 extension must be an acyclic DAG with saturation ≤ R.
// Cheap sufficient tests avoid the exact-saturation call in the common
// case: on offset machines RS(Ḡ) = RN_σ exactly (Theorem 4.2); on
// zero-offset machines RS(Ḡ) ≤ strict-interference need. The recorded extRS
// is RN_σ, a lower bound on the true saturation of the extension (the
// caller recomputes the exact value for the finally chosen leaf).
func (s *srcSearch) acceptLeaf(times []int64) *leaf {
	sched := schedule.New(s.g, append([]int64(nil), times...))
	rn := sched.RegisterNeed(s.t)
	if rn > s.R {
		return nil
	}
	arcs := SerializationArcs(s.snap, s.t, sched)
	ext, err := ApplyArcs(s.g, arcs)
	if err != nil {
		return nil // non-positive circuit (VLIW/EPIC): excluded by the paper
	}
	needVerify := false
	if s.slack > 0 {
		// Touching lifetimes left unserialized: the closed-interval need may
		// exceed what the arcs pin.
		needVerify = s.strictNeed(sched) > s.R
	} else {
		// Offset machines: RS(Ḡ) = RN_σ only holds when σ's whole lifetime
		// order was actually pinned. An empty lifetime (a value read at its
		// own birth instant) or an ordered pair Serializable refuses (e.g.
		// δr(v) > δw(v)) leaves an order the extension does not enforce, so
		// other schedules of Ḡ can overlap what σ kept apart.
		needVerify = !s.orderFullyPinned(sched)
	}
	if needVerify {
		extRS, err := exactSaturation(s.ctx, ext, s.t)
		if err != nil || extRS > s.R {
			return nil
		}
	}
	return &leaf{sched: sched, arcs: arcs, ext: ext, extRS: rn}
}

// orderFullyPinned reports whether every non-interference σ exhibits between
// type-t values is enforced by the serialization-arc construction: no empty
// lifetimes, and every ordered pair is Serializable. Only then does
// Theorem 4.2 give RS(Ḡ) = RN_σ on offset machines.
func (s *srcSearch) orderFullyPinned(sched *schedule.Schedule) bool {
	ivs := make([]schedule.Interval, len(s.values))
	for i, u := range s.values {
		ivs[i] = sched.Lifetime(u, s.t)
		if ivs[i].Empty() {
			return false
		}
	}
	for i, u := range s.values {
		for j, v := range s.values {
			if i == j || ivs[i].End > ivs[j].Start {
				continue
			}
			if !Serializable(s.g, s.t, sched, u, v) {
				return false
			}
		}
	}
	return true
}

// strictNeed computes the register need with touching lifetimes counted as
// interfering (closed-interval rule), an upper bound on RS of the strict
// extension for zero-offset machines.
func (s *srcSearch) strictNeed(sched *schedule.Schedule) int {
	ivs := sched.Lifetimes(s.t)
	for i := range ivs {
		if !ivs[i].Empty() {
			ivs[i].End += s.slack
		}
	}
	return schedule.MaxLive(ivs)
}

// run performs the DFS. With visit == nil it stops at the first accepted
// leaf; otherwise it enumerates accepted leaves until visit returns false
// or the space/budget ends.
func (s *srcSearch) run(visit func(*leaf) bool) *leaf {
	var result *leaf
	var rec func(i int) bool // returns false to stop the whole search
	rec = func(i int) bool {
		s.used++
		if s.used > s.budget {
			return false
		}
		if i == len(s.topo) {
			l := s.acceptLeaf(s.times)
			if l == nil {
				return true // keep searching
			}
			if visit == nil || !visit(l) {
				result = l
				return false
			}
			return true
		}
		u := s.topo[i]
		earliest := s.lo[u]
		for _, pe := range s.preds[u] {
			if tt := s.times[pe.from] + pe.lat; tt > earliest {
				earliest = tt
			}
		}
		for tt := earliest; tt <= s.hi[u]; tt++ {
			s.times[u] = tt
			s.placed[u] = true
			if s.liveLowerBound() <= s.R {
				if !rec(i + 1) {
					s.placed[u] = false
					return false
				}
			}
			s.placed[u] = false
		}
		return true
	}
	rec(0)
	return result
}

// liveLowerBound computes a lower bound on the final register need of the
// partial placement: for every placed producer, its value is certainly alive
// from its birth to at least the latest lower-bounded consumer read
// (placed consumers read at their scheduled time; unplaced ones no earlier
// than max(ASAP, placed-predecessor constraints)). Since RS of the final
// extension is at least the plain register need, exceeding R here prunes
// soundly.
func (s *srcSearch) liveLowerBound() int {
	intervals := make([]schedule.Interval, 0, len(s.values))
	for i, u := range s.values {
		if !s.placed[u] {
			continue
		}
		birth := s.times[u] + s.g.Node(u).DelayW(s.t)
		death := int64(-1 << 62)
		for _, v := range s.consumers[i] {
			var read int64
			if s.placed[v] {
				read = s.times[v] + s.g.Node(v).DelayR
			} else {
				est := s.lo[v]
				for _, pe := range s.preds[v] {
					if s.placed[pe.from] {
						if tt := s.times[pe.from] + pe.lat; tt > est {
							est = tt
						}
					}
				}
				read = est + s.g.Node(v).DelayR
			}
			if read > death {
				death = read
			}
		}
		intervals = append(intervals, schedule.Interval{Value: u, Start: birth, End: death})
	}
	return schedule.MaxLive(intervals)
}
