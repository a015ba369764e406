package solver

import (
	"container/heap"
	"context"
	"math"
	"sort"
	"strconv"
	"time"

	"regsat/internal/lp"
	"regsat/internal/obs"
)

// solve is the MILP engine: presolve with postsolve mapping, hint-derived
// clique cuts separated at the root, sparse constraint storage, a
// dual-simplex reoptimizer with devex pricing, best-bound node selection with
// single-bound deltas, warm-started dives from the parent basis, pseudo-cost
// branching with reliability initialization, and incumbent/cutoff seeding.
//
// The root LP is solved first, on its own (solveRoot): against the prune
// target on every iteration, so a root that cannot beat the seeded cutoff
// ends the solve at once, and with the hinted cliques, derived only then,
// separated as cut rows.
//
// Node processing is organized as dives: the search pops the best-bound open
// node, solves it from a cold (all-slack, dual-feasible) start — or, for the
// root, adopts the tableau solveRoot already solved — then keeps
// descending into one child per branching — reusing the tableau and basis it
// already holds, which makes the child solve a handful of dual pivots — while
// the sibling goes onto the best-bound queue as a {variable, bound}
// delta against its parent chain. Numerical trouble at a node (the iteration
// cap, or an integer point failing the check against the exact rows) rebuilds
// the tableau once from the sparse matrix and re-solves the node; a node
// still in trouble is abandoned at its parent bound, so the solve reports a
// capped interval rather than trusting a drifted tableau.
func solve(ctx context.Context, m *lp.Model, opt Options) (*Solution, error) {
	start := time.Now()
	// The solve span (created by Solve; nil when untraced) carries the search
	// telemetry: milestone events on a bounded buffer, never one per simplex
	// iteration.
	span := obs.FromContext(ctx)

	// Presolve works on a private copy in a pooled workspace and writes the
	// reduced problem p in sparse form; it is owned by this solve, so the
	// cut layer may grow it. The workspace goes back to the pool on every
	// return path, after the tableaux pointing into p (solveRoot and run
	// release those before returning).
	ws := wsPool.Get().(*workspace)
	var p *prob
	defer func() { releaseWorkspace(ws, p) }()
	ps, err := ws.presolve(m, !opt.DisablePresolve)
	if err != nil {
		return nil, err
	}
	span.Event("presolve",
		obs.Int("rows", ps.rows), obs.Int("cols", ps.cols),
		obs.Int("tightenings", ps.tightenings), obs.Bool("infeasible", ps.infeasible))
	infeasible := func() (*Solution, error) {
		sol := &Solution{Status: lp.StatusInfeasible, Stats: ps.stats()}
		sol.Stats.Duration = time.Since(start)
		return sol, ctx.Err()
	}
	if ps.infeasible {
		return infeasible()
	}
	p = ps.p

	var deadline time.Time
	if opt.TimeLimit > 0 {
		deadline = start.Add(opt.TimeLimit)
	}
	cancelled := func() bool {
		return ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline))
	}

	s := &searcher{
		p:         p,
		opt:       opt,
		ctx:       ctx,
		span:      span,
		deadline:  deadline,
		openBound: math.Inf(1),
		cutoff:    math.Inf(1),
		incObj:    math.Inf(1),
	}
	ws.searchScratch(p.n)
	s.lo, s.hi, s.x = ws.lo, ws.hi, ws.x
	s.pcDownSum, s.pcUpSum = ws.pcDown, ws.pcUp
	s.pcDownN, s.pcUpN = ws.pcDownN, ws.pcUpN
	if opt.Cutoff != nil {
		s.cutoff = p.internalObj(*opt.Cutoff)
		s.exclusiveCutoff = opt.ExclusiveCutoff
	}

	// The root LP runs against the prune target the search would apply to
	// the root node. Separation appends its cut rows to a grown copy of p;
	// r.root, when set, is the solved root LP of exactly that problem.
	var hints *Hints
	if !opt.DisableCuts {
		hints = opt.Hints
	}
	prune := s.pruneTarget()
	if testHookRootToOptimality {
		prune = math.Inf(1)
	}
	r := solveRoot(p, hints, ps, s.x, prune, cancelled)
	p, s.p = r.p, r.p
	s.root, s.iters, s.bland = r.root, r.iters, r.blandIters
	s.cliqueIx = buildCliqueIndex(r.cliques)
	if r.rebuilt {
		s.cold++
	}
	if len(r.cliques) > 0 {
		span.Event("cuts.separated", obs.Int("added", r.added), obs.Int("cliques", int64(len(r.cliques))),
			obs.Int("rounds", r.rounds), obs.Int("iters", r.iters))
	}
	if r.st == spxCutoff || r.st == spxInfeasible {
		// The root LP settled the solve: it cannot beat the incumbent or
		// cutoff, or it has no feasible point. The root is the only node.
		s.nodes = 1
	} else {
		heap.Push(&s.open, &qnode{vr: -1, bound: math.Inf(-1)})
		s.run()
	}

	sol := s.finish()
	sol.Stats.PresolveRows = ps.rows
	sol.Stats.PresolveCols = ps.cols
	sol.Stats.PresolveTightenings = ps.tightenings
	sol.Stats.CutsAdded = r.added
	if sol.Feasible() && !sol.AtCutoff {
		xr := sol.X
		if xr == nil {
			// Presolve fixed every variable: the reduced assignment is empty.
			xr = make([]float64, p.n)
		}
		sol.Stats.CutsActive = activeCuts(r.cliques, xr)
		sol.X = ps.postsolve(xr)
	}
	sol.Stats.Duration = time.Since(start)
	return sol, ctx.Err()
}

// qnode is one open subtree: a single {variable, bounds} delta against its
// parent chain (the chain is walked to reconstruct full bounds on pop — no
// per-node O(n) bound copies) plus the parent relaxation objective, which is
// a valid bound on everything below, and the branching context feeding the
// pseudo-cost statistics once the child's own relaxation is solved.
type qnode struct {
	parent *qnode
	vr     int     // branched variable; -1 for the root
	lo, hi float64 // bounds of vr in this subtree
	bound  float64 // parent LP objective (integral-rounded), internal sense
	pobj   float64 // parent LP objective, unrounded, for pseudo-cost updates
	frac   float64 // fractionality removed by this branch direction
	up     bool    // true for the x ≥ ceil child
}

type nodeHeap []*qnode

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(*qnode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

const (
	// pcReliable is the pseudo-cost observation count per direction below
	// which a branching candidate is "unreliable" and worth a strong-
	// branching probe.
	pcReliable = 1
	// pcMaxProbes caps the candidates probed per node.
	pcMaxProbes = 2
	// pcProbeIters is the dual-simplex iteration cap of one probe solve.
	pcProbeIters = 100
)

type searcher struct {
	p    *prob
	opt  Options
	ctx  context.Context
	span *obs.Span // solve span for search events; nil when untraced

	deadline        time.Time
	cutoff          float64 // internal sense; +inf when unseeded
	exclusiveCutoff bool
	cliqueIx        *cliqueIndex
	// root is the root LP solveRoot already solved, or nil. The search
	// adopts it when it pops the root node.
	root *spx

	open      nodeHeap
	stopped   bool // a limit fired; drain and report the interval
	limitHit  bool
	openBound float64   // min bound over abandoned subtrees (internal)
	incObj    float64   // internal incumbent objective; +inf when none
	incX      []float64 // incumbent assignment (model variables, snapped)

	// lo and hi hold a popped node's bounds, x a node's LP point (workspace
	// scratch).
	lo, hi, x []float64

	// Pseudo-cost statistics: per-variable sums and counts of LP degradation
	// per unit of fractionality removed, by direction (workspace scratch).
	pcDownSum []float64
	pcUpSum   []float64
	pcDownN   []int32
	pcUpN     []int32

	nodes     int64
	iters     int64
	warm      int64
	cold      int64
	recovered int64
	incumb    int64
	probes    int64
	bland     int64
}

// pruneTarget is the internal objective above which a subtree provably
// cannot improve on what is already known: the incumbent minus the minimal
// improvement step (1 for integral objectives), or the seeded cutoff — an
// objective value known to be achievable somewhere in the tree. An exclusive
// cutoff acts like an incumbent (the caller holds a solution achieving it),
// so subtrees that merely match it are pruned too.
func (s *searcher) pruneTarget() float64 {
	step := 1e-9
	if s.p.intObj {
		step = 1 - 1e-6
	}
	t := s.incObj
	if !math.IsInf(t, 1) {
		t -= step
	}
	if !math.IsInf(s.cutoff, 1) {
		ct := s.cutoff + 1e-7
		if s.exclusiveCutoff {
			ct = s.cutoff - step
		}
		if ct < t {
			t = ct
		}
	}
	return t
}

func (s *searcher) cancelled() bool {
	return s.ctx.Err() != nil || (!s.deadline.IsZero() && time.Now().After(s.deadline))
}

// shouldStop flips the searcher into drain mode when a limit fires.
func (s *searcher) shouldStop() bool {
	if s.stopped {
		return true
	}
	if s.nodes < int64(s.opt.MaxNodes) && !s.cancelled() {
		return false
	}
	s.stopped = true
	s.limitHit = true
	return true
}

// pop hands out the best open node, pruning stale entries. It returns nil
// when the search is over (exhausted or stopped).
func (s *searcher) pop() *qnode {
	if s.stopped {
		// Drain: the abandoned open nodes define the proven interval.
		for _, nd := range s.open {
			if nd.bound < s.openBound {
				s.openBound = nd.bound
			}
		}
		s.open = nil
		return nil
	}
	for len(s.open) > 0 {
		nd := heap.Pop(&s.open).(*qnode)
		if nd.bound > s.pruneTarget() {
			continue // exact prune: a better solution is known elsewhere
		}
		return nd
	}
	return nil
}

func (s *searcher) push(nd *qnode) { heap.Push(&s.open, nd) }

// abandon records the bound of a subtree dropped because of a limit.
func (s *searcher) abandon(bound float64) {
	if bound < s.openBound {
		s.openBound = bound
	}
	s.limitHit = true
}

// updateIncumbent installs a verified integer solution if it improves.
func (s *searcher) updateIncumbent(objInternal float64, x []float64) {
	// Under an exclusive cutoff the caller already holds a solution at the
	// cutoff objective: installing anything strictly worse would let
	// finish() report a worse-than-held "optimum". Drop it.
	if s.exclusiveCutoff && objInternal > s.cutoff+1e-7 {
		return
	}
	if objInternal < s.incObj-1e-9 {
		s.incObj = objInternal
		s.incX = append(s.incX[:0], x...)
		s.incumb++
		s.span.Event("incumbent",
			obs.Str("obj", strconv.FormatFloat(objInternal, 'g', 10, 64)),
			obs.Int("nodes", s.nodes))
	}
}

// pcUpdate records one observed LP degradation per unit of fractionality for
// branching variable j in the given direction.
func (s *searcher) pcUpdate(j int, up bool, perUnit float64) {
	if up {
		s.pcUpSum[j] += perUnit
		s.pcUpN[j]++
	} else {
		s.pcDownSum[j] += perUnit
		s.pcDownN[j]++
	}
}

// pcCounts returns the observation counts of variable j.
func (s *searcher) pcCounts(j int) (down, up int32) {
	return s.pcDownN[j], s.pcUpN[j]
}

// flushIters folds a tableau's iteration counters into the search totals.
func (s *searcher) flushIters(w *spx) {
	s.iters += w.iters
	w.iters = 0
	s.bland += w.blandIters
	w.blandIters = 0
}

// boundsOf reconstructs the full structural bounds of nd into lo/hi by
// walking the delta chain from the root.
func (s *searcher) boundsOf(nd *qnode, lo, hi []float64, path []*qnode) []*qnode {
	copy(lo, s.p.rootLo)
	copy(hi, s.p.rootHi)
	path = path[:0]
	for n := nd; n != nil && n.vr >= 0; n = n.parent {
		path = append(path, n)
	}
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.lo > lo[n.vr] {
			lo[n.vr] = n.lo
		}
		if n.hi < hi[n.vr] {
			hi[n.vr] = n.hi
		}
	}
	return path
}

// run processes open nodes until the queue is exhausted or a limit fires.
func (s *searcher) run() {
	p := s.p
	var w *spx // the search's tableau, allocated on its first cold start
	lo, hi := s.lo, s.hi
	var path []*qnode
	defer func() { releaseSpx(w) }()
	for {
		nd := s.pop()
		if nd == nil {
			return
		}
		path = s.boundsOf(nd, lo, hi, path)
		s.span.Event("dive",
			obs.Int("depth", int64(len(path))),
			obs.Str("bound", strconv.FormatFloat(nd.bound, 'g', 6, 64)))
		if nd.vr < 0 && s.root != nil {
			// The root LP is already solved: adopt that tableau, an optimal
			// basis of exactly the LP a cold solve would face. The root is
			// the first node popped, so w holds no tableau yet.
			w, s.root = s.root, nil
			w.cancel = s.cancelled
		} else {
			if w == nil {
				w = newSpx(p)
				w.cancel = s.cancelled
			}
			w.reset(lo, hi)
			s.cold++
		}
		s.dive(w, nd, false)
	}
}

// brCand is one fractional branching candidate at a node.
type brCand struct {
	j     int
	f     float64 // fractional part of x_j
	floor float64
}

// dive processes nd with the state already loaded in w, then keeps
// descending into one child per branching (warm-starting from the basis the
// tableau already holds) until the chain is pruned, infeasible, or integer.
func (s *searcher) dive(w *spx, nd *qnode, warm bool) {
	p := s.p
	x := s.x
	cands := make([]brCand, 0, 16)
	retried := false // nd was already rebuilt once after numerical trouble
	for {
		if s.shouldStop() {
			s.abandon(nd.bound)
			return
		}
		if warm {
			s.warm++
		}
		if testHookNodeSolve != nil {
			testHookNodeSolve(w, nd, retried)
		}
		st := w.dual(s.pruneTarget())
		s.nodes++
		s.flushIters(w)
		switch st {
		case spxInfeasible:
			return
		case spxCutoff:
			return // proved it cannot beat the incumbent/cutoff
		case spxCanceled:
			s.abandon(nd.bound)
			return
		case spxIterLimit:
			if !s.recoverNode(w, nd, &retried, "iter-limit") {
				return
			}
			warm = false
			continue
		}
		obj := w.obj()
		// Pseudo-cost observation: the LP degradation this branch caused,
		// per unit of fractionality it removed (once per node, even when a
		// recovery re-solves it).
		if nd.vr >= 0 && nd.frac > 1e-9 && !retried {
			deg := obj - nd.pobj
			if deg < 0 {
				deg = 0
			}
			s.pcUpdate(nd.vr, nd.up, deg/nd.frac)
		}
		bound := obj
		if p.intObj {
			// Integral objective: the subtree optimum is an integer ≥ obj.
			bound = math.Ceil(obj - 1e-6)
		}
		if bound > s.pruneTarget() {
			return
		}
		w.extract(x)

		cands = cands[:0]
		for j := 0; j < p.n; j++ {
			if !p.integer[j] {
				continue
			}
			fl := math.Floor(x[j])
			f := x[j] - fl
			if math.Min(f, 1-f) > intTol {
				cands = append(cands, brCand{j: j, f: f, floor: fl})
			}
		}
		if len(cands) == 0 {
			// Integer feasible: snap, verify against the original rows, and
			// publish. A failed verification means the tableau drifted —
			// rebuild it and re-solve the node instead of trusting it.
			for j := 0; j < p.n; j++ {
				if p.integer[j] {
					x[j] = math.Round(x[j])
				}
			}
			if !w.verify(x) {
				if !s.recoverNode(w, nd, &retried, "verify") {
					return
				}
				warm = false
				continue
			}
			objInt := 0.0
			for j := 0; j < p.n; j++ {
				if c := p.cost[j]; c != 0 {
					objInt += c * x[j]
				}
			}
			s.updateIncumbent(objInt, x)
			return
		}

		// Reliability initialization: strong-branching probes on candidates
		// whose pseudo-costs have too few observations. A probe can prove a
		// direction dead, forcing the other child (or killing the node).
		forced, dead := s.reliabilityProbes(w, cands, nd, obj, bound)
		if dead {
			return
		}
		if forced != nil {
			nd = forced
			warm, retried = true, false
			w.applyBound(forced.vr, forced.lo, forced.hi)
			if s.propagateCliques(w, forced) {
				return
			}
			continue
		}

		branch, f, diveUp := s.selectBranch(cands)
		floorV := math.Floor(x[branch])
		ceilV := floorV + 1
		down := &qnode{parent: nd, vr: branch, lo: w.lo[branch], hi: floorV,
			bound: bound, pobj: obj, frac: f, up: false}
		up := &qnode{parent: nd, vr: branch, lo: ceilV, hi: w.hi[branch],
			bound: bound, pobj: obj, frac: 1 - f, up: true}
		var diveNd *qnode
		if diveUp {
			s.push(down)
			diveNd = up
		} else {
			s.push(up)
			diveNd = down
		}
		if w.pivots >= refactorCut {
			// Periodic refactorization: rebuild the tableau from the exact
			// sparse matrix to shed accumulated floating-point drift.
			s.span.Event("refactor", obs.Int("pivots", int64(w.pivots)))
			w.applyBoundOnlyStore(diveNd)
			w.reset(w.lo[:p.n], w.hi[:p.n])
			s.cold++
			warm = false
		} else {
			w.applyBound(diveNd.vr, diveNd.lo, diveNd.hi)
			warm = true
		}
		if s.propagateCliques(w, diveNd) {
			return
		}
		nd, retried = diveNd, false
	}
}

// testHookNodeSolve, when set, runs right before every node solve of the
// search tableau and before the root's first LP solve (retry reports a
// re-solve after recovery). Tests use it to inject numerical trouble; it
// is nil in production.
var testHookNodeSolve func(w *spx, nd *qnode, retry bool)

// testHookRootToOptimality, when set, solves every root LP to optimality
// with the prune check off, as the engine did before the root stopped at
// the prune target; differential tests compare the two. It is false in
// production.
var testHookRootToOptimality bool

// recoverNode handles numerical trouble at nd. The first time, it rebuilds
// w from the exact sparse matrix under the node's current bounds (the
// rebuild the periodic refactorization uses, resetting the devex weights)
// and reports true: the caller re-solves the node cold. Trouble again after
// that rebuild abandons the subtree at nd.bound — a valid bound on
// everything below — so the solve returns a capped interval instead of an
// answer resting on a drifted tableau.
func (s *searcher) recoverNode(w *spx, nd *qnode, retried *bool, cause string) bool {
	if *retried {
		s.span.Event("recover", obs.Str("cause", cause), obs.Bool("abandoned", true))
		s.abandon(nd.bound)
		return false
	}
	*retried = true
	s.recovered++
	s.span.Event("recover", obs.Str("cause", cause), obs.Bool("abandoned", false))
	w.reset(w.lo[:s.p.n], w.hi[:s.p.n])
	s.cold++
	return true
}

// reliabilityProbes runs iteration-capped strong-branching probes on the
// most fractional candidates whose pseudo-costs are still unreliable,
// feeding the results into the pseudo-cost statistics. When a probe proves
// one direction cannot contain an improving solution, the returned forced
// child replaces branching; when both directions are dead the node is
// resolved (dead = true).
func (s *searcher) reliabilityProbes(w *spx, cands []brCand, nd *qnode, obj, bound float64) (forced *qnode, dead bool) {
	if len(cands) < 2 {
		return nil, false
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da := math.Min(cands[order[a]].f, 1-cands[order[a]].f)
		db := math.Min(cands[order[b]].f, 1-cands[order[b]].f)
		return da > db
	})
	prune := s.pruneTarget()
	probed := 0
	for _, ci := range order {
		if probed >= pcMaxProbes {
			break
		}
		c := cands[ci]
		dN, uN := s.pcCounts(c.j)
		if dN >= pcReliable && uN >= pcReliable {
			continue
		}
		probed++
		var downDead, upDead bool
		if dN < pcReliable {
			res := s.probeDir(w, c.j, w.lo[c.j], c.floor, prune)
			if res.dead {
				downDead = true
			} else if res.known {
				s.pcUpdate(c.j, false, math.Max(0, res.obj-obj)/c.f)
			}
		}
		if uN < pcReliable {
			res := s.probeDir(w, c.j, c.floor+1, w.hi[c.j], prune)
			if res.dead {
				upDead = true
			} else if res.known {
				s.pcUpdate(c.j, true, math.Max(0, res.obj-obj)/(1-c.f))
			}
		}
		switch {
		case downDead && upDead:
			return nil, true
		case downDead:
			return &qnode{parent: nd, vr: c.j, lo: c.floor + 1, hi: w.hi[c.j],
				bound: bound, pobj: obj, frac: 1 - c.f, up: true}, false
		case upDead:
			return &qnode{parent: nd, vr: c.j, lo: w.lo[c.j], hi: c.floor,
				bound: bound, pobj: obj, frac: c.f, up: false}, false
		}
	}
	return nil, false
}

type probeOutcome struct {
	dead  bool
	known bool // obj is a usable child bound
	obj   float64
}

// probeDir solves the child [lo, hi] of variable j on w's probe tableau
// with a tight iteration cap. The dual objective is a monotone lower bound
// on the child LP, so even an iteration-capped probe yields a valid
// pseudo-cost estimate, and exceeding the prune target proves the child
// dead regardless of how the solve would have ended.
func (s *searcher) probeDir(w *spx, j int, lo, hi, prune float64) probeOutcome {
	if w.probe == nil {
		w.probe = newSpx(w.p)
		w.probe.cancel = s.cancelled
		w.probe.iterLimit = pcProbeIters
	}
	scratch := w.probe
	scratch.copyFrom(w)
	scratch.applyBound(j, lo, hi)
	st := scratch.dual(prune)
	s.probes++
	s.flushIters(scratch)
	switch st {
	case spxInfeasible, spxCutoff:
		return probeOutcome{dead: true}
	case spxOptimal, spxIterLimit:
		o := scratch.obj()
		if o > prune {
			return probeOutcome{dead: true}
		}
		return probeOutcome{known: true, obj: o}
	default: // canceled
		return probeOutcome{}
	}
}

// selectBranch picks the branching variable maximizing the pseudo-cost
// product score max(ε, down·f)·max(ε, up·(1−f)); directions without
// observations fall back to unit pseudo-costs, which degenerates to
// most-fractional selection on a cold start. The dive follows the direction
// with the smaller estimated degradation.
func (s *searcher) selectBranch(cands []brCand) (branch int, f float64, diveUp bool) {
	const eps = 1e-6
	branch, f = cands[0].j, cands[0].f
	bestScore := math.Inf(-1)
	for _, c := range cands {
		dAvg, uAvg := 1.0, 1.0
		if n := s.pcDownN[c.j]; n > 0 {
			dAvg = s.pcDownSum[c.j] / float64(n)
		}
		if n := s.pcUpN[c.j]; n > 0 {
			uAvg = s.pcUpSum[c.j] / float64(n)
		}
		dDeg, uDeg := dAvg*c.f, uAvg*(1-c.f)
		score := math.Max(dDeg, eps) * math.Max(uDeg, eps)
		if score > bestScore {
			branch, f, bestScore = c.j, c.f, score
			if uDeg != dDeg {
				diveUp = uDeg < dDeg
			} else {
				diveUp = c.f > 0.5
			}
		}
	}
	return branch, f, diveUp
}

// propagateCliques runs clique domain propagation after the dive fixed a
// binary to 1: in every hinted clique containing it whose members fixed to
// 1 have reached the right-hand side, all remaining members must be 0. The
// tightenings apply to the live tableau only — siblings reconstructing
// bounds from the qnode chain see the looser (still correct) domain.
// Reports whether the node became infeasible (fixed ones exceed a clique's
// right-hand side).
func (s *searcher) propagateCliques(w *spx, nd *qnode) bool {
	if s.cliqueIx == nil || !nd.up || nd.lo < 0.5 {
		return false
	}
	for _, c := range s.cliqueIx.byCol[nd.vr] {
		ones := 0.0
		for _, m := range c.cols {
			ones += w.lo[m]
		}
		if ones > c.rhs+1e-6 {
			return true
		}
		if ones >= c.rhs-1e-6 {
			for _, m := range c.cols {
				if w.lo[m] < 0.5 && w.hi[m] > 0.5 {
					w.applyBound(m, w.lo[m], 0)
				}
			}
		}
	}
	return false
}

// applyBoundOnlyStore records the child's bounds without touching the basis
// (used right before a full rebuild).
func (w *spx) applyBoundOnlyStore(nd *qnode) {
	w.lo[nd.vr], w.hi[nd.vr] = nd.lo, nd.hi
}

// finish assembles the Solution from the search state.
func (s *searcher) finish() *Solution {
	p := s.p
	sol := &Solution{
		Stats: Stats{
			Nodes:        s.nodes,
			SimplexIters: s.iters,
			WarmStarts:   s.warm,
			ColdStarts:   s.cold,
			Fallbacks:    s.recovered,
			Incumbents:   s.incumb,
			BranchProbes: s.probes,
			BlandIters:   s.bland,
		},
	}
	for j := 0; j < p.n; j++ {
		if s.pcDownN[j] > 0 && s.pcUpN[j] > 0 {
			sol.Stats.ReliableVars++
		}
	}
	inc := s.incObj
	haveInc := !math.IsInf(inc, 1)
	if !haveInc && s.exclusiveCutoff {
		// Nothing beat the caller's held solution: its objective stands as
		// the incumbent (with proof of optimality when the tree was
		// exhausted).
		sol.AtCutoff = true
		sol.Obj = p.externalObj(s.cutoff)
		if !s.limitHit {
			sol.Status = lp.StatusOptimal
			sol.Bound = sol.Obj
		} else {
			sol.Status = lp.StatusFeasible
			sol.Capped = true
			sol.Bound = p.externalObj(math.Min(s.openBound, s.cutoff))
			sol.Gap = math.Abs(sol.Obj - sol.Bound)
		}
		return sol
	}
	if haveInc {
		sol.Obj = p.externalObj(inc)
		sol.X = append([]float64(nil), s.incX...)
	}
	switch {
	case haveInc && !s.limitHit:
		sol.Status = lp.StatusOptimal
		sol.Bound = sol.Obj
	case haveInc:
		sol.Status = lp.StatusFeasible
		sol.Capped = true
		sol.Bound = p.externalObj(math.Min(s.openBound, inc))
		sol.Gap = math.Abs(sol.Obj - sol.Bound)
	case s.limitHit:
		sol.Status = lp.StatusLimit
		sol.Capped = true
		sol.Bound = p.externalObj(s.openBound)
	default:
		sol.Status = lp.StatusInfeasible
	}
	return sol
}
