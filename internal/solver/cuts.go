package solver

// Hint-driven cutting planes. Model builders (internal/rs, internal/reduce)
// know graph structure the matrix obscures — cliques of values that can
// never be simultaneously live, or that interfere in every schedule. They
// pass that structure down as Options.Hints; the cut layer turns it into
// clique inequalities Σ_{v∈C} x_v ≤ rhs, separates the violated ones at the
// root, and uses the same cliques for domain propagation at tree nodes. The
// generator never re-derives graph structure from the matrix.
//
// Hints are trusted valid: the builder asserts every hinted inequality
// holds for every integer-feasible point of the model it built. The layer
// still defends cheaply — non-binary variables disqualify a clique, and
// fixed variables are folded through the presolve column map.

import (
	"math"
	"slices"
	"sort"

	"regsat/internal/lp"
)

// Clique is one hinted set-packing inequality: at most RHS of the listed
// binary variables may be 1 in any integer-feasible solution.
type Clique struct {
	Vars []lp.Var
	RHS  int
}

// Hints carries builder-derived model structure into the solver.
type Hints struct {
	// Cliques derives the hinted cliques. The solver calls it at most once,
	// and only when the root LP did not already prove the prune target, so
	// a solve that ends at its root never pays for the derivation. Nil
	// means no cliques.
	Cliques func() []Clique
}

const (
	cutMaxRounds  = 8
	cutMaxAdded   = 500
	cutMinViol    = 1e-4
	cutIntegerTol = 1e-6
)

// cutClique is a clique remapped into reduced (post-presolve) column space.
type cutClique struct {
	cols []int // reduced column indices, ascending
	rhs  float64
	row  int // row index in the reduced problem once added, -1 otherwise
}

// remapCliques folds the hinted cliques through the presolve column map:
// variables fixed at 1 consume right-hand side, variables fixed at 0 drop
// out. Cliques that become trivial (fewer than two free members, or slack
// right-hand side covering all members) are discarded; a clique whose
// right-hand side goes negative proves infeasibility (the builder fixed
// more ones than the clique admits — presolve found a contradiction).
// The result is sorted by column list (ties in hint order), with later
// duplicates — same columns and same right-hand side — dropped.
func remapCliques(hinted []Clique, ps *presolved) (cliques []*cutClique, infeasible bool) {
	p := ps.p
	for _, c := range hinted {
		rhs := float64(c.RHS)
		cols := make([]int, 0, len(c.Vars))
		ok := true
		for _, v := range c.Vars {
			if int(v) < 0 || int(v) >= ps.nOrig {
				ok = false
				break
			}
			rc := ps.colMap[v]
			if rc < 0 {
				rhs -= ps.fixed[v]
				continue
			}
			if !p.integer[rc] || p.rootLo[rc] < 0 || p.rootHi[rc] > 1 {
				ok = false
				break
			}
			cols = append(cols, rc)
		}
		if !ok {
			continue
		}
		if rhs < -cutIntegerTol {
			return nil, true
		}
		if len(cols) < 2 || float64(len(cols)) <= rhs+cutIntegerTol {
			continue
		}
		sort.Ints(cols)
		cliques = append(cliques, &cutClique{cols: cols, rhs: rhs, row: -1})
	}
	slices.SortStableFunc(cliques, func(a, b *cutClique) int { return slices.Compare(a.cols, b.cols) })
	// Equal column lists are adjacent now, in hint order: keep the first
	// clique of each (columns, rhs) pair.
	out := cliques[:0]
	run := 0 // start in out of the current run of equal column lists
	for _, c := range cliques {
		if len(out) == 0 || !slices.Equal(out[len(out)-1].cols, c.cols) {
			run = len(out)
		} else if slices.ContainsFunc(out[run:], func(d *cutClique) bool { return d.rhs == c.rhs }) {
			continue
		}
		out = append(out, c)
	}
	for _, c := range out {
		c.rhs = math.Round(c.rhs)
	}
	return out, false
}

// rootSolve is the outcome of solveRoot.
type rootSolve struct {
	// st is the status of the last root LP solve: spxOptimal when root is
	// set; spxCutoff or spxInfeasible when the root LP settled the solve
	// (the search is skipped); spxIterLimit or spxCanceled when it stopped
	// short, and the search then handles the root like any node.
	st spxStatus
	// p is the problem the search runs on: the one passed in, grown by the
	// appended cut rows.
	p *prob
	// root is the solved root LP of p, which the search adopts for the
	// root node; nil unless st is spxOptimal.
	root *spx
	// cliques are the hinted cliques in reduced column space, derived once
	// the first root LP is solved without proving the prune target; nil
	// when the hints were never asked for.
	cliques []*cutClique
	added   int64 // cuts appended to the problem
	rounds  int64 // root LPs solved
	// rebuilt reports that separation stopped at a cap with cuts the LP had
	// not seen, and the grown root was solved again from a cold start.
	rebuilt bool
	// iters and blandIters total the simplex iterations of every root LP
	// solve; root's own counters are zeroed, so nothing is counted twice.
	iters, blandIters int64
}

// solveRoot solves the root LP relaxation of p, checking the dual
// objective against prune (internal sense; +inf disables it) on every
// iteration, so a root that cannot beat the incumbent or cutoff stops as
// soon as its bound proves it. When the LP is solved, the hinted cliques
// are derived (hints.Cliques, once) and remapped through ps, those the
// point violates are appended as rows of a grown copy of p, and the LP is
// reoptimized, until no violation remains or a round/cut cap is hit.
// Every round after the first extends the previous round's optimal
// tableau with the new cut rows (spx.addRows) and resumes the dual simplex
// from that basis; when a cap stops separation with cuts the LP has not
// seen, the grown root is solved once more from a cold start. x is scratch
// for the LP point, one entry per column of p.
func solveRoot(p *prob, hints *Hints, ps *presolved, x []float64, prune float64, cancelled func() bool) (r rootSolve) {
	r.p, r.st = p, spxCanceled
	if cancelled != nil && cancelled() {
		return r
	}
	cold := func(p *prob) *spx {
		w := newSpx(p)
		w.cancel = cancelled
		w.reset(p.rootLo, p.rootHi)
		return w
	}
	w := cold(p)
	if testHookNodeSolve != nil {
		testHookNodeSolve(w, &qnode{vr: -1, bound: math.Inf(-1)}, false)
	}
	derive := hints != nil && hints.Cliques != nil
	for round := 1; ; round++ {
		if r.st = r.solve(w, prune); r.st != spxOptimal {
			break
		}
		if derive {
			derive = false
			var bad bool
			if r.cliques, bad = remapCliques(hints.Cliques(), ps); bad {
				r.st = spxInfeasible
				break
			}
		}
		w.extract(x)
		p2, k := appendViolated(r.p, r.cliques, x, cutMaxAdded-r.added)
		if k == 0 {
			r.root = w
			return r
		}
		r.p = p2
		r.added += k
		if cancelled != nil && cancelled() {
			r.st = spxCanceled
			break
		}
		if r.added >= cutMaxAdded || round == cutMaxRounds {
			releaseSpx(w)
			w = cold(p2)
			r.rebuilt = true
			if r.st = r.solve(w, prune); r.st == spxOptimal {
				r.root = w
				return r
			}
			break
		}
		w.addRows(p2)
	}
	releaseSpx(w)
	return r
}

// solve runs one root LP solve on w and moves its iterations into r.
func (r *rootSolve) solve(w *spx, prune float64) spxStatus {
	w.pruneEvery = true
	st := w.dual(prune)
	w.pruneEvery = false
	r.rounds++
	r.iters += w.iters
	r.blandIters += w.blandIters
	w.iters, w.blandIters = 0, 0
	return st
}

// appendViolated returns p grown by one row per clique not yet added that x
// violates by more than cutMinViol, stopping after limit of them, and how
// many it appended. With none violated it returns p itself; otherwise p is
// left as it was (the grown copy appends past p's lengths).
func appendViolated(p *prob, cliques []*cutClique, x []float64, limit int64) (*prob, int64) {
	var k int64
	q := p
	for _, c := range cliques {
		if k >= limit {
			break
		}
		if c.row >= 0 {
			continue
		}
		act := 0.0
		for _, j := range c.cols {
			act += x[j]
		}
		if act > c.rhs+cutMinViol {
			if q == p {
				cp := *p
				q = &cp
			}
			c.row = q.m
			// A column listed twice sums its coefficients, as lp.AddConstr
			// would.
			for i := 0; i < len(c.cols); {
				j, coef := c.cols[i], 1.0
				for i++; i < len(c.cols) && c.cols[i] == j; i++ {
					coef++
				}
				q.rowCol = append(q.rowCol, int32(j))
				q.rowVal = append(q.rowVal, coef)
			}
			q.closeRow(lp.LE, c.rhs)
			q.m++
			q.N++
			k++
		}
	}
	return q, k
}

// activeCuts counts the added cuts tight at x (a reduced-space incumbent).
func activeCuts(cliques []*cutClique, x []float64) int64 {
	if x == nil {
		return 0
	}
	var n int64
	for _, c := range cliques {
		if c.row < 0 {
			continue
		}
		act := 0.0
		for _, j := range c.cols {
			act += x[j]
		}
		if act >= c.rhs-cutIntegerTol {
			n++
		}
	}
	return n
}

// cliqueIndex maps each reduced column to the cliques containing it, for
// node-level domain propagation: once the variables fixed to 1 in a clique
// reach its right-hand side, every other member must be 0.
type cliqueIndex struct {
	byCol map[int][]*cutClique
}

func buildCliqueIndex(cliques []*cutClique) *cliqueIndex {
	if len(cliques) == 0 {
		return nil
	}
	ix := &cliqueIndex{byCol: make(map[int][]*cutClique)}
	for _, c := range cliques {
		for _, j := range c.cols {
			ix.byCol[j] = append(ix.byCol[j], c)
		}
	}
	return ix
}
