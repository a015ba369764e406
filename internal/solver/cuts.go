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
	Cliques []Clique
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
func remapCliques(h *Hints, ps *presolved) (cliques []*cutClique, infeasible bool) {
	if h == nil {
		return nil, false
	}
	p := ps.p
	for _, c := range h.Cliques {
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

// separation is the outcome of root cut separation.
type separation struct {
	added  int64 // cuts appended to the problem
	rounds int64 // separation LPs solved
	// p is the problem the search runs on: the one passed in, grown by the
	// appended cut rows.
	p *prob
	// root is the solved root LP of p when separation converged (its last
	// round added no cut): the search adopts it for the root node instead
	// of solving the same LP again from a cold start. Nil when no round ran
	// to optimality or the last round added cuts; the tableau has then been
	// released.
	root *spx
	// iters and blandIters total the simplex iterations of every round's
	// solve; root's own counters are zeroed, so nothing is counted twice.
	iters, blandIters int64
}

// separateRoot solves the root LP relaxation of p, appends the hinted
// cliques the fractional point violates as rows of a grown copy of p, and
// reoptimizes, until no violation remains or a round/cut cap is hit. Every
// round after the first extends the previous round's optimal tableau with
// the new cut rows (spx.addRows) and resumes the dual simplex from that
// basis, so the root LP is solved cold only once.
func separateRoot(p *prob, cliques []*cutClique, cancelled func() bool) (sep separation) {
	sep.p = p
	if len(cliques) == 0 || (cancelled != nil && cancelled()) {
		return sep
	}
	w := newSpx(p)
	w.cancel = cancelled
	w.reset(p.rootLo, p.rootHi)
	for round := 1; ; round++ {
		st := w.dual(math.Inf(1))
		sep.rounds++
		sep.iters += w.iters
		sep.blandIters += w.blandIters
		w.iters, w.blandIters = 0, 0
		if st != spxOptimal {
			break
		}
		p2, k := appendViolated(sep.p, cliques, w.solution(), cutMaxAdded-sep.added)
		if k == 0 {
			sep.root = w
			return sep
		}
		sep.p = p2
		sep.added += k
		if sep.added >= cutMaxAdded || round == cutMaxRounds || (cancelled != nil && cancelled()) {
			break
		}
		w.addRows(p2)
	}
	releaseSpx(w)
	return sep
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
