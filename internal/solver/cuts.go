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
	"fmt"
	"math"
	"sort"

	"regsat/internal/lp"
)

// Clique is one hinted set-packing inequality: at most RHS of the listed
// binary variables may be 1 in any integer-feasible solution.
type Clique struct {
	Name string
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
	name string
	cols []int // reduced column indices, ascending
	rhs  float64
	row  int // row index in the reduced model once added, -1 otherwise
}

// remapCliques folds the hinted cliques through the presolve column map:
// variables fixed at 1 consume right-hand side, variables fixed at 0 drop
// out. Cliques that become trivial (fewer than two free members, or slack
// right-hand side covering all members) are discarded; a clique whose
// right-hand side goes negative proves infeasibility (the builder fixed
// more ones than the clique admits — presolve found a contradiction).
// The result is deterministically ordered.
func remapCliques(h *Hints, ps *presolved) (cliques []*cutClique, infeasible bool) {
	if h == nil {
		return nil, false
	}
	seen := make(map[string]bool, len(h.Cliques))
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
			if lo, hi := ps.m.Bounds(lp.Var(rc)); !ps.m.IsInteger(lp.Var(rc)) || lo < 0 || hi > 1 {
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
		key := fmt.Sprintf("%v|%g", cols, rhs)
		if seen[key] {
			continue
		}
		seen[key] = true
		cliques = append(cliques, &cutClique{name: c.Name, cols: cols, rhs: math.Round(rhs), row: -1})
	}
	sort.SliceStable(cliques, func(a, b int) bool {
		ca, cb := cliques[a], cliques[b]
		for i := 0; i < len(ca.cols) && i < len(cb.cols); i++ {
			if ca.cols[i] != cb.cols[i] {
				return ca.cols[i] < cb.cols[i]
			}
		}
		return len(ca.cols) < len(cb.cols)
	})
	return cliques, false
}

// separation is the outcome of root cut separation.
type separation struct {
	added  int64 // cuts appended to the model
	rounds int64 // separation LPs solved
	// root is the solved root LP of the final model when separation
	// converged (its last round added no cut): the search adopts it for the
	// root node instead of solving the same LP again from a cold start. Nil
	// when no round ran to optimality or the last round added cuts; the
	// tableau has then been released.
	root *spx
	// iters and blandIters total the simplex iterations of every round's
	// solve; root's own counters are zeroed, so nothing is counted twice.
	iters, blandIters int64
}

// separateRoot solves the root LP relaxation of rm, appends the hinted
// cliques the fractional point violates, and reoptimizes, until no violation
// remains or a round/cut cap is hit. rm is solver-owned (presolve always
// re-emits), so appending rows is safe. p must be the sparse form of rm as
// passed. Every round after the first extends the previous round's optimal
// tableau with the new cut rows (spx.addRows) and resumes the dual simplex
// from that basis, so the root LP is solved cold only once.
func separateRoot(rm *lp.Model, p *prob, cliques []*cutClique, cancelled func() bool) (sep separation) {
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
		k := appendViolated(rm, cliques, w.solution(), cutMaxAdded-sep.added)
		if k == 0 {
			sep.root = w
			return sep
		}
		sep.added += k
		if sep.added >= cutMaxAdded || round == cutMaxRounds || (cancelled != nil && cancelled()) {
			break
		}
		p2, err := buildProb(rm)
		if err != nil {
			break
		}
		w.addRows(p2)
	}
	releaseSpx(w)
	return sep
}

// appendViolated appends to rm, as rows, the cliques not yet added that x
// violates by more than cutMinViol, stopping after limit of them, and
// returns how many it appended.
func appendViolated(rm *lp.Model, cliques []*cutClique, x []float64, limit int64) int64 {
	var k int64
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
			terms := make([]lp.Term, len(c.cols))
			for i, j := range c.cols {
				terms[i] = lp.Term{Var: lp.Var(j), Coef: 1}
			}
			c.row = rm.AddConstr(terms, lp.LE, c.rhs, c.name)
			k++
		}
	}
	return k
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
