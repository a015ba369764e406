package solver

// Presolve for the sparse engine: a fixpoint of cheap, provably
// equivalence-preserving reductions applied to one flat copy of the model
// before branch and bound. The pass never touches the caller's lp.Model —
// it writes the reduced problem straight into the engine's sparse form
// (prob), which the solver owns (so the cut layer may later append rows to
// it), together with a postsolve map that reconstructs the full original
// solution vector. Callers therefore see unchanged semantics:
// same optimum, same X length, same variable order.
//
// Reductions, iterated to a fixpoint (bounded pass count):
//
//   - activity-based bound propagation with integer rounding;
//   - fixed-variable elimination (lo == hi), substituting into every row and
//     the objective (the fixed objective contribution moves into ObjOffset);
//   - empty-row feasibility checks, singleton rows folded into bounds;
//   - redundant rows (activity bounds already imply the row) dropped;
//   - duplicate rows (identical term vectors and relation) merged, keeping
//     the tightest right-hand side;
//   - coefficient tightening on binary variables in inequality rows
//     (Savelsbergh): if the row's maximum activity u exceeds b but drops to
//     at most b when a binary with coefficient a flips off (u − a ≤ b), the
//     coefficient shrinks to a' = u − b with b' unchanged — the same integer
//     set, a strictly tighter LP relaxation.
//
// Presolve can also prove infeasibility outright (conflicting bounds,
// unsatisfiable empty rows, contradictory duplicate equations).

import (
	"fmt"
	"math"

	"regsat/internal/lp"
)

const (
	presolveMaxPasses = 10
	// presolveFeasTol matches the simplex feasibility tolerance: presolve
	// must not declare infeasible anything the engine would accept.
	presolveFeasTol = spxFeasTol
)

// presolved is the outcome of one presolve run.
type presolved struct {
	p *prob // reduced problem, owned by the solver
	// colMap maps original columns to reduced ones, -1 for eliminated
	// columns whose value is in fixed.
	colMap []int
	fixed  []float64
	nOrig  int

	rows        int64 // rows removed
	cols        int64 // columns eliminated
	tightenings int64 // bound + coefficient tightenings
	infeasible  bool
}

// stats renders the pass counters as a Stats fragment.
func (ps *presolved) stats() Stats {
	return Stats{
		PresolveRows:        ps.rows,
		PresolveCols:        ps.cols,
		PresolveTightenings: ps.tightenings,
	}
}

// postsolve lifts a reduced-space assignment back to the original variable
// order, filling eliminated columns with their fixed values.
func (ps *presolved) postsolve(x []float64) []float64 {
	if x == nil {
		return nil
	}
	out := make([]float64, ps.nOrig)
	for j := 0; j < ps.nOrig; j++ {
		if c := ps.colMap[j]; c >= 0 {
			out[j] = x[c]
		} else {
			out[j] = ps.fixed[j]
		}
	}
	return out
}

// prow is presolve's mutable view of one constraint: its live terms are
// terms[start:end] of the presolve arena, in ascending column order.
type prow struct {
	start, end int
	rel        lp.Rel
	rhs        float64
	hash       uint64 // duplicate-detection hash of the live terms and rel
	dead       bool
}

// presolve runs the reduction fixpoint over m on fresh storage (see
// workspace.presolve).
func presolve(m *lp.Model, reductions bool) (*presolved, error) {
	return new(workspace).presolve(m, reductions)
}

// presolve runs the reduction fixpoint over m and writes the reduced
// problem straight into sparse form (ps.p). With reductions false the
// problem is an identity copy of m. It fails only when the reduced problem
// has a cost-bearing column unbounded on its improving side or a free
// column, which the dual simplex cannot cold-start. The outcome, its
// problem included, lives in ws.
func (ws *workspace) presolve(m *lp.Model, reductions bool) (*presolved, error) {
	n := m.NumVars()
	ws.ps = presolved{nOrig: n, colMap: resize(ws.ps.colMap, n), fixed: resize(ws.ps.fixed, n)}
	ps := &ws.ps
	clear(ps.fixed)

	// One flat copy of the model: column bounds and flags, the term arena,
	// and per-row headers into it.
	ws.bounds, ws.flags = resize(ws.bounds, 2*n), resize(ws.flags, 2*n)
	lo, hi := ws.bounds[:n:n], ws.bounds[n:]
	integer, fixedMask := ws.flags[:n:n], ws.flags[n:]
	clear(fixedMask)
	for j := 0; j < n; j++ {
		lo[j], hi[j] = m.Bounds(lp.Var(j))
		integer[j] = m.IsInteger(lp.Var(j))
	}
	ws.terms = resize(ws.terms, m.NumNonzeros())
	terms := ws.terms[:0]
	ws.rows = resize(ws.rows, m.NumConstrs())
	rows := ws.rows
	for i := range rows {
		ts, rel, rhs := m.Constr(i)
		start := len(terms)
		terms = append(terms, ts...)
		rows[i] = prow{start: start, end: len(terms), rel: rel, rhs: rhs}
	}

	// roundInt snaps integer bounds to the integer lattice; returns false on
	// an empty domain.
	roundInt := func(j int) bool {
		if integer[j] {
			lo[j] = math.Ceil(lo[j] - intTol)
			hi[j] = math.Floor(hi[j] + intTol)
		}
		return lo[j] <= hi[j]+presolveFeasTol
	}
	// fix eliminates column j at value v.
	fix := func(j int, v float64) {
		if integer[j] {
			v = math.Round(v)
		}
		fixedMask[j] = true
		ps.fixed[j] = v
		lo[j], hi[j] = v, v
		ps.cols++
	}
	var table []int32 // duplicate-row hash table, reused across passes
	if reductions {
		for pass := 0; pass < presolveMaxPasses && !ps.infeasible; pass++ {
			changed := false

			// Substitute fixed columns into every live row.
			for i := range rows {
				r := &rows[i]
				if r.dead {
					continue
				}
				kept := terms[r.start:r.start]
				for _, t := range terms[r.start:r.end] {
					if fixedMask[t.Var] {
						r.rhs -= t.Coef * ps.fixed[t.Var]
					} else {
						kept = append(kept, t)
					}
				}
				r.end = r.start + len(kept)
			}

			for i := range rows {
				r := &rows[i]
				if r.dead || ps.infeasible {
					continue
				}
				rt := terms[r.start:r.end]

				// Activity bounds of the live terms.
				minAct, maxAct := 0.0, 0.0
				for _, t := range rt {
					if t.Coef > 0 {
						minAct += t.Coef * lo[t.Var]
						maxAct += t.Coef * hi[t.Var]
					} else {
						minAct += t.Coef * hi[t.Var]
						maxAct += t.Coef * lo[t.Var]
					}
				}
				tol := presolveFeasTol * (1 + math.Abs(r.rhs))

				// Feasibility and redundancy from activity bounds.
				switch r.rel {
				case lp.LE:
					if minAct > r.rhs+tol {
						ps.infeasible = true
						continue
					}
					if maxAct <= r.rhs+tol {
						r.dead = true
						ps.rows++
						changed = true
						continue
					}
				case lp.GE:
					if maxAct < r.rhs-tol {
						ps.infeasible = true
						continue
					}
					if minAct >= r.rhs-tol {
						r.dead = true
						ps.rows++
						changed = true
						continue
					}
				case lp.EQ:
					if minAct > r.rhs+tol || maxAct < r.rhs-tol {
						ps.infeasible = true
						continue
					}
					if maxAct-minAct <= tol && math.Abs(minAct-r.rhs) <= tol {
						r.dead = true
						ps.rows++
						changed = true
						continue
					}
				}

				// Singleton rows fold into a bound.
				if len(rt) == 1 {
					t := rt[0]
					j := int(t.Var)
					v := r.rhs / t.Coef
					newLo, newHi := lo[j], hi[j]
					switch {
					case r.rel == lp.EQ:
						newLo, newHi = math.Max(newLo, v), math.Min(newHi, v)
					case (r.rel == lp.LE) == (t.Coef > 0):
						newHi = math.Min(newHi, v)
					default:
						newLo = math.Max(newLo, v)
					}
					if newLo > lo[j]+1e-12 || newHi < hi[j]-1e-12 {
						lo[j], hi[j] = newLo, newHi
						ps.tightenings++
						if !roundInt(j) {
							ps.infeasible = true
							continue
						}
					}
					r.dead = true
					ps.rows++
					changed = true
					continue
				}

				// Bound propagation: each variable against the residual
				// activity of the rest of the row (GE rows and the GE side
				// of EQ rows through the negated ≤ view).
				propagate := func(le bool, rhs float64) {
					k, ok := propagateRow(rt, le, rhs, lo, hi, roundInt)
					ps.tightenings += k
					changed = changed || k > 0
					ps.infeasible = !ok
				}
				switch r.rel {
				case lp.LE:
					propagate(true, r.rhs)
				case lp.GE:
					propagate(false, -r.rhs)
				case lp.EQ:
					propagate(true, r.rhs)
					if !ps.infeasible {
						propagate(false, -r.rhs)
					}
				}
				if ps.infeasible {
					continue
				}

				// Coefficient tightening for binaries in inequality rows.
				if r.rel != lp.EQ {
					le := r.rel == lp.LE
					// Recompute the ≤-view maximum activity after the bound
					// updates above.
					u := 0.0
					finite := true
					for _, t := range rt {
						c := t.Coef
						if !le {
							c = -c
						}
						var contrib float64
						if c > 0 {
							contrib = c * hi[t.Var]
						} else {
							contrib = c * lo[t.Var]
						}
						if math.IsInf(contrib, 0) {
							finite = false
							break
						}
						u += contrib
					}
					b := r.rhs
					if !le {
						b = -b
					}
					if finite && u > b+tol {
						for k := range rt {
							t := &rt[k]
							j := int(t.Var)
							if !integer[j] || lo[j] != 0 || hi[j] != 1 {
								continue
							}
							a := t.Coef
							if !le {
								a = -a
							}
							if a > 0 && u-a <= b+tol && u-b < a-1e-9 {
								// a' = u − b with b' = b − (a − a') keeps the
								// integer set (x=1 still forces rest ≤ b − a;
								// x=0 allows rest up to its own max activity)
								// while cutting fractional points. Both the
								// max activity and the rhs drop by a − a',
								// so u − b is invariant and further binaries
								// of the row tighten against the new pair.
								na := u - b
								if na < 1e-9 {
									na = 0
								}
								if le {
									t.Coef = na
								} else {
									t.Coef = -na
								}
								b -= a - na
								if le {
									r.rhs = b
								} else {
									r.rhs = -b
								}
								u -= a - na
								ps.tightenings++
								changed = true
							}
						}
						// Dropped-to-zero coefficients leave the row.
						kept := rt[:0]
						for _, t := range rt {
							if t.Coef != 0 {
								kept = append(kept, t)
							}
						}
						r.end = r.start + len(kept)
					}
				}
			}
			if ps.infeasible {
				break
			}

			// Newly fixed columns (bounds collapsed by propagation).
			for j := 0; j < n; j++ {
				if fixedMask[j] {
					continue
				}
				if integer[j] {
					if !roundInt(j) {
						ps.infeasible = true
						break
					}
					if lo[j] >= hi[j]-intTol {
						fix(j, lo[j])
						changed = true
					}
				} else if hi[j]-lo[j] <= 1e-12 {
					fix(j, (lo[j]+hi[j])/2)
					changed = true
				}
			}
			if ps.infeasible {
				break
			}

			// Duplicate rows: identical live term vectors and relation keep
			// only the tightest right-hand side. Rows go into an
			// open-addressing table by a 64-bit hash; a hit counts only
			// after an exact comparison, so colliding rows are both kept.
			if table == nil {
				size := 4
				for size < 2*len(rows) {
					size *= 2
				}
				ws.table = resize(ws.table, size)
				table = ws.table
			}
			for k := range table {
				table[k] = -1
			}
			mask := uint64(len(table) - 1)
			for i := range rows {
				r := &rows[i]
				if r.dead || r.end == r.start {
					continue
				}
				r.hash = rowHash(r.rel, terms[r.start:r.end])
				slot := r.hash & mask
				for ; table[slot] >= 0; slot = (slot + 1) & mask {
					p := &rows[table[slot]]
					if p.hash != r.hash || !sameRow(p, r, terms) {
						continue
					}
					switch r.rel {
					case lp.LE:
						p.rhs = math.Min(p.rhs, r.rhs)
					case lp.GE:
						p.rhs = math.Max(p.rhs, r.rhs)
					case lp.EQ:
						if math.Abs(p.rhs-r.rhs) > presolveFeasTol*(1+math.Abs(p.rhs)) {
							ps.infeasible = true
						}
					}
					r.dead = true
					ps.rows++
					changed = true
					break
				}
				if !r.dead {
					table[slot] = int32(i)
				}
			}

			if !changed {
				break
			}
		}
	}

	if ps.infeasible {
		return ps, nil
	}
	if err := ws.emitProb(m, lo, hi, integer, fixedMask, terms, rows); err != nil {
		return nil, err
	}
	ps.p = &ws.p
	return ps, nil
}

// emitProb writes the reduced problem in sparse form into ws.p: the
// surviving columns in original order (recording colMap), the live rows
// with columns fixed since the last substitution sweep folded into their
// right-hand sides, the internal-sense costs, and the objective offset
// including the fixed columns' contribution. Errors name columns through
// the original model.
func (ws *workspace) emitProb(m *lp.Model, lo, hi []float64, integer, fixedMask []bool, terms []lp.Term, rows []prow) error {
	ps := &ws.ps
	n := 0
	off := m.ObjOffset()
	for j := range ps.colMap {
		if fixedMask[j] {
			ps.colMap[j] = -1
			off += m.ObjCoef(lp.Var(j)) * ps.fixed[j]
			continue
		}
		ps.colMap[j] = n
		n++
	}
	nr, nnz := 0, 0
	for i := range rows {
		r := &rows[i]
		if r.dead {
			continue
		}
		kept := terms[r.start:r.start]
		for _, t := range terms[r.start:r.end] {
			if fixedMask[t.Var] {
				// A column fixed after the last substitution sweep.
				r.rhs -= t.Coef * ps.fixed[t.Var]
			} else if t.Coef != 0 {
				kept = append(kept, t)
			}
		}
		r.end = r.start + len(kept)
		nr++
		nnz += len(kept)
	}

	// Every row array has storage of its own: a grown copy's appended cut
	// rows go into its spare capacity or reallocate, never into another
	// array.
	p := &ws.p
	*p = prob{
		sense:     m.Sense(),
		objOffset: off,
		n:         n,
		m:         nr,
		N:         n + nr,
		rowPtr:    append(resize(p.rowPtr, nr+1)[:0], 0),
		rowCol:    resize(p.rowCol, nnz)[:0],
		rowVal:    resize(p.rowVal, nnz)[:0],
		rhs:       resize(p.rhs, nr)[:0],
		rel:       resize(p.rel, nr)[:0],
		slackLo:   resize(p.slackLo, nr)[:0],
		slackHi:   resize(p.slackHi, nr)[:0],
		cost:      resize(p.cost, n),
		rootLo:    resize(p.rootLo, n),
		rootHi:    resize(p.rootHi, n),
		integer:   resize(p.integer, n),
	}
	for i := range rows {
		r := &rows[i]
		if r.dead {
			continue
		}
		for _, t := range terms[r.start:r.end] {
			p.rowCol = append(p.rowCol, int32(ps.colMap[t.Var]))
			p.rowVal = append(p.rowVal, t.Coef)
		}
		p.closeRow(r.rel, r.rhs)
	}

	maximize := p.sense == lp.Maximize
	p.intObj = true
	for j, c := range ps.colMap {
		if c < 0 {
			continue
		}
		// Every zero cost loads as +0 whatever its sign bit (−0 once
		// negated for Maximize), so equal models load bit-identical.
		cost := 0.0
		if cf := m.ObjCoef(lp.Var(j)); cf != 0 {
			cost = cf
		}
		if maximize {
			cost = -cost
		}
		p.cost[c] = cost
		p.rootLo[c], p.rootHi[c] = lo[j], hi[j]
		p.integer[c] = integer[j]
		if cost != 0 && (!integer[j] || cost != math.Trunc(cost)) {
			p.intObj = false
		}
		// A dual-feasible cold start needs a finite bound on the side the
		// reduced-cost sign demands. Every variable of the paper's models is
		// bounded by the schedule horizon, so only hand-built models get here.
		switch {
		case cost > spxDualTol && math.IsInf(lo[j], 0):
			return unboundedVarError(m, j, "lower")
		case cost < -spxDualTol && math.IsInf(hi[j], 0):
			return unboundedVarError(m, j, "upper")
		case math.IsInf(lo[j], 0) && math.IsInf(hi[j], 0):
			return fmt.Errorf("solver: model %s: variable %s is free (no finite bound)",
				m.Name(), m.VarName(lp.Var(j)))
		}
	}
	return nil
}

// unboundedVarError reports a cost-bearing variable whose bound on the
// objective's improving side ("lower" or "upper") is infinite.
func unboundedVarError(m *lp.Model, j int, side string) error {
	v := lp.Var(j)
	return fmt.Errorf("solver: model %s: variable %s has objective coefficient %g but no finite %s bound",
		m.Name(), m.VarName(v), m.ObjCoef(v), side)
}

// testHookRowHash, when set, replaces every duplicate-detection hash. Tests
// use it to force collisions; it is nil in production.
var testHookRowHash func(h uint64) uint64

// rowHash is a 64-bit hash of a row's relation and live terms (column and
// coefficient bits). Each word is folded in by a multiply and a high-to-low
// xor-shift, so coefficients that differ only in high bits (the sign, the
// exponent) still spread over the bits the table indexes by.
func rowHash(rel lp.Rel, ts []lp.Term) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(rel) + 1
	mix := func(w uint64) {
		h = (h ^ w) * k
		h ^= h >> 32
	}
	for _, t := range ts {
		mix(uint64(t.Var))
		mix(math.Float64bits(t.Coef))
	}
	if testHookRowHash != nil {
		h = testHookRowHash(h)
	}
	return h
}

// sameRow reports whether rows a and b have the same relation and the same
// live terms, coefficients compared bit for bit.
func sameRow(a, b *prow, terms []lp.Term) bool {
	if a.rel != b.rel || a.end-a.start != b.end-b.start {
		return false
	}
	at, bt := terms[a.start:a.end], terms[b.start:b.end]
	for k := range at {
		if at[k].Var != bt[k].Var || math.Float64bits(at[k].Coef) != math.Float64bits(bt[k].Coef) {
			return false
		}
	}
	return true
}

// propagateRow tightens each variable of the row rt against the residual
// minimum activity of the rest of the row, in the row's ≤ view
// Σ c·x ≤ rhs (le false negates every coefficient: the ≥ side of a row,
// with rhs negated by the caller). Terms are visited in order, each against
// the bounds as the earlier terms left them, and roundInt snaps every
// visited variable to the integer lattice. It returns the number of bound
// tightenings, and false as soon as a domain empties.
//
// The row's minimum activity is kept as a finite sum plus a count of the
// infinite contributions, so each residual is that sum minus the term's own
// contribution (or the finite sum alone when the term's own contribution is
// the only infinite one) instead of a rescan of the row. When a visited
// variable's bounds move, the sum follows. On integral rows, such as every
// paper model's, all these sums are exact and the residuals equal those of a
// rescan bit for bit (TestPropagateRowMatchesRescan).
func propagateRow(rt []lp.Term, le bool, rhs float64, lo, hi []float64, roundInt func(int) bool) (tightenings int64, ok bool) {
	sum, inf := 0.0, 0
	for _, t := range rt {
		c := t.Coef
		if !le {
			c = -c
		}
		if v := minContrib(c, lo[t.Var], hi[t.Var]); math.IsInf(v, 0) {
			inf++
		} else {
			sum += v
		}
	}
	for _, t := range rt {
		j := int(t.Var)
		c := t.Coef
		if !le {
			c = -c
		}
		own := minContrib(c, lo[j], hi[j])
		ownInf := math.IsInf(own, 0)
		var restMin float64
		switch {
		case inf == 0:
			restMin = sum - own
		case inf == 1 && ownInf:
			restMin = sum
		default:
			continue
		}
		limit := (rhs - restMin) / c
		if c > 0 {
			if limit < hi[j]-1e-9 {
				hi[j] = limit
				tightenings++
			}
		} else if limit > lo[j]+1e-9 {
			lo[j] = limit
			tightenings++
		}
		if !roundInt(j) {
			return tightenings, false
		}
		if v := minContrib(c, lo[j], hi[j]); v != own {
			if ownInf {
				inf--
			} else {
				sum -= own
			}
			if math.IsInf(v, 0) {
				inf++
			} else {
				sum += v
			}
		}
	}
	return tightenings, true
}

// minContrib is a term's contribution, coefficient c over [lo, hi], to a
// row's minimum activity.
func minContrib(c, lo, hi float64) float64 {
	if c > 0 {
		return c * lo
	}
	return c * hi
}
