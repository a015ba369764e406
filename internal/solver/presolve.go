package solver

// Presolve for the sparse engine: a fixpoint of cheap, provably
// equivalence-preserving reductions applied to a private copy of the model
// before branch and bound. The pass never touches the caller's lp.Model —
// it re-emits a reduced model the solver owns (so the cut layer may later
// append rows to it) together with a postsolve map that reconstructs the
// full original solution vector. Callers therefore see unchanged semantics:
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
	"encoding/binary"
	"math"
	"sort"

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
	m *lp.Model // reduced model, owned by the solver
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

// prow is presolve's mutable copy of one constraint.
type prow struct {
	terms []lp.Term
	rel   lp.Rel
	rhs   float64
	name  string
	dead  bool
}

// presolve runs the reduction fixpoint over m. With reductions false it
// still produces an owned copy (identity mapping) so downstream stages may
// mutate the result freely.
func presolve(m *lp.Model, intTol float64, reductions bool) *presolved {
	n := m.NumVars()
	ps := &presolved{nOrig: n, colMap: make([]int, n), fixed: make([]float64, n)}

	lo := make([]float64, n)
	hi := make([]float64, n)
	integer := make([]bool, n)
	fixedMask := make([]bool, n)
	for j := 0; j < n; j++ {
		lo[j], hi[j] = m.Bounds(lp.Var(j))
		integer[j] = m.IsInteger(lp.Var(j))
	}
	rows := make([]prow, m.NumConstrs())
	for i := range rows {
		terms, rel, rhs := m.Constr(i)
		cp := make([]lp.Term, len(terms))
		copy(cp, terms)
		rows[i] = prow{terms: cp, rel: rel, rhs: rhs, name: m.ConstrName(i)}
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
	if reductions {
		for pass := 0; pass < presolveMaxPasses && !ps.infeasible; pass++ {
			changed := false

			// Substitute fixed columns into every live row.
			for i := range rows {
				r := &rows[i]
				if r.dead {
					continue
				}
				kept := r.terms[:0]
				for _, t := range r.terms {
					if fixedMask[t.Var] {
						r.rhs -= t.Coef * ps.fixed[t.Var]
					} else {
						kept = append(kept, t)
					}
				}
				r.terms = kept
			}

			for i := range rows {
				r := &rows[i]
				if r.dead || ps.infeasible {
					continue
				}

				// Activity bounds of the live terms.
				minAct, maxAct := 0.0, 0.0
				for _, t := range r.terms {
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
				if len(r.terms) == 1 {
					t := r.terms[0]
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
				// activity of the rest of the row.
				propagate := func(le bool, rhs float64) {
					// le: Σ terms ≤ rhs semantics (GE rows pass the negated
					// view through this same path).
					for _, t := range r.terms {
						j := int(t.Var)
						c := t.Coef
						if !le {
							c = -c
						}
						var restMin float64
						ok := true
						for _, u := range r.terms {
							if u.Var == t.Var {
								continue
							}
							uc := u.Coef
							if !le {
								uc = -uc
							}
							var contrib float64
							if uc > 0 {
								contrib = uc * lo[u.Var]
							} else {
								contrib = uc * hi[u.Var]
							}
							if math.IsInf(contrib, 0) {
								ok = false
								break
							}
							restMin += contrib
						}
						if !ok {
							continue
						}
						limit := (rhs - restMin) / c
						if c > 0 {
							if limit < hi[j]-1e-9 {
								hi[j] = limit
								ps.tightenings++
								changed = true
							}
						} else {
							if limit > lo[j]+1e-9 {
								lo[j] = limit
								ps.tightenings++
								changed = true
							}
						}
						if !roundInt(j) {
							ps.infeasible = true
							return
						}
					}
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
					for _, t := range r.terms {
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
						for k := range r.terms {
							t := &r.terms[k]
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
						kept := r.terms[:0]
						for _, t := range r.terms {
							if t.Coef != 0 {
								kept = append(kept, t)
							}
						}
						r.terms = kept
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
			// only the tightest right-hand side.
			seen := make(map[string]int)
			var key []byte
			for i := range rows {
				r := &rows[i]
				if r.dead || len(r.terms) == 0 {
					continue
				}
				key = rowKey(key, r)
				if prev, ok := seen[string(key)]; ok {
					p := &rows[prev]
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
					continue
				}
				seen[string(key)] = i
			}

			if !changed {
				break
			}
		}
	}

	if ps.infeasible {
		return ps
	}

	// Re-emit the reduced model.
	red := lp.NewModel(m.Name(), m.Sense())
	off := m.ObjOffset()
	for j := 0; j < n; j++ {
		if fixedMask[j] {
			ps.colMap[j] = -1
			off += m.ObjCoef(lp.Var(j)) * ps.fixed[j]
			continue
		}
		ps.colMap[j] = int(red.NewVar(lo[j], hi[j], integer[j], m.VarName(lp.Var(j))))
	}
	red.SetObjOffset(off)
	for j := 0; j < n; j++ {
		if c := ps.colMap[j]; c >= 0 {
			if cf := m.ObjCoef(lp.Var(j)); cf != 0 {
				red.SetObjCoef(lp.Var(c), cf)
			}
		}
	}
	for i := range rows {
		r := &rows[i]
		if r.dead {
			continue
		}
		terms := make([]lp.Term, 0, len(r.terms))
		for _, t := range r.terms {
			if fixedMask[t.Var] {
				// A column fixed after the last substitution sweep.
				r.rhs -= t.Coef * ps.fixed[t.Var]
				continue
			}
			terms = append(terms, lp.Term{Var: lp.Var(ps.colMap[t.Var]), Coef: t.Coef})
		}
		red.AddConstr(terms, r.rel, r.rhs, r.name)
	}
	ps.m = red
	return ps
}

// rowKey canonicalizes a row's live terms and relation for duplicate
// detection into buf (reused across rows). Terms are already in ascending
// variable order (lp.AddConstr compacts them that way) but presolve's
// in-place filtering preserves any order, so sort defensively. The key is
// fixed-width binary — the relation byte, then 8 bytes of variable and 8 of
// coefficient bits per term — so two rows share a key only when equal.
func rowKey(buf []byte, r *prow) []byte {
	terms := r.terms
	if !sort.SliceIsSorted(terms, func(a, b int) bool { return terms[a].Var < terms[b].Var }) {
		cp := make([]lp.Term, len(terms))
		copy(cp, terms)
		sort.Slice(cp, func(a, b int) bool { return cp[a].Var < cp[b].Var })
		terms = cp
	}
	buf = append(buf[:0], byte(r.rel))
	for _, t := range terms {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Var))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Coef))
	}
	return buf
}
