// Package solvertest holds the independent oracle the MILP engine's tests
// compare against: exhaustive enumeration of small pure-integer programs. It
// shares no code with the engine, so agreement is evidence, not tautology.
package solvertest

import (
	"math"

	"regsat/internal/lp"
)

// Optimum is the brute-force answer for one model.
type Optimum struct {
	// Found is false when no integer point satisfies every row.
	Found bool
	// Obj is the optimal objective in model sense, offset included.
	Obj float64
	// X is one optimal assignment.
	X []float64
}

// BruteForce enumerates every integer assignment of m within its bounds and
// returns the best one. Every variable must be integer with finite bounds,
// and the box must be small: the cost is the product of the domain sizes.
func BruteForce(m *lp.Model) Optimum {
	n := m.NumVars()
	lo := make([]int64, n)
	hi := make([]int64, n)
	for j := 0; j < n; j++ {
		if !m.IsInteger(lp.Var(j)) {
			panic("solvertest: BruteForce needs a pure-integer model")
		}
		l, h := m.Bounds(lp.Var(j))
		lo[j], hi[j] = int64(l), int64(h)
	}
	x := make([]float64, n)
	var best Optimum
	better := func(obj float64) bool {
		if !best.Found {
			return true
		}
		if m.Sense() == lp.Maximize {
			return obj > best.Obj
		}
		return obj < best.Obj
	}
	var rec func(j int)
	rec = func(j int) {
		if j < n {
			for v := lo[j]; v <= hi[j]; v++ {
				x[j] = float64(v)
				rec(j + 1)
			}
			return
		}
		if !feasible(m, x) {
			return
		}
		obj := m.ObjOffset()
		for v := 0; v < n; v++ {
			obj += m.ObjCoef(lp.Var(v)) * x[v]
		}
		if better(obj) {
			best = Optimum{Found: true, Obj: obj, X: append([]float64(nil), x...)}
		}
	}
	rec(0)
	return best
}

// feasible reports whether x satisfies every row of m exactly (1e-9).
func feasible(m *lp.Model, x []float64) bool {
	for i := 0; i < m.NumConstrs(); i++ {
		terms, rel, rhs := m.Constr(i)
		lhs := 0.0
		for _, t := range terms {
			lhs += t.Coef * x[t.Var]
		}
		switch rel {
		case lp.LE:
			if lhs > rhs+1e-9 {
				return false
			}
		case lp.GE:
			if lhs < rhs-1e-9 {
				return false
			}
		default:
			if math.Abs(lhs-rhs) > 1e-9 {
				return false
			}
		}
	}
	return true
}
