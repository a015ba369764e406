// Package ilp provides the "linear writing" of logical formulas (⇒, ⇔, ∨, ∧)
// and of the max operator used by the paper's intLP formulations. Following
// Touati's thesis [15], each logical construct is rewritten with extra binary
// variables and big-M constants derived from the *finite* bounds of the
// participating expressions — finiteness is guaranteed in the paper by the
// worst-case schedule horizon T.
//
// All constructs are expressed over integer-valued affine expressions; the
// negation of (e ≥ 0) is encoded as (e ≤ −1), exactly as the paper negates
// k_u ≤ σ_v + δw(v) into k_u − σ_v − δw(v) − 1 ≥ 0.
package ilp

import (
	"math"
	"strconv"

	"regsat/internal/lp"
)

// Expr is an affine integer expression Σ coef·var + Const.
type Expr struct {
	Terms []lp.Term
	Const float64
}

// NewExpr builds an expression from a constant and terms.
func NewExpr(c float64, terms ...lp.Term) Expr {
	return Expr{Terms: append([]lp.Term(nil), terms...), Const: c}
}

// VarExpr is the expression consisting of a single variable.
func VarExpr(v lp.Var) Expr { return Expr{Terms: []lp.Term{{Var: v, Coef: 1}}} }

// Plus returns e + other.
func (e Expr) Plus(other Expr) Expr {
	return Expr{
		Terms: append(append([]lp.Term(nil), e.Terms...), other.Terms...),
		Const: e.Const + other.Const,
	}
}

// Minus returns e − other.
func (e Expr) Minus(other Expr) Expr {
	out := Expr{Terms: append([]lp.Term(nil), e.Terms...), Const: e.Const - other.Const}
	for _, t := range other.Terms {
		out.Terms = append(out.Terms, lp.Term{Var: t.Var, Coef: -t.Coef})
	}
	return out
}

// AddConst returns e + c.
func (e Expr) AddConst(c float64) Expr {
	return Expr{Terms: append([]lp.Term(nil), e.Terms...), Const: e.Const + c}
}

// Diff is the expression a − b + c, the shape of every precedence and
// interference body of the paper's models, built in one step.
func Diff(a, b lp.Var, c float64) Expr {
	return Expr{Terms: []lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: -1}}, Const: c}
}

// withTerm returns e's terms followed by coef·v in buf when they fit, so
// the helpers below never write into the caller's backing array and make
// no garbage for the short expressions of the paper's models.
func withTerm(buf []lp.Term, e Expr, v lp.Var, coef float64) []lp.Term {
	return append(append(buf[:0], e.Terms...), lp.Term{Var: v, Coef: coef})
}

// Bounds computes finite lower and upper bounds of e from the variable bounds
// declared in the model. Duplicate terms on the same variable are merged
// first (summed in input order, contributions added in order of first
// appearance), so e.g. x − x is bounded by [0,0]. It panics if any
// participating variable bound is infinite, because the linearization
// requires finite big-M constants.
func Bounds(m *lp.Model, e Expr) (lo, hi float64) {
	lo, hi = e.Const, e.Const
	ts := e.Terms
next:
	for i, t := range ts {
		for _, u := range ts[:i] {
			if u.Var == t.Var {
				continue next // merged into its first occurrence
			}
		}
		coef := t.Coef
		for _, u := range ts[i+1:] {
			if u.Var == t.Var {
				coef += u.Coef
			}
		}
		if coef == 0 {
			continue
		}
		vlo, vhi := m.Bounds(t.Var)
		if math.IsInf(vlo, 0) || math.IsInf(vhi, 0) {
			panic("ilp: variable " + m.VarName(t.Var) + " has infinite bounds")
		}
		if coef >= 0 {
			lo += coef * vlo
			hi += coef * vhi
		} else {
			lo += coef * vhi
			hi += coef * vlo
		}
	}
	return lo, hi
}

// GE adds the plain constraint e ≥ 0.
func GE(m *lp.Model, e Expr) {
	m.AddConstr(e.Terms, lp.GE, -e.Const)
}

// LE adds the plain constraint e ≤ 0.
func LE(m *lp.Model, e Expr) {
	m.AddConstr(e.Terms, lp.LE, -e.Const)
}

// EQ adds the plain constraint e = 0.
func EQ(m *lp.Model, e Expr) {
	m.AddConstr(e.Terms, lp.EQ, -e.Const)
}

// ImpliesGE encodes b = 1 ⇒ e ≥ 0 for a binary variable b:
//
//	e ≥ lo(e)·(1 − b)
//
// When b = 0 the constraint relaxes to the always-true e ≥ lo(e).
func ImpliesGE(m *lp.Model, b lp.Var, e Expr) {
	lo, _ := Bounds(m, e)
	if lo >= 0 {
		return // e ≥ 0 holds unconditionally
	}
	// e − lo + lo·b ≥ 0  ⇔  Σterms + lo·b ≥ lo − const
	var buf [4]lp.Term
	m.AddConstr(withTerm(buf[:], e, b, lo), lp.GE, lo-e.Const)
}

// ImpliesGEWhenZero encodes b = 0 ⇒ e ≥ 0 for a binary variable b:
//
//	e ≥ lo(e)·b.
func ImpliesGEWhenZero(m *lp.Model, b lp.Var, e Expr) {
	lo, _ := Bounds(m, e)
	if lo >= 0 {
		return
	}
	// e − lo·b ≥ 0  ⇔  Σterms − lo·b ≥ −const
	var buf [4]lp.Term
	m.AddConstr(withTerm(buf[:], e, b, -lo), lp.GE, -e.Const)
}

// ImpliesLE encodes b = 1 ⇒ e ≤ 0 for a binary variable b.
func ImpliesLE(m *lp.Model, b lp.Var, e Expr) {
	_, hi := Bounds(m, e)
	if hi <= 0 {
		return
	}
	// e ≤ hi·(1 − b)  ⇔  Σterms + hi·b ≤ hi − const
	var buf [4]lp.Term
	m.AddConstr(withTerm(buf[:], e, b, hi), lp.LE, hi-e.Const)
}

// IffGE creates and returns a fresh binary b named name with b = 1 ⇔ e ≥ 0,
// where e is integer-valued (so that ¬(e ≥ 0) is e ≤ −1):
//
//	b = 1 ⇒ e ≥ 0     and     b = 0 ⇒ e ≤ −1.
func IffGE(m *lp.Model, e Expr, name string) lp.Var {
	b := m.NewBinary(name)
	ImpliesGE(m, b, e)
	// b = 0 ⇒ e + 1 ≤ 0, i.e. (1−b) = 1 ⇒ e + 1 ≤ 0: e + 1 ≤ (hi+1)·b.
	lo, hi := Bounds(m, e)
	if hi <= -1 {
		// e ≥ 0 can never hold: force b = 0.
		m.AddConstr([]lp.Term{{Var: b, Coef: 1}}, lp.EQ, 0)
		return b
	}
	if lo >= 0 {
		// e ≥ 0 always: force b = 1.
		m.AddConstr([]lp.Term{{Var: b, Coef: 1}}, lp.EQ, 1)
		return b
	}
	var buf [4]lp.Term
	m.AddConstr(withTerm(buf[:], e, b, -(hi+1)), lp.LE, -1-e.Const)
	return b
}

// AndBinary creates and returns a fresh binary c = a ∧ b named name:
//
//	c ≥ a + b − 1,  c ≤ a,  c ≤ b.
func AndBinary(m *lp.Model, a, b lp.Var, name string) lp.Var {
	c := m.NewBinary(name)
	m.AddConstr([]lp.Term{{Var: c, Coef: 1}, {Var: a, Coef: -1}, {Var: b, Coef: -1}}, lp.GE, -1)
	m.AddConstr([]lp.Term{{Var: c, Coef: 1}, {Var: a, Coef: -1}}, lp.LE, 0)
	m.AddConstr([]lp.Term{{Var: c, Coef: 1}, {Var: b, Coef: -1}}, lp.LE, 0)
	return c
}

// OrBinary creates and returns a fresh binary c = a ∨ b named name:
//
//	c ≤ a + b,  c ≥ a,  c ≥ b.
func OrBinary(m *lp.Model, a, b lp.Var, name string) lp.Var {
	c := m.NewBinary(name)
	m.AddConstr([]lp.Term{{Var: c, Coef: 1}, {Var: a, Coef: -1}, {Var: b, Coef: -1}}, lp.LE, 0)
	m.AddConstr([]lp.Term{{Var: c, Coef: 1}, {Var: a, Coef: -1}}, lp.GE, 0)
	m.AddConstr([]lp.Term{{Var: c, Coef: 1}, {Var: b, Coef: -1}}, lp.GE, 0)
	return c
}

// OrGE enforces the disjunction e₁ ≥ 0 ∨ e₂ ≥ 0 ∨ … with one fresh binary
// per disjunct (named name/or0, name/or1, …) and Σ bᵢ ≥ 1.
func OrGE(m *lp.Model, es []Expr, name string) []lp.Var {
	bs := make([]lp.Var, len(es))
	sum := make([]lp.Term, len(es))
	for i, e := range es {
		bs[i] = m.NewBinary(name + "/or" + strconv.Itoa(i))
		ImpliesGE(m, bs[i], e)
		sum[i] = lp.Term{Var: bs[i], Coef: 1}
	}
	m.AddConstr(sum, lp.GE, 1)
	return bs
}

// MaxEquals enforces y = max(e₁, …, e_k) with k fresh binaries (named
// name/sel0, name/sel1, …):
//
//	y ≥ eᵢ for all i;  Σ bᵢ = 1;  bᵢ = 1 ⇒ y ≤ eᵢ.
//
// y must have finite declared bounds covering the range of the eᵢ.
func MaxEquals(m *lp.Model, y lp.Var, es []Expr, name string) []lp.Var {
	if len(es) == 0 {
		panic("ilp: MaxEquals needs at least one expression")
	}
	// yMinus writes y − e into buf.
	var buf [4]lp.Term
	yMinus := func(e Expr) Expr {
		d := Expr{Terms: append(buf[:0], lp.Term{Var: y, Coef: 1}), Const: 0 - e.Const}
		for _, t := range e.Terms {
			d.Terms = append(d.Terms, lp.Term{Var: t.Var, Coef: -t.Coef})
		}
		return d
	}
	if len(es) == 1 {
		EQ(m, yMinus(es[0]))
		return nil
	}
	bs := make([]lp.Var, len(es))
	var sumBuf [8]lp.Term
	sum := sumBuf[:0]
	for i, e := range es {
		d := yMinus(e)
		GE(m, d)
		bs[i] = m.NewBinary(name + "/sel" + strconv.Itoa(i))
		ImpliesLE(m, bs[i], d)
		sum = append(sum, lp.Term{Var: bs[i], Coef: 1})
	}
	m.AddConstr(sum, lp.EQ, 1)
	return bs
}
