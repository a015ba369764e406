// Package lp is the modeling layer of the exact intLPs of Sections 3 and 4:
// variables with bounds and integrality, linear constraints, an objective,
// the Status vocabulary solves report, and a CPLEX LP-format writer. It
// plays the role of the CPLEX model in the paper; internal/solver solves the
// models. Every model built by this project has finite variable bounds (the
// schedule horizon T bounds every quantity).
package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Sense is the optimization direction of a model.
type Sense int

const (
	// Minimize the objective function.
	Minimize Sense = iota
	// Maximize the objective function.
	Maximize
)

// Rel is a constraint relation.
type Rel int

const (
	// LE is ≤.
	LE Rel = iota
	// GE is ≥.
	GE
	// EQ is =.
	EQ
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Var identifies a variable of a Model.
type Var int

// Term is one coefficient·variable product of a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

type varInfo struct {
	lo, hi  float64
	integer bool
	name    string
}

type constr struct {
	terms []Term
	rel   Rel
	rhs   float64
	name  string
}

// Model is a mixed-integer linear program under construction.
type Model struct {
	name    string
	sense   Sense
	vars    []varInfo
	objCoef []float64
	objOff  float64
	constrs []constr
}

// NewModel creates an empty model with the given optimization sense.
func NewModel(name string, sense Sense) *Model {
	return &Model{name: name, sense: sense}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// Sense returns the optimization direction.
func (m *Model) Sense() Sense { return m.sense }

// NewVar adds a continuous or integer variable with bounds [lo, hi] and
// returns its identifier. Bounds must satisfy lo ≤ hi and be finite for
// integer variables (branch and bound requires finite integer domains).
func (m *Model) NewVar(lo, hi float64, integer bool, name string) Var {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		panic(fmt.Sprintf("lp: bad bounds [%g,%g] for %s", lo, hi, name))
	}
	if integer && (math.IsInf(lo, 0) || math.IsInf(hi, 0)) {
		panic(fmt.Sprintf("lp: integer variable %s needs finite bounds", name))
	}
	m.vars = append(m.vars, varInfo{lo: lo, hi: hi, integer: integer, name: name})
	m.objCoef = append(m.objCoef, 0)
	return Var(len(m.vars) - 1)
}

// NewBinary adds a {0,1} variable.
func (m *Model) NewBinary(name string) Var {
	return m.NewVar(0, 1, true, name)
}

// SetObjCoef sets the objective coefficient of v.
func (m *Model) SetObjCoef(v Var, c float64) { m.objCoef[v] = c }

// AddObjCoef adds c to the objective coefficient of v.
func (m *Model) AddObjCoef(v Var, c float64) { m.objCoef[v] += c }

// SetObjOffset sets a constant added to every objective value.
func (m *Model) SetObjOffset(c float64) { m.objOff = c }

// AddConstr adds the linear constraint Σ terms rel rhs and returns its row
// index. The stored terms are in ascending variable order; terms referring
// to the same variable are summed in input order, and zero sums dropped.
func (m *Model) AddConstr(terms []Term, rel Rel, rhs float64, name string) int {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
			panic(fmt.Sprintf("lp: constraint %s uses unknown variable %d", name, t.Var))
		}
	}
	byVar := func(a, b Term) int { return cmp.Compare(a.Var, b.Var) }
	sorted := slices.Clone(terms)
	if !slices.IsSortedFunc(sorted, byVar) {
		slices.SortStableFunc(sorted, byVar)
	}
	compact := sorted[:0]
	for i := 0; i < len(sorted); {
		t := sorted[i]
		for i++; i < len(sorted) && sorted[i].Var == t.Var; i++ {
			t.Coef += sorted[i].Coef
		}
		if t.Coef != 0 {
			compact = append(compact, t)
		}
	}
	m.constrs = append(m.constrs, constr{terms: compact, rel: rel, rhs: rhs, name: name})
	return len(m.constrs) - 1
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstrs returns the number of constraints.
func (m *Model) NumConstrs() int { return len(m.constrs) }

// NumIntVars returns the number of integer (including binary) variables.
func (m *Model) NumIntVars() int {
	n := 0
	for _, v := range m.vars {
		if v.integer {
			n++
		}
	}
	return n
}

// VarName returns the name of v.
func (m *Model) VarName(v Var) string { return m.vars[v].name }

// ObjCoef returns the objective coefficient of v.
func (m *Model) ObjCoef(v Var) float64 { return m.objCoef[v] }

// ObjOffset returns the constant added to every objective value.
func (m *Model) ObjOffset() float64 { return m.objOff }

// Constr returns row i: its terms (shared storage — treat as read-only, the
// terms are already merged and nonzero), relation, and right-hand side.
func (m *Model) Constr(i int) ([]Term, Rel, float64) {
	c := &m.constrs[i]
	return c.terms, c.rel, c.rhs
}

// ConstrName returns the name of row i.
func (m *Model) ConstrName(i int) string { return m.constrs[i].name }

// Bounds returns the declared bounds of v.
func (m *Model) Bounds(v Var) (lo, hi float64) { return m.vars[v].lo, m.vars[v].hi }

// IsInteger reports whether v is an integer variable.
func (m *Model) IsInteger(v Var) bool { return m.vars[v].integer }

// String renders the model in an LP-like textual format for debugging.
func (m *Model) String() string {
	s := fmt.Sprintf("model %s: %s\n", m.name, map[Sense]string{Minimize: "min", Maximize: "max"}[m.sense])
	s += "  obj:"
	for v, c := range m.objCoef {
		if c != 0 {
			s += fmt.Sprintf(" %+g·%s", c, m.vars[v].name)
		}
	}
	s += "\n"
	for _, c := range m.constrs {
		s += fmt.Sprintf("  %s:", c.name)
		for _, t := range c.terms {
			s += fmt.Sprintf(" %+g·%s", t.Coef, m.vars[t.Var].name)
		}
		s += fmt.Sprintf(" %s %g\n", c.rel, c.rhs)
	}
	return s
}
