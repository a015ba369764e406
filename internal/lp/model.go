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
	"strconv"
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
	obj     float64 // objective coefficient
	integer bool
	nameEnd int // the name is Model.names[previous variable's nameEnd:nameEnd]
}

// row is the header of one stored constraint; its terms are
// Model.terms[start:end] with end the next row's start (or len(terms)).
type row struct {
	start int
	rel   Rel
	rhs   float64
}

// Model is a mixed-integer linear program under construction. Constraint
// terms live in one arena slice with per-row offsets, and variable names in
// one byte arena, so building a model allocates amortized O(log nnz) times
// rather than once per row or variable.
type Model struct {
	name   string
	sense  Sense
	vars   []varInfo
	names  []byte
	objOff float64
	terms  []Term
	rows   []row
}

// NewModel creates an empty model with the given optimization sense.
func NewModel(name string, sense Sense) *Model {
	return &Model{name: name, sense: sense}
}

// Reset empties m into a new model with the given name and sense, keeping
// the storage of its arenas, so that a model rebuilt in place of one of
// similar size allocates nothing.
func (m *Model) Reset(name string, sense Sense) {
	*m = Model{name: name, sense: sense,
		vars: m.vars[:0], names: m.names[:0], terms: m.terms[:0], rows: m.rows[:0]}
}

// Poison fills the whole capacity of m's arenas with values no model holds
// (NaN numbers, −1 indices and offsets, 0xff name bytes) and leaves m empty.
// Tests of code that recycles models through Reset call it on a released
// model, so that a build reading storage it has not written shows.
func (m *Model) Poison() {
	nan := math.NaN()
	for i, vs := 0, m.vars[:cap(m.vars)]; i < len(vs); i++ {
		vs[i] = varInfo{lo: nan, hi: nan, obj: nan, integer: true, nameEnd: -1}
	}
	for i, ns := 0, m.names[:cap(m.names)]; i < len(ns); i++ {
		ns[i] = 0xff
	}
	for i, ts := 0, m.terms[:cap(m.terms)]; i < len(ts); i++ {
		ts[i] = Term{Var: -1, Coef: nan}
	}
	for i, rs := 0, m.rows[:cap(m.rows)]; i < len(rs); i++ {
		rs[i] = row{start: -1, rel: -1, rhs: nan}
	}
	m.Reset("", -1)
	m.objOff = nan
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// Sense returns the optimization direction.
func (m *Model) Sense() Sense { return m.sense }

// NewVar adds a continuous or integer variable with bounds [lo, hi] and
// returns its identifier. Bounds must satisfy lo ≤ hi and be finite for
// integer variables (branch and bound requires finite integer domains).
func (m *Model) NewVar(lo, hi float64, integer bool, name string) Var {
	// The messages are concatenated, not formatted, so name does not escape
	// and callers may build it on the stack.
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		panic("lp: bad bounds [" + strconv.FormatFloat(lo, 'g', -1, 64) + "," +
			strconv.FormatFloat(hi, 'g', -1, 64) + "] for " + name)
	}
	if integer && (math.IsInf(lo, 0) || math.IsInf(hi, 0)) {
		panic("lp: integer variable " + name + " needs finite bounds")
	}
	m.names = append(m.names, name...)
	m.vars = append(m.vars, varInfo{lo: lo, hi: hi, integer: integer, nameEnd: len(m.names)})
	return Var(len(m.vars) - 1)
}

// NewBinary adds a {0,1} variable.
func (m *Model) NewBinary(name string) Var {
	return m.NewVar(0, 1, true, name)
}

// SetObjCoef sets the objective coefficient of v.
func (m *Model) SetObjCoef(v Var, c float64) { m.vars[v].obj = c }

// AddObjCoef adds c to the objective coefficient of v.
func (m *Model) AddObjCoef(v Var, c float64) { m.vars[v].obj += c }

// SetObjOffset sets a constant added to every objective value.
func (m *Model) SetObjOffset(c float64) { m.objOff = c }

// AddConstr adds the linear constraint Σ terms rel rhs and returns its row
// index. The stored terms are in ascending variable order; terms referring
// to the same variable are summed in input order, and zero sums dropped.
// The caller's slice is copied, never modified.
func (m *Model) AddConstr(terms []Term, rel Rel, rhs float64) int {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
			panic("lp: constraint " + strconv.Itoa(len(m.rows)) + " uses unknown variable " + strconv.Itoa(int(t.Var)))
		}
	}
	start := len(m.terms)
	m.terms = append(m.terms, terms...)
	sorted := m.terms[start:]
	byVar := func(a, b Term) int { return cmp.Compare(a.Var, b.Var) }
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
	m.terms = m.terms[:start+len(compact)]
	m.rows = append(m.rows, row{start: start, rel: rel, rhs: rhs})
	return len(m.rows) - 1
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstrs returns the number of constraints.
func (m *Model) NumConstrs() int { return len(m.rows) }

// NumNonzeros returns the number of stored constraint terms over all rows.
func (m *Model) NumNonzeros() int { return len(m.terms) }

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
func (m *Model) VarName(v Var) string {
	start := 0
	if v > 0 {
		start = m.vars[v-1].nameEnd
	}
	return string(m.names[start:m.vars[v].nameEnd])
}

// ObjCoef returns the objective coefficient of v.
func (m *Model) ObjCoef(v Var) float64 { return m.vars[v].obj }

// ObjOffset returns the constant added to every objective value.
func (m *Model) ObjOffset() float64 { return m.objOff }

// Constr returns row i: its terms (shared storage — treat as read-only, the
// terms are already merged and nonzero), relation, and right-hand side.
func (m *Model) Constr(i int) ([]Term, Rel, float64) {
	r := &m.rows[i]
	end := len(m.terms)
	if i+1 < len(m.rows) {
		end = m.rows[i+1].start
	}
	return m.terms[r.start:end:end], r.rel, r.rhs
}

// Bounds returns the declared bounds of v.
func (m *Model) Bounds(v Var) (lo, hi float64) { return m.vars[v].lo, m.vars[v].hi }

// IsInteger reports whether v is an integer variable.
func (m *Model) IsInteger(v Var) bool { return m.vars[v].integer }

// String renders the model in an LP-like textual format for debugging.
func (m *Model) String() string {
	s := fmt.Sprintf("model %s: %s\n", m.name, map[Sense]string{Minimize: "min", Maximize: "max"}[m.sense])
	s += "  obj:"
	for v, info := range m.vars {
		if c := info.obj; c != 0 {
			s += fmt.Sprintf(" %+g·%s", c, m.VarName(Var(v)))
		}
	}
	s += "\n"
	for i := range m.rows {
		terms, rel, rhs := m.Constr(i)
		s += fmt.Sprintf("  c%d:", i)
		for _, t := range terms {
			s += fmt.Sprintf(" %+g·%s", t.Coef, m.VarName(t.Var))
		}
		s += fmt.Sprintf(" %s %g\n", rel, rhs)
	}
	return s
}
