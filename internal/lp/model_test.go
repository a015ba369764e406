package lp_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"regsat/internal/lp"
)

func newVars(m *lp.Model, n int) []lp.Var {
	vs := make([]lp.Var, n)
	for i := range vs {
		vs[i] = m.NewVar(-10, 10, false, "v")
	}
	return vs
}

// TestAddConstrMergesTerms: stored terms are in ascending variable order,
// duplicates are summed in input order (so the float sums are the
// sequential ones), and zero sums are dropped.
func TestAddConstrMergesTerms(t *testing.T) {
	m := lp.NewModel("merge", lp.Minimize)
	v := newVars(m, 6)
	in := []lp.Term{
		{Var: v[4], Coef: 2},
		{Var: v[1], Coef: 1e16},
		{Var: v[0], Coef: 3},
		{Var: v[1], Coef: 1},
		{Var: v[3], Coef: 5},
		{Var: v[5], Coef: 1e16},
		{Var: v[4], Coef: 0.5},
		{Var: v[1], Coef: -1e16}, // (1e16 + 1) − 1e16 = 0: v1 drops out
		{Var: v[3], Coef: -5},    // cancels: v3 drops out
		{Var: v[5], Coef: -1e16},
		{Var: v[5], Coef: 1}, // (1e16 − 1e16) + 1 = 1
		{Var: v[2], Coef: 0}, // zero: drops out
	}
	keep := append([]lp.Term(nil), in...)
	row := m.AddConstr(in, lp.LE, 7)
	got, rel, rhs := m.Constr(row)
	want := []lp.Term{{Var: v[0], Coef: 3}, {Var: v[4], Coef: 2.5}, {Var: v[5], Coef: 1}}
	if !reflect.DeepEqual(got, want) || rel != lp.LE || rhs != 7 {
		t.Fatalf("stored %v %v %g, want %v <= 7", got, rel, rhs, want)
	}
	if !reflect.DeepEqual(in, keep) {
		t.Fatalf("AddConstr reordered the caller's terms: %v", in)
	}

	// Already ascending input, duplicates adjacent.
	row = m.AddConstr([]lp.Term{{Var: v[0], Coef: 1}, {Var: v[2], Coef: 1}, {Var: v[2], Coef: 2}}, lp.GE, 1)
	if got, _, _ := m.Constr(row); !reflect.DeepEqual(got, []lp.Term{{Var: v[0], Coef: 1}, {Var: v[2], Coef: 3}}) {
		t.Fatalf("ascending input stored as %v", got)
	}
	if row = m.AddConstr(nil, lp.EQ, 0); row != 2 {
		t.Fatalf("empty row got index %d", row)
	}
	if got, _, _ := m.Constr(row); len(got) != 0 {
		t.Fatalf("empty row stored %v", got)
	}
}

// mapMerge is the reference merge: accumulate per variable through a map
// in input order, then emit the nonzero sums in ascending variable order.
func mapMerge(n int, terms []lp.Term) []lp.Term {
	sum := map[lp.Var]float64{}
	for _, t := range terms {
		sum[t.Var] += t.Coef
	}
	var out []lp.Term
	for v := lp.Var(0); int(v) < n; v++ {
		if c, ok := sum[v]; ok && c != 0 {
			out = append(out, lp.Term{Var: v, Coef: c})
		}
	}
	return out
}

// TestAddConstrMatchesMapMerge: on random term lists — unsorted or sorted,
// with duplicates, cancellations and wide magnitudes — the stored row equals
// the reference merge bit for bit.
func TestAddConstrMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	coefs := []float64{1, -1, 0.1, 0.2, 0.3, 1e16, -1e16, 3, 0, 1e-300}
	for trial := 0; trial < 500; trial++ {
		m := lp.NewModel("rand", lp.Maximize)
		n := 1 + rng.Intn(12)
		newVars(m, n)
		terms := make([]lp.Term, rng.Intn(20))
		for i := range terms {
			terms[i] = lp.Term{Var: lp.Var(rng.Intn(n)), Coef: coefs[rng.Intn(len(coefs))]}
		}
		if trial%3 == 0 {
			for i := 1; i < len(terms); i++ {
				for j := i; j > 0 && terms[j].Var < terms[j-1].Var; j-- {
					terms[j], terms[j-1] = terms[j-1], terms[j]
				}
			}
		}
		want := mapMerge(n, terms)
		got, _, _ := m.Constr(m.AddConstr(terms, lp.LE, 1))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %v merged to %v, want %v", trial, terms, got, want)
		}
		for i := range got {
			if got[i].Var != want[i].Var || math.Float64bits(got[i].Coef) != math.Float64bits(want[i].Coef) {
				t.Fatalf("trial %d: %v merged to %v, want %v", trial, terms, got, want)
			}
		}
	}
}

// TestAddConstrUnknownVarPanicsFirst: a term naming an unknown variable
// panics before the row is appended, even when it comes last.
func TestAddConstrUnknownVarPanicsFirst(t *testing.T) {
	for _, bad := range []lp.Var{2, -1} {
		m := lp.NewModel("bad", lp.Minimize)
		v := newVars(m, 2)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("variable %d: no panic", bad)
				}
			}()
			m.AddConstr([]lp.Term{{Var: v[1], Coef: 1}, {Var: v[0], Coef: 2}, {Var: bad, Coef: 1}}, lp.LE, 1)
		}()
		if m.NumConstrs() != 0 {
			t.Fatalf("variable %d: %d rows appended before the panic", bad, m.NumConstrs())
		}
	}
}
