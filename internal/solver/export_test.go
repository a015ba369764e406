package solver

import (
	"encoding/binary"
	"io"
	"math"

	"regsat/internal/lp"
)

// PresolveModel runs the engine's model loading — presolve with reductions
// on — and discards the result, for benchmarks outside the package.
func PresolveModel(m *lp.Model) error {
	_, err := presolve(m, true)
	return err
}

// WritePresolved renders what the engine loads for m — the presolved sparse
// problem, its column map and fixed values, and the reduction counters —
// to w in a fixed binary layout, for hashing.
func WritePresolved(w io.Writer, m *lp.Model) error {
	ps, err := presolve(m, true)
	if err != nil {
		return err
	}
	var b []byte
	i64 := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	f64 := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	i64(int64(ps.nOrig))
	i64(ps.rows)
	i64(ps.cols)
	i64(ps.tightenings)
	flag(ps.infeasible)
	if ps.infeasible {
		_, err = w.Write(b)
		return err
	}
	p := ps.p
	i64(int64(p.sense))
	f64(p.objOffset)
	i64(int64(p.n))
	i64(int64(p.m))
	flag(p.intObj)
	for _, c := range ps.colMap {
		i64(int64(c))
	}
	for _, v := range ps.fixed {
		f64(v)
	}
	for _, k := range p.rowPtr {
		i64(int64(k))
	}
	for _, c := range p.rowCol {
		i64(int64(c))
	}
	for _, v := range p.rowVal {
		f64(v)
	}
	for i := 0; i < p.m; i++ {
		i64(int64(p.rel[i]))
		f64(p.rhs[i])
		f64(p.slackLo[i])
		f64(p.slackHi[i])
	}
	for j := 0; j < p.n; j++ {
		f64(p.rootLo[j])
		f64(p.rootHi[j])
		f64(p.cost[j])
		flag(p.integer[j])
	}
	_, err = w.Write(b)
	return err
}

// RootLP is the root LP relaxation of a presolved model, for benchmarks
// and tests outside the package.
type RootLP struct{ p *prob }

// NewRootLP presolves m as a solve does (reductions on).
func NewRootLP(m *lp.Model) (*RootLP, error) {
	ps, err := presolve(m, true)
	if err != nil {
		return nil, err
	}
	return &RootLP{p: ps.p}, nil
}

// Size returns the presolved problem's rows and structural columns.
func (r *RootLP) Size() (rows, cols int) { return r.p.m, r.p.n }

// Solve solves the root LP cold on a pooled tableau and returns the
// simplex iterations it took and whether it reached an optimum.
func (r *RootLP) Solve() (iters int64, optimal bool) {
	w := newSpx(r.p)
	defer releaseSpx(w)
	w.reset(r.p.rootLo, r.p.rootHi)
	st := w.dual(math.Inf(1))
	return w.iters, st == spxOptimal
}

// TableauFloats drains the tableau pool, builds the root tableau on fresh
// storage and returns the number of floats its tableau storage holds.
func (r *RootLP) TableauFloats() int {
	drainSpxPool()
	w := newSpx(r.p)
	defer releaseSpx(w)
	w.reset(r.p.rootLo, r.p.rootHi)
	return cap(w.tab)
}

// PoisonPools makes every tableau and workspace a solve releases poisoned
// before it is pooled, and drains both pools; restore undoes it.
func PoisonPools() (restore func()) { return poisonPools() }

// DrainPools empties the tableau and workspace pools.
func DrainPools() { drainSpxPool() }

// SolveRootsToOptimality makes every root LP run to optimality with the
// prune check off, as the engine did before the root stopped at the prune
// target; restore undoes it.
func SolveRootsToOptimality() (restore func()) {
	testHookRootToOptimality = true
	return func() { testHookRootToOptimality = false }
}
