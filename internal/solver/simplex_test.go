package solver

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"regsat/internal/lp"
)

// dualFullRow is the dual simplex with the original pivot kernel: every row
// update and the reduced-cost update sweep all N+1 columns of the pivot row,
// skipping its zeros. It is the reference that spx.dual's sparse elimination
// must reproduce bit for bit.
func dualFullRow(s *spx, pruneTarget float64) spxStatus {
	p := s.p
	iterCap := spxIterCap
	if s.iterLimit > 0 && s.iterLimit < iterCap {
		iterCap = s.iterLimit
	}
	for iter := 0; ; iter++ {
		s.iters++
		if iter > iterCap {
			return spxIterLimit
		}
		if iter%64 == 0 {
			if s.cancel != nil && s.cancel() {
				return spxCanceled
			}
			if !math.IsInf(pruneTarget, 1) && s.obj() > pruneTarget {
				return spxCutoff
			}
		}
		bland := iter > spxBlandCut
		if bland {
			s.blandIters++
		}
		r, tooLow := -1, false
		best := 0.0
		for i := 0; i < p.m; i++ {
			b := s.basis[i]
			v := s.xB[i]
			var viol float64
			var low bool
			if lim := s.lo[b]; v < lim-spxFeasTol {
				viol, low = lim-v, true
			} else if lim := s.hi[b]; v > lim+spxFeasTol {
				viol, low = v-lim, false
			} else {
				continue
			}
			if bland {
				if r < 0 || b < s.basis[r] {
					r, tooLow = i, low
				}
			} else if score := viol * viol / s.dweight[i]; score > best {
				r, tooLow, best = i, low, score
			}
		}
		if r < 0 {
			return spxOptimal
		}
		b := s.basis[r]
		row := s.row(r)
		q := -1
		bestRatio, bestAbs := math.Inf(1), 0.0
		for j := 0; j < p.N; j++ {
			st := s.status[j]
			if st == spBasic || s.lo[j] == s.hi[j] {
				continue
			}
			a := row[j]
			if a > -spxPivTol && a < spxPivTol {
				continue
			}
			var ok bool
			if tooLow {
				ok = (st == spAtLower && a < 0) || (st == spAtUpper && a > 0)
			} else {
				ok = (st == spAtLower && a > 0) || (st == spAtUpper && a < 0)
			}
			if !ok {
				continue
			}
			abs := math.Abs(a)
			ratio := math.Abs(s.d[j]) / abs
			if bland {
				if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && (q < 0 || j < q)) {
					q, bestRatio = j, math.Min(ratio, bestRatio)
				}
			} else if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && abs > bestAbs) {
				q, bestRatio, bestAbs = j, math.Min(ratio, bestRatio), abs
			}
		}
		if q < 0 {
			return spxInfeasible
		}
		target := s.hi[b]
		if tooLow {
			target = s.lo[b]
		}
		arq := row[q]
		t := (s.xB[r] - target) / arq
		for i := 0; i < p.m; i++ {
			if i == r {
				continue
			}
			if a := s.tab[i*s.stride+q]; a != 0 {
				s.xB[i] -= a * t
			}
		}
		newQ := s.xval[q] + t
		if tooLow {
			s.status[b] = spAtLower
		} else {
			s.status[b] = spAtUpper
		}
		s.xval[b] = target
		s.rowOf[b] = -1
		s.basis[r] = int32(q)
		s.rowOf[q] = int32(r)
		s.status[q] = spBasic
		s.xB[r] = newQ
		inv := 1.0 / arq
		gr := s.dweight[r]
		wmax := 0.0
		for j := 0; j <= p.N; j++ {
			row[j] *= inv
		}
		for i := 0; i < p.m; i++ {
			if i == r {
				continue
			}
			ri := s.row(i)
			f := ri[q]
			if f == 0 {
				continue
			}
			for j := 0; j <= p.N; j++ {
				if row[j] != 0 {
					ri[j] -= f * row[j]
				}
			}
			ri[q] = 0
			m := f * inv
			if w := m * m * gr; w > s.dweight[i] {
				s.dweight[i] = w
			}
			if s.dweight[i] > wmax {
				wmax = s.dweight[i]
			}
		}
		s.dweight[r] = math.Max(gr*inv*inv, 1)
		if wmax > 1e12 || s.dweight[r] > 1e12 {
			for i := range s.dweight {
				s.dweight[i] = 1
			}
		}
		if f := s.d[q]; f != 0 {
			for j := 0; j < p.N; j++ {
				if row[j] != 0 {
					s.d[j] -= f * row[j]
				}
			}
			s.d[q] = 0
		}
		s.pivots++
	}
}

// randomBoundedLP draws an LP over finitely bounded integer-typed columns
// with sparse rows of mixed integral and fractional coefficients.
func randomBoundedLP(rng *rand.Rand) *lp.Model {
	sense := lp.Minimize
	if rng.Intn(2) == 0 {
		sense = lp.Maximize
	}
	m := lp.NewModel("bounded", sense)
	nv := 6 + rng.Intn(25)
	for i := 0; i < nv; i++ {
		lo := float64(-rng.Intn(3))
		c := float64(rng.Intn(11) - 5)
		if rng.Intn(4) == 0 {
			c = 0
		}
		m.SetObjCoef(m.NewVar(lo, lo+float64(1+rng.Intn(6)), true, "v"), c)
	}
	nc := 4 + rng.Intn(18)
	for c := 0; c < nc; c++ {
		var terms []lp.Term
		for i := 0; i < nv; i++ {
			if rng.Intn(10) < 3 {
				coef := float64(rng.Intn(13) - 6)
				if rng.Intn(3) == 0 {
					coef = math.Round(rng.NormFloat64()*1000) / 256
				}
				if coef != 0 {
					terms = append(terms, lp.Term{Var: lp.Var(i), Coef: coef})
				}
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := lp.LE
		switch rng.Intn(10) {
		case 0:
			rel = lp.EQ
		case 1, 2, 3, 4:
			rel = lp.GE
		}
		m.AddConstr(terms, rel, float64(rng.Intn(15)-4))
	}
	return m
}

// sameBits reports whether two float slices agree bit for bit (so +0 and
// −0, or two NaN payloads, count as different).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// spxDiff names the first state field in which two tableaux differ, or
// returns "" when they are bit-identical.
func spxDiff(a, b *spx) string {
	switch {
	case !sameBits(a.tab, b.tab):
		return "tab"
	case !sameBits(a.xB, b.xB):
		return "xB"
	case !sameBits(a.d, b.d):
		return "d"
	case !sameBits(a.xval, b.xval):
		return "xval"
	case !sameBits(a.dweight, b.dweight):
		return "dweight"
	case !sameBits(a.lo, b.lo) || !sameBits(a.hi, b.hi):
		return "bounds"
	case a.iters != b.iters || a.blandIters != b.blandIters || a.pivots != b.pivots:
		return "iteration counts"
	}
	for i := range a.basis {
		if a.basis[i] != b.basis[i] {
			return "basis"
		}
	}
	for j := range a.status {
		if a.status[j] != b.status[j] || a.rowOf[j] != b.rowOf[j] {
			return "status"
		}
	}
	return ""
}

// TestDualSparseEliminationBitIdentical drives spx.dual and the full-row
// reference kernel side by side on seeded random bounded LPs — a cold solve,
// then warm re-solves after bound tightenings like a dive's — and requires
// the same status and the same tableau state, bit for bit, after every
// solve.
func TestDualSparseEliminationBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	trials := 300
	if testing.Short() {
		trials = 80
	}
	pivots := 0
	for trial := 0; trial < trials; trial++ {
		p, err := buildProb(randomBoundedLP(rng))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, want := newSpx(p), newSpx(p)
		got.reset(p.rootLo, p.rootHi)
		want.reset(p.rootLo, p.rootHi)
		for solve := 0; solve < 6; solve++ {
			sg, sw := got.dual(math.Inf(1)), dualFullRow(want, math.Inf(1))
			if sg != sw {
				t.Fatalf("trial %d solve %d: status %v, full-row kernel %v", trial, solve, sg, sw)
			}
			if d := spxDiff(got, want); d != "" {
				t.Fatalf("trial %d solve %d: %s differs from the full-row kernel", trial, solve, d)
			}
			pivots += got.pivots
			if sg != spxOptimal {
				got.reset(p.rootLo, p.rootHi)
				want.reset(p.rootLo, p.rootHi)
				continue
			}
			// Branch-like warm restart: split a column's domain in place.
			j := rng.Intn(p.n)
			lo, hi := got.lo[j], got.hi[j]
			if hi-lo < 1 {
				continue
			}
			mid := math.Floor((lo + hi) / 2)
			if rng.Intn(2) == 0 {
				hi = mid
			} else {
				lo = mid + 1
			}
			got.applyBound(j, lo, hi)
			want.applyBound(j, lo, hi)
		}
	}
	if pivots == 0 {
		t.Fatal("no trial pivoted: the comparison exercised nothing")
	}
}

// checkTableauPoint requires w's current point — basic values plus
// nonbasic values — to satisfy every row of its sparse matrix, A·x + s = b,
// and every tableau row to agree with its right-hand-side column, both to
// 1e-9. Every row must also be exactly zero in the other rows' basic
// columns.
func checkTableauPoint(t *testing.T, tag string, w *spx) {
	t.Helper()
	p := w.p
	for i := 0; i < p.m; i++ {
		act := w.value(p.n + i)
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			act += p.rowVal[k] * w.value(int(p.rowCol[k]))
		}
		if math.Abs(act-p.rhs[i]) > 1e-9 {
			t.Fatalf("%s: row %d: A·x + s = %.17g, b = %g", tag, i, act, p.rhs[i])
		}
		r := w.row(i)
		sum := w.xB[i]
		for j := 0; j < p.N; j++ {
			if w.status[j] != spBasic {
				sum += r[j] * w.xval[j]
			} else if int(w.rowOf[j]) != i && r[j] != 0 {
				t.Fatalf("%s: tableau row %d holds %g in column %d, basic in row %d", tag, i, r[j], j, w.rowOf[j])
			}
		}
		if math.Abs(sum-r[p.N]) > 1e-9 {
			t.Fatalf("%s: tableau row %d: basic plus nonbasic terms %.17g, right-hand side %.17g", tag, i, sum, r[p.N])
		}
	}
}

// TestAddRowsKeepsTableauPoint runs the cut rounds of root separation by
// hand and checks every extension of the optimal tableau: the point it
// holds still satisfies every original row and every cut row, each tableau
// row agrees with its right-hand side, the old reduced costs are unchanged
// bit for bit, and the extended basis reoptimizes to an optimum.
func TestAddRowsKeepsTableauPoint(t *testing.T) {
	extended := 0
	run := func(tag string, m *lp.Model, h *Hints) {
		ps := mustPresolve(t, m, true)
		cliques, _ := remapCliques(h, ps)
		p := ps.p
		w := newSpx(p)
		defer releaseSpx(w)
		w.reset(p.rootLo, p.rootHi)
		for round := 0; round < cutMaxRounds; round++ {
			tag := fmt.Sprintf("%s round %d", tag, round)
			if st := w.dual(math.Inf(1)); st != spxOptimal {
				t.Fatalf("%s: %v", tag, st)
			}
			checkTableauPoint(t, tag, w)
			p2, k := appendViolated(p, cliques, w.solution(), math.MaxInt64)
			if k == 0 {
				return
			}
			p = p2
			d := slices.Clone(w.d)
			w.addRows(p2)
			extended++
			if w.p != p2 || len(w.basis) != p2.m {
				t.Fatalf("%s: tableau not extended to the %d rows", tag, p2.m)
			}
			if !sameBits(w.d[:len(d)], d) {
				t.Fatalf("%s: addRows changed the old reduced costs", tag)
			}
			checkTableauPoint(t, tag+" after addRows", w)
		}
	}
	rng := rand.New(rand.NewSource(16))
	trials := 40
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		m, h := hintedConflict(rng)
		run(fmt.Sprintf("trial %d", trial), m, h)
	}
	k6 := []float64{6, 5, 4, 3, 2, 1}
	m, h := completeConflict(k6, 3, 6)
	run("K6", m, h)
	m, h = k12()
	run("K12", m, h)
	if extended == 0 {
		t.Fatal("no tableau was extended")
	}
}
