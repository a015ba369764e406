package solver

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"regsat/internal/lp"
)

// fullSpx is the dual simplex over the full tableau, m × (N+1) with the
// right-hand side in the last column, pivoted by a zero-skipping sweep over
// whole rows. It is the reference spx's condensed tableau must reproduce:
// the same pivots, every condensed entry equal to the full tableau's entry
// in its slot's column, and xB, d, xval and dweight bit for bit.
type fullSpx struct {
	p      *prob
	stride int // N+1

	tab               []float64 // m × stride, row-major
	lo, hi            []float64 // length N
	basis             []int32   // length m
	rowOf             []int32   // length N
	status            []int8    // length N
	xval, xB, d       []float64
	dweight           []float64 // length m
	iters, blandIters int64
	pivots            int
}

func newFullSpx(p *prob) *fullSpx {
	return &fullSpx{
		p:       p,
		stride:  p.N + 1,
		tab:     make([]float64, p.m*(p.N+1)),
		lo:      make([]float64, p.N),
		hi:      make([]float64, p.N),
		basis:   make([]int32, p.m),
		rowOf:   make([]int32, p.N),
		status:  make([]int8, p.N),
		xval:    make([]float64, p.N),
		xB:      make([]float64, p.m),
		d:       make([]float64, p.N),
		dweight: make([]float64, p.m),
	}
}

func (s *fullSpx) row(i int) []float64 { return s.tab[i*s.stride : (i+1)*s.stride] }

func (s *fullSpx) value(j int) float64 {
	if s.status[j] == spBasic {
		return s.xB[s.rowOf[j]]
	}
	return s.xval[j]
}

func (s *fullSpx) obj() float64 {
	v := 0.0
	for j := 0; j < s.p.n; j++ {
		if c := s.p.cost[j]; c != 0 {
			v += c * s.value(j)
		}
	}
	return v
}

// reset installs the all-slack basis under the given structural bounds,
// as spx.reset does.
func (s *fullSpx) reset(lo, hi []float64) {
	p := s.p
	copy(s.lo[:p.n], lo)
	copy(s.hi[:p.n], hi)
	copy(s.lo[p.n:], p.slackLo)
	copy(s.hi[p.n:], p.slackHi)
	clear(s.tab)
	for i := 0; i < p.m; i++ {
		r := s.row(i)
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			r[p.rowCol[k]] = p.rowVal[k]
		}
		r[p.n+i] = 1
		r[p.N] = p.rhs[i]
		s.basis[i] = int32(p.n + i)
	}
	for j := 0; j < p.N; j++ {
		s.rowOf[j] = -1
	}
	for i := 0; i < p.m; i++ {
		s.rowOf[p.n+i] = int32(i)
		s.status[p.n+i] = spBasic
		s.xval[p.n+i] = 0
	}
	for j := 0; j < p.n; j++ {
		c := p.cost[j]
		s.d[j] = c
		switch {
		case c > spxDualTol:
			s.status[j], s.xval[j] = spAtLower, s.lo[j]
		case c < -spxDualTol:
			s.status[j], s.xval[j] = spAtUpper, s.hi[j]
		case math.IsInf(s.lo[j], 0):
			s.status[j], s.xval[j] = spAtUpper, s.hi[j]
		case math.IsInf(s.hi[j], 0) || math.Abs(s.lo[j]) <= math.Abs(s.hi[j]):
			s.status[j], s.xval[j] = spAtLower, s.lo[j]
		default:
			s.status[j], s.xval[j] = spAtUpper, s.hi[j]
		}
	}
	for i := p.n; i < p.N; i++ {
		s.d[i] = 0
	}
	for i := 0; i < p.m; i++ {
		v := p.rhs[i]
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			if x := s.xval[p.rowCol[k]]; x != 0 {
				v -= p.rowVal[k] * x
			}
		}
		s.xB[i] = v
	}
	for i := range s.dweight {
		s.dweight[i] = 1
	}
	s.pivots = 0
}

// addRows extends the tableau to p2's appended rows: the old rows are
// copied into the wider stride with zeros in the new slack columns, and
// each new row is rewritten in the current basis, its slack basic.
func (s *fullSpx) addRows(p2 *prob) {
	p := s.p
	t := newFullSpx(p2)
	N, N2 := p.N, p2.N
	for i := 0; i < p.m; i++ {
		src, dst := s.row(i), t.row(i)
		copy(dst, src[:N])
		dst[N2] = src[N]
	}
	copy(t.lo, s.lo)
	copy(t.hi, s.hi)
	copy(t.lo[N:], p2.slackLo[p.m:])
	copy(t.hi[N:], p2.slackHi[p.m:])
	copy(t.basis, s.basis)
	copy(t.rowOf, s.rowOf)
	copy(t.status, s.status)
	copy(t.xval, s.xval)
	copy(t.xB, s.xB)
	copy(t.d, s.d)
	copy(t.dweight, s.dweight)
	for i := p.m; i < p2.m; i++ {
		r := t.row(i)
		act := 0.0
		for k := p2.rowPtr[i]; k < p2.rowPtr[i+1]; k++ {
			j, a := p2.rowCol[k], p2.rowVal[k]
			act += a * s.value(int(j))
			r[j] += a
			if b := s.rowOf[j]; b >= 0 {
				for c, v := range t.row(int(b)) {
					if v != 0 {
						r[c] -= a * v
					}
				}
				r[j] = 0
			}
		}
		r[N2] += p2.rhs[i]
		slack := p2.n + i
		r[slack] = 1
		t.basis[i] = int32(slack)
		t.rowOf[slack] = int32(i)
		t.status[slack] = spBasic
		t.xval[slack] = 0
		t.xB[i] = p2.rhs[i] - act
		t.d[slack] = 0
		t.dweight[i] = 1
	}
	t.iters, t.blandIters, t.pivots = s.iters, s.blandIters, s.pivots
	*s = *t
}

func (s *fullSpx) applyBound(j int, lo, hi float64) {
	s.lo[j], s.hi[j] = lo, hi
	if s.status[j] == spBasic {
		return
	}
	v := s.xval[j]
	nv := math.Min(math.Max(v, lo), hi)
	if nv == v {
		return
	}
	delta := nv - v
	for i := 0; i < s.p.m; i++ {
		if a := s.tab[i*s.stride+j]; a != 0 {
			s.xB[i] -= a * delta
		}
	}
	s.xval[j] = nv
}

// dualFullRow is the dual simplex with the full-tableau pivot kernel: the
// ratio test scans every column in order, and every row update and the
// reduced-cost update sweep all N+1 columns of the pivot row, skipping its
// zeros.
func (s *fullSpx) dual(pruneTarget float64) spxStatus {
	p := s.p
	for iter := 0; ; iter++ {
		s.iters++
		if iter > spxIterCap {
			return spxIterLimit
		}
		if iter%64 == 0 && !math.IsInf(pruneTarget, 1) && s.obj() > pruneTarget {
			return spxCutoff
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
		terms := randomTerms(rng, nv)
		if len(terms) == 0 {
			continue
		}
		m.AddConstr(terms, randomRel(rng), float64(rng.Intn(15)-4))
	}
	return m
}

// randomTerms draws a sparse row over nv columns, in ascending column
// order, with mixed integral and fractional coefficients.
func randomTerms(rng *rand.Rand, nv int) []lp.Term {
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
	return terms
}

func randomRel(rng *rand.Rand) lp.Rel {
	switch rng.Intn(10) {
	case 0:
		return lp.EQ
	case 1, 2, 3, 4:
		return lp.GE
	}
	return lp.LE
}

// appendRandomRows returns a copy of p grown by one to three random rows,
// the way appendViolated grows it by cut rows.
func appendRandomRows(rng *rand.Rand, p *prob) *prob {
	q := *p
	for k := 1 + rng.Intn(3); k > 0; k-- {
		terms := randomTerms(rng, p.n)
		if len(terms) == 0 {
			terms = []lp.Term{{Var: lp.Var(rng.Intn(p.n)), Coef: 1}}
		}
		for _, t := range terms {
			q.rowCol = append(q.rowCol, int32(t.Var))
			q.rowVal = append(q.rowVal, t.Coef)
		}
		q.closeRow(randomRel(rng), float64(rng.Intn(15)-4))
		q.m++
		q.N++
	}
	return &q
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

// condensedDiff names the first way in which the condensed tableau c
// differs from the full reference f, or returns "" when it reproduces it:
// the same basis and column statuses, xB, d, xval, dweight and bounds bit
// for bit, the same iteration counts, every slot holding a nonbasic column
// whose entries equal (==, so ±0 agree) the full tableau's in that column,
// each row's diagonal equal to the full entry in its basic column, and the
// full tableau exactly zero in the other rows' basic columns.
func condensedDiff(c *spx, f *fullSpx) string {
	p := c.p
	switch {
	case c.p != f.p:
		return "problem"
	case !sameBits(c.xB, f.xB):
		return "xB"
	case !sameBits(c.d, f.d):
		return "d"
	case !sameBits(c.xval, f.xval):
		return "xval"
	case !sameBits(c.dweight, f.dweight):
		return "dweight"
	case !sameBits(c.lo, f.lo) || !sameBits(c.hi, f.hi):
		return "bounds"
	case c.iters != f.iters || c.blandIters != f.blandIters || c.pivots != f.pivots:
		return "iteration counts"
	case !slices.Equal(c.basis, f.basis):
		return "basis"
	case !slices.Equal(c.status, f.status) || !slices.Equal(c.rowOf, f.rowOf):
		return "status"
	case len(c.tab) != p.m*p.n || len(c.col) != p.n || len(c.slot) != p.N:
		return "tableau shape"
	}
	for sl, j := range c.col {
		if c.status[j] == spBasic || int(c.slot[j]) != sl {
			return fmt.Sprintf("slot %d (column %d)", sl, j)
		}
	}
	for j := 0; j < p.N; j++ {
		if (c.status[j] == spBasic) != (c.slot[j] < 0) {
			return fmt.Sprintf("slot of column %d", j)
		}
	}
	for i := 0; i < p.m; i++ {
		cr, fr := c.row(i), f.row(i)
		for sl, j := range c.col {
			if cr[sl] != fr[j] {
				return fmt.Sprintf("row %d column %d: %g, full %g", i, j, cr[sl], fr[j])
			}
		}
		if c.diag[i] != fr[c.basis[i]] {
			return fmt.Sprintf("row %d diagonal: %g, full %g", i, c.diag[i], fr[c.basis[i]])
		}
		for k, b := range f.basis {
			if k != i && fr[b] != 0 {
				return fmt.Sprintf("full row %d holds %g in column %d, basic in row %d", i, fr[b], b, k)
			}
		}
	}
	return ""
}

// TestCondensedTableauMatchesFull drives spx and the full-tableau
// reference side by side on seeded random bounded LPs: cold solves, warm
// re-solves after bound splits like a dive's, and addRows extensions like
// cut rounds. After every step both must report the same status and hold
// the same state (condensedDiff).
func TestCondensedTableauMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	trials := 300
	if testing.Short() {
		trials = 80
	}
	pivots, extended := 0, 0
	for trial := 0; trial < trials; trial++ {
		p, err := buildProb(randomBoundedLP(rng))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, want := newSpx(p), newFullSpx(p)
		got.reset(p.rootLo, p.rootHi)
		want.reset(p.rootLo, p.rootHi)
		if d := condensedDiff(got, want); d != "" {
			t.Fatalf("trial %d after reset: %s", trial, d)
		}
		for step := 0; step < 8; step++ {
			sg, sw := got.dual(math.Inf(1)), want.dual(math.Inf(1))
			if sg != sw {
				t.Fatalf("trial %d step %d: status %v, full tableau %v", trial, step, sg, sw)
			}
			if d := condensedDiff(got, want); d != "" {
				t.Fatalf("trial %d step %d: %s differs from the full tableau", trial, step, d)
			}
			pivots += got.pivots
			if sg != spxOptimal {
				got.reset(p.rootLo, p.rootHi)
				want.reset(p.rootLo, p.rootHi)
				if d := condensedDiff(got, want); d != "" {
					t.Fatalf("trial %d step %d after reset: %s", trial, step, d)
				}
				continue
			}
			if rng.Intn(3) == 0 {
				// Cut-round-like warm restart: append rows.
				p = appendRandomRows(rng, p)
				got.addRows(p)
				want.addRows(p)
				extended++
				if d := condensedDiff(got, want); d != "" {
					t.Fatalf("trial %d step %d after addRows: %s", trial, step, d)
				}
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
			if d := condensedDiff(got, want); d != "" {
				t.Fatalf("trial %d step %d after applyBound: %s", trial, step, d)
			}
		}
		releaseSpx(got)
	}
	if pivots == 0 || extended == 0 {
		t.Fatalf("%d pivots, %d extensions: the comparison exercised too little", pivots, extended)
	}
}

// checkTableauPoint requires w's current point — basic values plus
// nonbasic values — to satisfy every row of its sparse matrix, A·x + s = b,
// to 1e-9, and every slot to hold a nonbasic column: the condensed layout
// stores no basic column, so every row is zero in the other rows' basic
// columns by construction.
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
	}
	for sl, j := range w.col {
		if w.status[j] == spBasic || int(w.slot[j]) != sl {
			t.Fatalf("%s: slot %d holds column %d (status %d, slot %d)", tag, sl, j, w.status[j], w.slot[j])
		}
	}
}

// checkFullRHS requires every row of the full reference tableau to agree
// with its right-hand-side column, basic plus nonbasic terms, to 1e-9.
func checkFullRHS(t *testing.T, tag string, f *fullSpx) {
	t.Helper()
	p := f.p
	for i := 0; i < p.m; i++ {
		r := f.row(i)
		sum := f.xB[i]
		for j := 0; j < p.N; j++ {
			if f.status[j] != spBasic {
				sum += r[j] * f.xval[j]
			}
		}
		if math.Abs(sum-r[p.N]) > 1e-9 {
			t.Fatalf("%s: full tableau row %d: basic plus nonbasic terms %.17g, right-hand side %.17g", tag, i, sum, r[p.N])
		}
	}
}

// TestAddRowsKeepsTableauPoint runs the cut rounds of root separation by
// hand, with the full-tableau reference alongside, and checks every
// extension of the optimal tableau: the point it holds still satisfies
// every original row and every cut row, the old reduced costs are
// unchanged bit for bit, the extended basis reoptimizes to an optimum, the
// condensed tableau still reproduces the full one, and each full tableau
// row agrees with its right-hand side.
func TestAddRowsKeepsTableauPoint(t *testing.T) {
	extended := 0
	run := func(tag string, m *lp.Model, h *Hints) {
		ps := mustPresolve(t, m, true)
		cliques, _ := remapCliques(h.Cliques(), ps)
		p := ps.p
		w, f := newSpx(p), newFullSpx(p)
		defer releaseSpx(w)
		w.reset(p.rootLo, p.rootHi)
		f.reset(p.rootLo, p.rootHi)
		for round := 0; round < cutMaxRounds; round++ {
			tag := fmt.Sprintf("%s round %d", tag, round)
			if st := w.dual(math.Inf(1)); st != spxOptimal {
				t.Fatalf("%s: %v", tag, st)
			}
			f.dual(math.Inf(1))
			checkTableauPoint(t, tag, w)
			checkFullRHS(t, tag, f)
			if d := condensedDiff(w, f); d != "" {
				t.Fatalf("%s: %s differs from the full tableau", tag, d)
			}
			p2, k := appendViolated(p, cliques, pointOf(w), math.MaxInt64)
			if k == 0 {
				return
			}
			p = p2
			d := slices.Clone(w.d)
			w.addRows(p2)
			f.addRows(p2)
			extended++
			if w.p != p2 || len(w.basis) != p2.m {
				t.Fatalf("%s: tableau not extended to the %d rows", tag, p2.m)
			}
			if !sameBits(w.d[:len(d)], d) {
				t.Fatalf("%s: addRows changed the old reduced costs", tag)
			}
			checkTableauPoint(t, tag+" after addRows", w)
			checkFullRHS(t, tag+" after addRows", f)
			if d := condensedDiff(w, f); d != "" {
				t.Fatalf("%s after addRows: %s differs from the full tableau", tag, d)
			}
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
