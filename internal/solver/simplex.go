package solver

import (
	"math"
	"slices"
	"sync"

	"regsat/internal/lp"
)

// The engine's LP core is a bounded-variable dual simplex over a
// maintained tableau. The key property it exploits: branching only changes
// variable BOUNDS, never the matrix, so a basis that is optimal for a parent
// node stays dual feasible for its children — reoptimizing a child is a few
// dual pivots from the parent's final basis instead of a two-phase solve
// from scratch. A cold start is always available because, with every
// structural variable finitely bounded (guaranteed by the paper's schedule
// horizon T), the all-slack basis can be made dual feasible by placing each
// nonbasic column on the bound matching its reduced-cost sign — no phase 1,
// no artificial variables, ever.

type spxStatus int

const (
	spxOptimal    spxStatus = iota
	spxInfeasible           // primal infeasible, proved by the dual ray
	spxCutoff               // objective passed the prune target (early exit)
	spxIterLimit            // iteration cap hit (numerical trouble)
	spxCanceled             // context cancelled mid-solve
)

const (
	spxPivTol   = 1e-9
	spxFeasTol  = 1e-7
	spxDualTol  = 1e-7
	spxBlandCut = 5000  // iterations before the anti-cycling rule kicks in
	spxIterCap  = 50000 // hard per-node iteration limit
	refactorCut = 512   // pivots in one tableau before a fresh rebuild
)

const (
	spAtLower int8 = iota
	spAtUpper
	spBasic
)

// prob is the sparse form of one presolved model, shared by every worker
// of a solve: CSR constraint rows over the structural columns, internal
// minimization costs, slack bounds per row, and root variable bounds.
// Presolve writes it; root cut separation derives grown copies by
// appending rows (appendViolated); the search treats it as immutable.
type prob struct {
	sense     lp.Sense // the model's optimization direction
	objOffset float64  // model-sense constant added to every objective value
	n         int      // structural columns
	m         int      // rows
	N         int      // n + m total columns (slack j of row i is n+i)

	rowPtr []int32
	rowCol []int32
	rowVal []float64
	rhs    []float64
	rel    []lp.Rel

	cost             []float64 // length n, internal minimize sense
	rootLo, rootHi   []float64 // length n
	integer          []bool    // length n
	slackLo, slackHi []float64 // length m
	intObj           bool      // objective integral over integer variables
}

// closeRow ends the row whose terms were just appended to rowCol/rowVal,
// recording its relation, right-hand side and slack bounds.
func (p *prob) closeRow(rel lp.Rel, rhs float64) {
	p.rowPtr = append(p.rowPtr, int32(len(p.rowCol)))
	p.rhs = append(p.rhs, rhs)
	p.rel = append(p.rel, rel)
	switch rel {
	case lp.LE:
		p.slackLo, p.slackHi = append(p.slackLo, 0), append(p.slackHi, math.Inf(1))
	case lp.GE:
		p.slackLo, p.slackHi = append(p.slackLo, math.Inf(-1)), append(p.slackHi, 0)
	default: // EQ
		p.slackLo, p.slackHi = append(p.slackLo, 0), append(p.slackHi, 0)
	}
}

// internalObj converts a model-sense objective value to the internal
// minimization sense (and back — the map is an involution up to the offset).
func (p *prob) internalObj(ext float64) float64 {
	if p.sense == lp.Maximize {
		return -(ext - p.objOffset)
	}
	return ext - p.objOffset
}

// externalObj converts an internal minimization value to model sense.
func (p *prob) externalObj(internal float64) float64 {
	if p.sense == lp.Maximize {
		return -internal + p.objOffset
	}
	return internal + p.objOffset
}

// spx is one worker's reusable dual-simplex state. All slices are sized once
// and reused across node solves, so a dive allocates nothing.
//
// The tableau is kept condensed (Tucker form): one row per basic column and
// one column, a "slot", per nonbasic column, m × n instead of the full
// m × (N+1). The full tableau's basic columns are unit vectors and carry no
// information, except the diagonal entry (≈1 after rounding), which diag
// keeps so that a pivot computes the leaving column's new entries with the
// same floating-point operations as on the full tableau. It has no
// right-hand-side column either: xB carries the basic values. Every entry
// equals the full tableau's entry in the slot's column, and every pivot is
// the one the full tableau would make.
type spx struct {
	p *prob

	tab    []float64 // m × n, row-major: row i over the slots
	diag   []float64 // length m: full-tableau entry of row i in its own basic column
	col    []int32   // length n: the nonbasic column in each slot
	slot   []int32   // length N: slot of each nonbasic column, −1 if basic
	lo, hi []float64 // length N (structural then slack)
	basis  []int32   // length m: column basic in each row
	rowOf  []int32   // length N: row a column is basic in, −1 if nonbasic
	status []int8    // length N
	xval   []float64 // length N: value of each nonbasic column
	xB     []float64 // length m: value of the basic column of each row
	d      []float64 // length N: reduced costs

	// dweight holds the devex reference weights, one per row. The reference
	// framework is reset to all-ones on every tableau rebuild (reset), so a
	// refactorization doubles as the periodic devex reference reset.
	dweight []float64
	score   []float64 // length m: devex scores during dual (see there)
	// Per-pivot scratch: nz lists the nonzero slots of the pivot row (the
	// elimination touches only those), cand the ratio test's eligible slots
	// keyed column<<32 | slot, and rows the rows with a nonzero entry in
	// the entering column.
	nz   []int32
	cand []uint64
	rows []int32
	// probe hosts the iteration-capped strong-branching probes, which must
	// not disturb this tableau's basis mid-dive. Allocated on first use.
	probe *spx

	iters      int64 // simplex iterations since the last flush
	blandIters int64 // iterations under the anti-cycling Bland override
	pivots     int   // pivots since the last rebuild (refactorization trigger)
	iterLimit  int   // per-call iteration cap when > 0 (probe solves); else spxIterCap
	// pruneEvery checks the objective against the prune target on every
	// iteration instead of every 64th (root solves, see solveRoot).
	pruneEvery bool
	cancel     func() bool
}

// spxPool recycles tableau storage across solves: a cold solve of the
// paper's models otherwise spends most of its allocation on tableaux.
// Everything in it was released by releaseSpx and is owned by nobody.
var spxPool = sync.Pool{New: func() any { return new(spx) }}

// newSpx returns a tableau for p, reusing pooled storage when its capacity
// suffices. The contents are stale: reset, copyFrom or addRows overwrites
// every element before use.
func newSpx(p *prob) *spx {
	s := spxPool.Get().(*spx)
	*s = spx{
		p:       p,
		tab:     resize(s.tab, p.m*p.n),
		diag:    resize(s.diag, p.m),
		col:     resize(s.col, p.n),
		slot:    resize(s.slot, p.N),
		lo:      resize(s.lo, p.N),
		hi:      resize(s.hi, p.N),
		basis:   resize(s.basis, p.m),
		rowOf:   resize(s.rowOf, p.N),
		status:  resize(s.status, p.N),
		xval:    resize(s.xval, p.N),
		xB:      resize(s.xB, p.m),
		d:       resize(s.d, p.N),
		dweight: resize(s.dweight, p.m),
		score:   resize(s.score, p.m),
		nz:      resize(s.nz, p.n)[:0],
		cand:    resize(s.cand, p.n)[:0],
		rows:    resize(s.rows, p.m)[:0],
	}
	return s
}

// resize returns b resliced to length n, or a new slice when b is too small.
func resize[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

// testHookRelease, when set, sees every tableau releaseSpx pools. Tests use
// it to poison released storage; it is nil in production.
var testHookRelease func(s *spx)

// releaseSpx returns s and its probe tableau to the pool. Neither may be
// touched afterwards. A nil s is a no-op.
func releaseSpx(s *spx) {
	if s == nil {
		return
	}
	releaseSpx(s.probe)
	s.p, s.probe, s.cancel = nil, nil, nil
	if testHookRelease != nil {
		testHookRelease(s)
	}
	spxPool.Put(s)
}

// copyFrom makes s an exact clone of src (same prob), for iteration-capped
// probe solves that must not disturb the worker's live basis.
func (s *spx) copyFrom(src *spx) {
	copy(s.tab, src.tab)
	copy(s.diag, src.diag)
	copy(s.col, src.col)
	copy(s.slot, src.slot)
	copy(s.lo, src.lo)
	copy(s.hi, src.hi)
	copy(s.basis, src.basis)
	copy(s.rowOf, src.rowOf)
	copy(s.status, src.status)
	copy(s.xval, src.xval)
	copy(s.xB, src.xB)
	copy(s.d, src.d)
	copy(s.dweight, src.dweight)
	s.pivots = src.pivots
}

func (s *spx) row(i int) []float64 { return s.tab[i*s.p.n : (i+1)*s.p.n] }

// reset rebuilds the tableau from the sparse matrix under the given
// structural bounds and installs the dual-feasible all-slack basis: the
// structural columns are nonbasic, column j in slot j.
func (s *spx) reset(lo, hi []float64) {
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
		s.diag[i] = 1
		s.basis[i] = int32(p.n + i)
	}
	for j := 0; j < p.n; j++ {
		s.col[j], s.slot[j], s.rowOf[j] = int32(j), int32(j), -1
	}
	for i := 0; i < p.m; i++ {
		s.slot[p.n+i] = -1
		s.rowOf[p.n+i] = int32(i)
		s.status[p.n+i] = spBasic
		s.xval[p.n+i] = 0
	}
	// Nonbasic structural columns start on the bound their reduced-cost sign
	// demands (cost > 0 → lower, cost < 0 → upper); zero-cost columns take
	// the finite bound nearest zero. Presolve (emitProb) guarantees the
	// needed side is finite.
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
	// xB[i] = rhs_i − Σ_j a_ij·xval[j] for the nonbasic (structural) columns.
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

// addRows extends s, a tableau over the leading rows of p2 (same columns,
// p2 only appends rows), to all of p2's rows while keeping its basis. The
// new slack columns become basic, so the nonbasic columns, and with them
// the slots, stay as they are: the old rows are copied verbatim. Each new
// row is rewritten in terms of the current basis by eliminating its basic
// structural columns, and its slack becomes basic at rhs − a·x. Reduced
// costs do not change, so the basis stays dual feasible and dual resumes
// from where the last solve stopped. The replaced storage goes back to the
// pool.
func (s *spx) addRows(p2 *prob) {
	p := s.p
	t := newSpx(p2)
	N := p.N
	copy(t.tab, s.tab)
	copy(t.diag, s.diag)
	copy(t.col, s.col)
	copy(t.slot, s.slot)
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
		clear(r)
		act := 0.0
		for k := p2.rowPtr[i]; k < p2.rowPtr[i+1]; k++ {
			j, a := p2.rowCol[k], p2.rowVal[k]
			act += a * s.value(int(j))
			if b := s.rowOf[j]; b >= 0 {
				for c, v := range s.row(int(b)) {
					if v != 0 {
						r[c] -= a * v
					}
				}
			} else {
				r[s.slot[j]] += a
			}
		}
		slack := p2.n + i
		t.diag[i] = 1
		t.basis[i] = int32(slack)
		t.slot[slack] = -1
		t.rowOf[slack] = int32(i)
		t.status[slack] = spBasic
		t.xval[slack] = 0
		t.xB[i] = p2.rhs[i] - act
		t.d[slack] = 0
		t.dweight[i] = 1
	}
	t.iters, t.blandIters, t.pivots = s.iters, s.blandIters, s.pivots
	t.iterLimit, t.pruneEvery, t.cancel = s.iterLimit, s.pruneEvery, s.cancel
	*s, *t = *t, *s
	releaseSpx(t)
}

// applyBound tightens structural column j to [lo, hi] in place, keeping the
// current basis. If j is nonbasic its value is clamped (propagating the step
// into the basic values); if basic, the violation is left for the next dual
// reoptimization to repair.
func (s *spx) applyBound(j int, lo, hi float64) {
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
	n, sl := s.p.n, int(s.slot[j])
	for i := 0; i < s.p.m; i++ {
		if a := s.tab[i*n+sl]; a != 0 {
			s.xB[i] -= a * delta
		}
	}
	s.xval[j] = nv
}

// value returns the current value of column j.
func (s *spx) value(j int) float64 {
	if s.status[j] == spBasic {
		return s.xB[s.rowOf[j]]
	}
	return s.xval[j]
}

// obj returns the current objective in internal minimize sense. In dual
// simplex this value is a monotonically non-decreasing lower bound on the
// node's LP optimum, which makes it usable for early bound-based cutoff.
func (s *spx) obj() float64 {
	v := 0.0
	for j := 0; j < s.p.n; j++ {
		if c := s.p.cost[j]; c != 0 {
			v += c * s.value(j)
		}
	}
	return v
}

// extract writes the structural solution into x.
func (s *spx) extract(x []float64) {
	for j := 0; j < s.p.n; j++ {
		x[j] = s.value(j)
	}
}

// dual reoptimizes the current (dual-feasible) basis with the bounded-
// variable dual simplex. It stops early with spxCutoff as soon as the
// objective proves the node cannot beat pruneTarget (internal minimize
// sense; +inf disables the check), checked every 64 iterations or, with
// pruneEvery, on every iteration, the optimal one included.
func (s *spx) dual(pruneTarget float64) spxStatus {
	p := s.p
	n := p.n
	iterCap := spxIterCap
	if s.iterLimit > 0 && s.iterLimit < iterCap {
		iterCap = s.iterLimit
	}
	// score caches each row's devex score, its squared bound violation over
	// its reference weight (0 when feasible). A pivot changes the basic
	// value and the weight of only the pivot row and the rows it
	// eliminates, so only those are priced again.
	score := s.score
	for i := range score {
		s.price(i)
	}
	for iter := 0; ; iter++ {
		s.iters++
		if iter > iterCap {
			return spxIterLimit
		}
		if iter%64 == 0 && s.cancel != nil && s.cancel() {
			return spxCanceled
		}
		if (s.pruneEvery || iter%64 == 0) && !math.IsInf(pruneTarget, 1) && s.obj() > pruneTarget {
			return spxCutoff
		}
		bland := iter > spxBlandCut
		if bland {
			s.blandIters++
		}

		// Leaving row: devex pricing — the largest score — or the violated
		// row with the smallest basic column under the anti-cycling rule.
		r := -1
		if bland {
			for i := 0; i < p.m; i++ {
				if viol, _ := s.violation(i); viol > 0 && (r < 0 || s.basis[i] < s.basis[r]) {
					r = i
				}
			}
		} else {
			best := 0.0
			for i, sc := range score {
				if sc > best {
					r, best = i, sc
				}
			}
		}
		if r < 0 {
			return spxOptimal
		}
		_, tooLow := s.violation(r)
		b := s.basis[r]
		row := s.row(r)

		// One pass over the pivot row collects its nonzero slots and the
		// eligible entering candidates: nonbasic columns whose reduced cost
		// keeps its sign as x_q moves the leaving column toward its bound.
		// The candidates are sorted by column, so the ratio test sees them
		// in the order of a scan over the full row and breaks ties the same.
		nz, cand := s.nz[:0], s.cand[:0]
		for j, a := range row {
			if a == 0 {
				continue
			}
			nz = append(nz, int32(j))
			c := s.col[j]
			if a > -spxPivTol && a < spxPivTol || s.lo[c] == s.hi[c] {
				continue
			}
			st := s.status[c]
			var ok bool
			if tooLow {
				ok = (st == spAtLower && a < 0) || (st == spAtUpper && a > 0)
			} else {
				ok = (st == spAtLower && a > 0) || (st == spAtUpper && a < 0)
			}
			if ok {
				cand = append(cand, uint64(c)<<32|uint64(j))
			}
		}
		slices.Sort(cand)
		s.cand = cand

		// Dual ratio test: entering q minimizes |d_q|/|α_rq| so every
		// reduced cost keeps its sign.
		q, sq := -1, -1
		bestRatio, bestAbs := math.Inf(1), 0.0
		for _, key := range cand {
			j, sl := int(key>>32), int(uint32(key))
			abs := math.Abs(row[sl])
			ratio := math.Abs(s.d[j]) / abs
			if bland {
				if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && (q < 0 || j < q)) {
					q, sq, bestRatio = j, sl, math.Min(ratio, bestRatio)
				}
			} else if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && abs > bestAbs) {
				q, sq, bestRatio, bestAbs = j, sl, math.Min(ratio, bestRatio), abs
			}
		}
		if q < 0 {
			// Row r cannot reach its bound: primal infeasible.
			return spxInfeasible
		}

		// Step: move x_q so the leaving column lands exactly on its violated
		// bound, updating every basic value. The rows with a nonzero entry
		// in the entering column are the ones the elimination updates.
		target := s.hi[b]
		if tooLow {
			target = s.lo[b]
		}
		arq := row[sq]
		t := (s.xB[r] - target) / arq
		rows := s.rows[:0]
		for i := 0; i < p.m; i++ {
			if i == r {
				continue
			}
			if a := s.tab[i*n+sq]; a != 0 {
				s.xB[i] -= a * t
				rows = append(rows, int32(i))
			}
		}
		s.rows = rows
		newQ := s.xval[q] + t

		// Basis exchange bookkeeping: the leaving column takes the entering
		// column's slot.
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
		s.col[sq], s.slot[b], s.slot[q] = b, int32(sq), -1

		// Pivot the tableau and the reduced costs, propagating the devex
		// reference weights: with pivot α_rq and entering multipliers α_iq,
		// γ_i ← max(γ_i, (α_iq/α_rq)²·γ_r) and γ_r ← max(γ_r/α_rq², 1).
		// The pivot row is scaled by 1/α_rq. In slot sq its entry for q,
		// α_rq/α_rq, becomes the row's diagonal, and the leaving column's
		// entry is its old diagonal, scaled. Every other row with f = α_iq ≠ 0
		// loses f times the pivot row over the row's nonzero slots, and its
		// entry for the leaving column, zero before, becomes 0 − f·α'_rb.
		// These are the operations a zero-skipping sweep over the full
		// tableau makes, so every entry stays equal to the full tableau's.
		inv := 1.0 / arq
		k := 0
		for _, j := range nz {
			if int(j) == sq {
				continue
			}
			row[j] *= inv
			if row[j] != 0 {
				nz[k] = j
				k++
			}
		}
		nz = nz[:k]
		s.nz = nz
		s.diag[r], row[sq] = arq*inv, s.diag[r]*inv
		pb := row[sq]
		gr := s.dweight[r]
		wmax := 0.0
		for _, i := range rows {
			ri := s.row(int(i))
			f := ri[sq]
			for _, j := range nz {
				ri[j] -= f * row[j]
			}
			ri[sq] = 0 - f*pb
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
			// Drifted reference framework: reset early rather than price on
			// meaningless weights.
			for i := range s.dweight {
				s.dweight[i] = 1
			}
			for i := range score {
				s.price(i)
			}
		} else {
			for _, i := range rows {
				s.price(int(i))
			}
			s.price(r)
		}
		if f := s.d[q]; f != 0 {
			for _, j := range nz {
				s.d[s.col[j]] -= f * row[j]
			}
			if pb != 0 {
				s.d[b] -= f * pb
			}
			s.d[q] = 0
		}
		s.pivots++
	}
}

// violation returns how far row i's basic value lies outside its column's
// bounds, 0 within the feasibility tolerance, and whether it lies below.
func (s *spx) violation(i int) (viol float64, low bool) {
	b, v := s.basis[i], s.xB[i]
	if lim := s.lo[b]; v < lim-spxFeasTol {
		return lim - v, true
	}
	if lim := s.hi[b]; v > lim+spxFeasTol {
		return v - lim, false
	}
	return 0, false
}

// price sets row i's devex score: its squared violation over its
// reference weight, or 0 when the row is feasible.
func (s *spx) price(i int) {
	viol, _ := s.violation(i)
	if viol > 0 {
		s.score[i] = viol * viol / s.dweight[i]
	} else {
		s.score[i] = 0
	}
}

// verify checks x against the original sparse rows (the maintained tableau
// drifts; the CSR matrix does not).
func (s *spx) verify(x []float64) bool {
	p := s.p
	for i := 0; i < p.m; i++ {
		v := 0.0
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			v += p.rowVal[k] * x[p.rowCol[k]]
		}
		tol := 1e-6 * (1 + math.Abs(p.rhs[i]))
		switch p.rel[i] {
		case lp.LE:
			if v > p.rhs[i]+tol {
				return false
			}
		case lp.GE:
			if v < p.rhs[i]-tol {
				return false
			}
		default:
			if math.Abs(v-p.rhs[i]) > tol {
				return false
			}
		}
	}
	return true
}
