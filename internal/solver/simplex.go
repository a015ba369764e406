package solver

import (
	"math"
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
type spx struct {
	p      *prob
	stride int // N+1: tableau row length, rhs in the last column

	tab    []float64 // m × stride, row-major
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
	// nz lists the nonzero columns (rhs included) of the scaled pivot row of
	// the current pivot: the elimination touches only those.
	nz []int32
	// probe hosts the iteration-capped strong-branching probes, which must
	// not disturb this tableau's basis mid-dive. Allocated on first use.
	probe *spx

	iters      int64 // simplex iterations since the last flush
	blandIters int64 // iterations under the anti-cycling Bland override
	pivots     int   // pivots since the last rebuild (refactorization trigger)
	iterLimit  int   // per-call iteration cap when > 0 (probe solves); else spxIterCap
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
	stride := p.N + 1
	*s = spx{
		p:       p,
		stride:  stride,
		tab:     resize(s.tab, p.m*stride),
		lo:      resize(s.lo, p.N),
		hi:      resize(s.hi, p.N),
		basis:   resize(s.basis, p.m),
		rowOf:   resize(s.rowOf, p.N),
		status:  resize(s.status, p.N),
		xval:    resize(s.xval, p.N),
		xB:      resize(s.xB, p.m),
		d:       resize(s.d, p.N),
		dweight: resize(s.dweight, p.m),
		nz:      resize(s.nz, stride)[:0],
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

// solution extracts the structural solution into a fresh slice.
func (s *spx) solution() []float64 {
	x := make([]float64, s.p.n)
	s.extract(x)
	return x
}

func (s *spx) row(i int) []float64 { return s.tab[i*s.stride : (i+1)*s.stride] }

// reset rebuilds the tableau from the sparse matrix under the given
// structural bounds and installs the dual-feasible all-slack basis.
func (s *spx) reset(lo, hi []float64) {
	p := s.p
	copy(s.lo[:p.n], lo)
	copy(s.hi[:p.n], hi)
	copy(s.lo[p.n:], p.slackLo)
	copy(s.hi[p.n:], p.slackHi)
	for i := range s.tab {
		s.tab[i] = 0
	}
	for i := 0; i < p.m; i++ {
		r := s.row(i)
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			r[p.rowCol[k]] = p.rowVal[k]
		}
		r[p.n+i] = 1
		r[p.N] = p.rhs[i]
		s.basis[i] = int32(p.n + i)
		s.xB[i] = p.rhs[i]
	}
	for j := 0; j < p.N; j++ {
		s.rowOf[j] = -1
	}
	for i := 0; i < p.m; i++ {
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
// old rows are copied into the wider stride with zero entries in the new
// slack columns. Each new row is rewritten in terms of the current basis by
// eliminating its basic structural columns, and its slack becomes basic at
// rhs − a·x. Reduced costs do not change, so the basis stays dual feasible
// and dual resumes from where the last solve stopped. The replaced storage
// goes back to the pool.
func (s *spx) addRows(p2 *prob) {
	p := s.p
	t := newSpx(p2)
	N, N2 := p.N, p2.N
	for i := 0; i < p.m; i++ {
		src, dst := s.row(i), t.row(i)
		copy(dst, src[:N])
		clear(dst[N:N2])
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
		clear(r)
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
				// Row b is exactly zero in every other basic column, so
				// only j's own entry can keep a rounding residue.
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
	t.iterLimit, t.cancel = s.iterLimit, s.cancel
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
	for i := 0; i < s.p.m; i++ {
		if a := s.tab[i*s.stride+j]; a != 0 {
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
// sense; +inf disables the check).
func (s *spx) dual(pruneTarget float64) spxStatus {
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

		// Leaving row: devex pricing — maximize squared violation over the
		// row's reference weight — or the violated row with the smallest
		// basic column under the anti-cycling rule.
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

		// Dual ratio test over the eligible nonbasic columns: entering q
		// minimizes |d_q|/|α_rq| so every reduced cost keeps its sign.
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
			// Row r cannot reach its bound: primal infeasible.
			return spxInfeasible
		}

		// Step: move x_q so the leaving column lands exactly on its violated
		// bound, updating every basic value.
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

		// Basis exchange bookkeeping.
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

		// Pivot the tableau (rhs column included) and the reduced costs,
		// propagating the devex reference weights: with pivot α_rq and
		// entering multipliers α_iq, γ_i ← max(γ_i, (α_iq/α_rq)²·γ_r) and
		// γ_r ← max(γ_r/α_rq², 1).
		// Only the pivot row's nonzero columns change in the other rows, so
		// they are collected once and every row update runs over that list:
		// the same floating-point operations as a full-row sweep that skips
		// zeros, at a cost proportional to the row's nonzeros.
		inv := 1.0 / arq
		gr := s.dweight[r]
		wmax := 0.0
		nz := s.nz[:0]
		for j := 0; j <= p.N; j++ {
			row[j] *= inv
			if row[j] != 0 {
				nz = append(nz, int32(j))
			}
		}
		s.nz = nz
		for i := 0; i < p.m; i++ {
			if i == r {
				continue
			}
			ri := s.row(i)
			f := ri[q]
			if f == 0 {
				continue
			}
			for _, j := range nz {
				ri[j] -= f * row[j]
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
			// Drifted reference framework: reset early rather than price on
			// meaningless weights.
			for i := range s.dweight {
				s.dweight[i] = 1
			}
		}
		if f := s.d[q]; f != 0 {
			for _, j := range nz {
				if int(j) < p.N {
					s.d[j] -= f * row[j]
				}
			}
			s.d[q] = 0
		}
		s.pivots++
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
