package cyclic

import (
	"context"
	"fmt"

	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/obs"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// DefaultMaxWindow bounds the unrolled-window sweep when Options.MaxWindow
// is zero.
const DefaultMaxWindow = 12

// DefaultStable is the number of consecutive equal per-window deltas that
// declare convergence when Options.Stable is zero.
const DefaultStable = 3

// Options configures one periodic RS analysis.
type Options struct {
	// MaxWindow caps the unrolled window size k (0 = DefaultMaxWindow).
	MaxWindow int
	// Stable is the number of consecutive equal deltas RS(k) − RS(k−1)
	// required to declare the per-iteration contribution converged
	// (0 = DefaultStable).
	Stable int
	// Certify runs the exact periodic MILP at the minimum initiation
	// interval on kernels small enough (MaxCertifyValues) and attaches the
	// certificate to the result, extending the window sweep far enough to
	// verify the containment PRS ≤ RS(Jmax).
	Certify bool
	// MaxCertifyValues bounds the per-type value count of kernels Certify
	// attempts (0 = DefaultMaxCertifyValues). Larger kernels get windows
	// only.
	MaxCertifyValues int
	// RS configures the acyclic engine run on each window.
	RS rs.Options
}

// DefaultMaxCertifyValues bounds Certify to tiny kernels: the periodic MILP
// has O(values·II·Jmax) binaries.
const DefaultMaxCertifyValues = 4

func (o Options) withDefaults() Options {
	if o.MaxWindow <= 0 {
		o.MaxWindow = DefaultMaxWindow
	}
	if o.Stable <= 0 {
		o.Stable = DefaultStable
	}
	if o.MaxCertifyValues <= 0 {
		o.MaxCertifyValues = DefaultMaxCertifyValues
	}
	// Witness schedules of synthetic unrolled windows are never surfaced;
	// skipping them keeps window results cheap and cacheable.
	o.RS.SkipWitness = true
	return o
}

// Key renders the result-determining fields for cache keys, mirroring the
// batch memo's rs options key.
func (o Options) Key() string {
	o = o.withDefaults()
	r := o.RS
	return fmt.Sprintf("k%d|st%d|c%t|v%d|m%d|l%d|s%s",
		o.MaxWindow, o.Stable, o.Certify, o.MaxCertifyValues,
		r.Method, r.MaxLeaves, r.Solver.Key())
}

// Result is the periodic register saturation of one register type.
type Result struct {
	Type ddg.RegType `json:"type"`
	// Windows[i] is RS of the (i+1)-iteration unrolled window. The sequence
	// is non-decreasing (monotonicity) and subadditive, so Windows[k]/k
	// converges to the true per-iteration saturation (Fekete).
	Windows []int `json:"windows"`
	// PerIter estimates the per-iteration RS contribution Δ: the last
	// stable difference RS(k) − RS(k−1). Convergence is a heuristic stop
	// (equal deltas, not a proof), so it is an estimate even when Converged
	// is true; when Converged is false it is the last observed delta. Only
	// Slope is proven.
	PerIter int `json:"perIter"`
	// Converged reports that the last `stable` deltas were identical.
	Converged bool `json:"converged"`
	// Window is the number of windows the sweep ran (len(Windows)).
	Window int `json:"window"`
	// Slope is the proven Fekete upper bound min_k RS(k)/k on the asymptotic
	// per-iteration saturation: subadditivity gives
	// lim RS(k)/k = inf RS(k)/k ≤ Slope.
	Slope float64 `json:"slope"`
	// Exact reports that every window's RS was proven exact by the acyclic
	// engine (greedy or capped windows clear it; the numbers are then valid
	// lower bounds).
	Exact bool `json:"exact"`
	// Periodic is the exact periodic-MILP certificate, when one was computed
	// (Options.Certify on a small kernel).
	Periodic *Periodic `json:"periodic,omitempty"`
}

// Periodic is the exact periodic MILP's certificate: the maximum steady-state
// register pressure of any periodic schedule with initiation interval II.
type Periodic struct {
	// II is the initiation interval the formulation ran at (the minimum
	// feasible one, unless overridden).
	II int64 `json:"ii"`
	// RS is the optimal steady-state pressure P* (best incumbent when the
	// solve was capped).
	RS int `json:"rs"`
	// Exact reports the solve proved optimality.
	Exact bool `json:"exact"`
	// UpperBound is the proven dual bound when capped: P* ∈ [RS, UpperBound].
	// Equal to RS when Exact.
	UpperBound int `json:"upperBound"`
	// Jmax is the steady-state copy bound: no value overlaps more than Jmax
	// of its own iteration copies, so PRS ≤ RS(k) for every window k ≥ Jmax.
	Jmax int `json:"jmax"`
	// Stats is the MILP solve's work accounting.
	Stats *solver.Stats `json:"stats,omitempty"`
}

// Windows is the unrolled-window substrate of one loop: window k's DDG and
// its ir.Snapshot are built on first use and kept, so every register type
// analyzed through the same Windows (and the certificate's window
// extension) shares them. It is owned by one caller for the span of one
// loop's analysis — the batch engine makes one per loop item and keeps only
// the results — and is not safe for concurrent use.
type Windows struct {
	l     *Loop
	snaps []*ir.Snapshot // snaps[k-1] is window k's snapshot, nil until used
}

// NewWindows returns the (still empty) window substrate of l.
func NewWindows(l *Loop) *Windows { return &Windows{l: l} }

// snapshot returns window k's snapshot, unrolling and building it on first
// use.
func (w *Windows) snapshot(k int) (*ir.Snapshot, error) {
	for len(w.snaps) < k {
		w.snaps = append(w.snaps, nil)
	}
	if s := w.snaps[k-1]; s != nil {
		return s, nil
	}
	g, err := w.l.Unroll(k)
	if err != nil {
		return nil, err
	}
	s, err := ir.Build(g)
	if err != nil {
		return nil, err
	}
	w.snaps[k-1] = s
	return s, nil
}

// windowRS runs the acyclic engine on type t of the k-iteration window.
func (w *Windows) windowRS(ctx context.Context, t ddg.RegType, k int, opts rs.Options) (*rs.Result, error) {
	snap, err := w.snapshot(k)
	if err != nil {
		return nil, err
	}
	an, err := rs.NewAnalysisIR(snap, t)
	if err != nil {
		return nil, err
	}
	return rs.ComputeWithAnalysis(ctx, an, opts)
}

// Analyze computes the periodic register saturation of one register type via
// the unrolled-window sweep, optionally certified by the periodic MILP. To
// analyze several types of one loop, call Windows.Analyze on one Windows.
func Analyze(ctx context.Context, l *Loop, t ddg.RegType, opt Options) (*Result, error) {
	return NewWindows(l).Analyze(ctx, t, opt)
}

// Analyze is the package-level Analyze over the windows w already holds.
func (w *Windows) Analyze(ctx context.Context, t ddg.RegType, opt Options) (*Result, error) {
	l := w.l
	opt = opt.withDefaults()
	if err := l.Validate(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "cyclic.windows",
		obs.Str("type", string(t)), obs.Int("maxWindow", int64(opt.MaxWindow)))
	defer sp.End()
	res := &Result{Type: t, Exact: true}
	stableRun := 0
	lastDelta := -1
	for k := 1; k <= opt.MaxWindow; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := w.windowRS(ctx, t, k, opt.RS)
		if err != nil {
			return nil, err
		}
		rsK := r.RS
		res.Exact = res.Exact && r.Exact
		if k > 1 && rsK < res.Windows[k-2] {
			return nil, fmt.Errorf("cyclic: window monotonicity violated on %q/%s: RS(%d)=%d < RS(%d)=%d",
				l.Name, t, k, rsK, k-1, res.Windows[k-2])
		}
		res.Windows = append(res.Windows, rsK)
		slope := float64(rsK) / float64(k)
		if k == 1 || slope < res.Slope {
			res.Slope = slope
		}
		if k > 1 {
			delta := rsK - res.Windows[k-2]
			if delta == lastDelta {
				stableRun++
			} else {
				stableRun = 1
				lastDelta = delta
			}
			res.PerIter = delta
			if stableRun >= opt.Stable {
				res.Converged = true
				break
			}
		} else {
			res.PerIter = rsK
		}
	}
	res.Window = len(res.Windows)
	sp.SetAttr(obs.Int("windows", int64(res.Window)),
		obs.Bool("converged", res.Converged), obs.Int("perIter", int64(res.PerIter)))

	if opt.Certify && valueCount(l, t) > 0 && valueCount(l, t) <= opt.MaxCertifyValues {
		cert, err := certify(ctx, w, t, res, opt)
		if err != nil {
			return nil, err
		}
		res.Periodic = cert
	}
	return res, nil
}

// AnalyzeAll runs Analyze for every register type the body writes, all over
// one Windows.
func AnalyzeAll(ctx context.Context, l *Loop, opt Options) (map[ddg.RegType]*Result, error) {
	w := NewWindows(l)
	out := map[ddg.RegType]*Result{}
	for _, t := range l.Types() {
		r, err := w.Analyze(ctx, t, opt)
		if err != nil {
			return nil, err
		}
		out[t] = r
	}
	return out, nil
}

func valueCount(l *Loop, t ddg.RegType) int {
	n := 0
	for i := range l.nodes {
		if l.nodes[i].WritesType(t) {
			n++
		}
	}
	return n
}
