package batch

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/obs"
	"regsat/internal/reduce"
	"regsat/internal/rs"
	"regsat/internal/schedule"
)

// DefaultCacheSize bounds the memo when Options.CacheSize is zero.
const DefaultCacheSize = 1024

// memo is a bounded LRU cache of per-graph analysis artifacts, keyed by the
// ir fingerprint. Each entry holds the artifacts every RS method shares —
// the one ir.Snapshot serving all register types of the graph, the
// per-type rs.Analysis views over it, and finished RS/reduction results
// keyed by their options — each computed at most once under singleflight
// semantics: concurrent workers that hit the same fingerprint block on the
// first computation instead of duplicating it.
type memo struct {
	// cap and l2 are set once in newMemo and immutable afterwards, so they
	// live above the mutex: mu guards only the fields below it.
	cap int
	l2  ResultCache

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses, l2hits atomic.Int64
}

func newMemo(capacity int, l2 ResultCache) *memo {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &memo{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		l2:      l2,
	}
}

// entry holds the memoized artifacts of one graph fingerprint. In-flight
// computations hold the entry pointer, so LRU eviction never invalidates a
// computation already underway.
type entry struct {
	fp string

	typesOnce sync.Once
	types     []ddg.RegType

	snapOnce sync.Once
	snap     *ir.Snapshot
	snapErr  error

	// The slot maps are made on first insert: most entries use only one or
	// two of them, and a store hit never needs an analysis.
	mu       sync.Mutex
	analyses map[ddg.RegType]*analysisSlot
	results  map[slotKey]*resultSlot
	reduces  map[string]*reduceSlot
	cyclics  map[slotKey]*cyclicSlot
}

// slotKey names one result of an entry: a register type under an options
// key (rsOptionsKey or cyclic.Options.Key). The L2 cache takes the two as
// separate key components.
type slotKey struct {
	t    ddg.RegType
	opts string
}

type analysisSlot struct {
	once sync.Once
	an   *rs.Analysis
	err  error
}

// resultSlot is a singleflight cell that does NOT memoize context
// cancellation: an exact solve interrupted by a cancelled batch must not
// poison the slot for later runs of a shared engine. The mutex is held for
// the whole computation, so concurrent workers on the same fingerprint block
// on the first computation instead of duplicating it (and a waiter whose own
// context is already cancelled recomputes, fails fast in the solver, and
// returns its context error without writing the slot).
type resultSlot struct {
	mu   sync.Mutex
	done bool
	res  *rs.Result
	err  error
}

// get returns the memoized result, computing it under the slot lock on first
// use. The second return reports whether this call ran the computation.
func (s *resultSlot) get(compute func() (*rs.Result, error)) (*rs.Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.res, false, s.err
	}
	res, err := compute()
	if isCtxErr(err) {
		return nil, true, err
	}
	s.done = true
	s.res, s.err = res, err
	return res, true, err
}

func isCtxErr(err error) bool {
	return err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

type reduceSlot struct {
	mu   sync.Mutex
	done bool
	// src is the graph the memoized result was computed against; serving the
	// result to a structurally identical but distinct graph re-extends that
	// graph instead, so callers never see another input's names.
	src *ddg.Graph
	res *reduce.Result
	err error
}

// lookup returns the entry for fp, creating and inserting it (with LRU
// eviction) when absent.
func (m *memo) lookup(fp string) *entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[fp]; ok {
		m.order.MoveToFront(el)
		return el.Value.(*entry)
	}
	e := &entry{fp: fp}
	m.entries[fp] = m.order.PushFront(e)
	for len(m.entries) > m.cap {
		oldest := m.order.Back()
		delete(m.entries, oldest.Value.(*entry).fp)
		m.order.Remove(oldest)
	}
	return e
}

// writtenTypes returns the sorted register types the entry's structure
// writes, computing them once per structure with compute (the first
// graph's or loop's Types): the fingerprint covers every node's written
// types, so all structural twins write the same ones.
func (e *entry) writtenTypes(compute func() []ddg.RegType) []ddg.RegType {
	e.typesOnce.Do(func() { e.types = compute() })
	return e.types
}

// snapshot returns the entry's ir.Snapshot, building it from g on first use.
// The entry owns it: one snapshot serves every register type and every
// structural twin of the graph (its artifacts ignore names; results over
// it are rebound to the caller's graph in result and reduction). The
// context is used only for tracing:
// when the winning caller's request is recorded, the one-time IR build
// appears as its span (later hitters see nothing — they didn't pay it).
func (e *entry) snapshot(ctx context.Context, g *ddg.Graph) (*ir.Snapshot, error) {
	e.snapOnce.Do(func() {
		_, sp := obs.StartSpan(ctx, "ir.build", obs.Int("nodes", int64(len(g.Nodes()))))
		e.snap, e.snapErr = ir.Build(g)
		sp.End()
	})
	return e.snap, e.snapErr
}

// analysis returns the entry's rs.Analysis for register type t, computing it
// on first use (all types share the entry's snapshot). The context only
// carries tracing, as in snapshot.
func (e *entry) analysis(ctx context.Context, g *ddg.Graph, t ddg.RegType) (*rs.Analysis, error) {
	e.mu.Lock()
	slot, ok := e.analyses[t]
	if !ok {
		if e.analyses == nil {
			e.analyses = make(map[ddg.RegType]*analysisSlot)
		}
		slot = &analysisSlot{}
		e.analyses[t] = slot
	}
	e.mu.Unlock()
	slot.once.Do(func() {
		snap, err := e.snapshot(ctx, g)
		if err != nil {
			slot.err = err
			return
		}
		_, sp := obs.StartSpan(ctx, "rs.analysis", obs.Str("type", string(t)))
		slot.an, slot.err = rs.NewAnalysisIR(snap, t)
		sp.End()
	})
	return slot.an, slot.err
}

// result returns the memoized RS result for (t, opts), computing it on first
// use; optsKey is rsOptionsKey(opts), rendered once per engine. The second
// return reports whether the result was served from cache — the in-memory
// slot or, when the engine has one, the L2 result cache (an L2 load seeds
// the slot, so the disk is read at most once per key). The context reaches
// all the way into an in-flight MILP solve, so batch cancellation
// interrupts it instead of waiting the solve out; interrupted computations
// are not memoized.
//
// The slot's result may have been computed over a structural twin of g (the
// entry's snapshot belongs to the first graph seen). Antichains and killing
// functions are node IDs, valid for every twin, but a witness schedule
// names nodes, so it is rebuilt over g, as the L2 store's Get does.
func (e *entry) result(ctx context.Context, m *memo, g *ddg.Graph, t ddg.RegType, opts rs.Options, optsKey string) (*rs.Result, bool, error) {
	key := slotKey{t, optsKey}
	e.mu.Lock()
	slot, ok := e.results[key]
	if !ok {
		if e.results == nil {
			e.results = make(map[slotKey]*resultSlot)
		}
		slot = &resultSlot{}
		e.results[key] = slot
	}
	e.mu.Unlock()
	fromL2 := false
	res, ran, err := slot.get(func() (*rs.Result, error) {
		cctx, sp := obs.StartSpan(ctx, "batch.rs", obs.Str("type", string(t)))
		defer sp.End()
		if m.l2 != nil {
			_, lsp := obs.StartSpan(cctx, "l2.get")
			r, ok := m.l2.Get(e.fp, g, t, optsKey)
			lsp.End()
			if ok {
				fromL2 = true
				sp.Event("l2.hit")
				return r, nil
			}
			sp.Event("l2.miss")
		}
		an, aerr := e.analysis(cctx, g, t)
		if aerr != nil {
			return nil, aerr
		}
		r, cerr := rs.ComputeWithAnalysis(cctx, an, opts)
		if cerr == nil && m.l2 != nil {
			_, psp := obs.StartSpan(cctx, "l2.put")
			m.l2.Put(e.fp, t, optsKey, r)
			psp.End()
		}
		return r, cerr
	})
	switch {
	case !ran:
		m.hits.Add(1)
		obs.FromContext(ctx).Event("memo.hit", obs.Str("type", string(t)))
	case fromL2:
		m.l2hits.Add(1)
	default:
		m.misses.Add(1)
	}
	if err == nil && res.Witness != nil && res.Witness.G != g {
		own := *res
		own.Witness = schedule.New(g, res.Witness.Times)
		res = &own
	}
	return res, !ran || fromL2, err
}

// cyclicSlot is the loop-kernel analog of resultSlot: a singleflight cell
// for one (type, cyclic options) periodic analysis, with the same
// no-memoization-of-cancellation rule.
type cyclicSlot struct {
	mu   sync.Mutex
	done bool
	res  *cyclic.Result
	err  error
}

func (s *cyclicSlot) get(compute func() (*cyclic.Result, error)) (*cyclic.Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.res, false, s.err
	}
	res, err := compute()
	if isCtxErr(err) {
		return nil, true, err
	}
	s.done = true
	s.res, s.err = res, err
	return res, true, err
}

// cyclicResult returns the memoized periodic analysis for (t, opts),
// computing it on first use; optsKey is opts.Key(), rendered once per
// engine. *win is the item's window substrate, made on the first type the
// item computes. Cyclic results carry no witness schedules (the
// window engine forces SkipWitness), so — unlike acyclic RS results — an L2
// hit needs no per-graph materialization and the L2 hook is the narrower
// CyclicCache interface, type-asserted from the engine's ResultCache.
func (e *entry) cyclicResult(ctx context.Context, m *memo, l *cyclic.Loop, win **cyclic.Windows, t ddg.RegType, opts cyclic.Options, optsKey string) (*cyclic.Result, bool, error) {
	key := slotKey{t, optsKey}
	e.mu.Lock()
	slot, ok := e.cyclics[key]
	if !ok {
		if e.cyclics == nil {
			e.cyclics = make(map[slotKey]*cyclicSlot)
		}
		slot = &cyclicSlot{}
		e.cyclics[key] = slot
	}
	e.mu.Unlock()
	l2, _ := m.l2.(CyclicCache)
	fromL2 := false
	res, ran, err := slot.get(func() (*cyclic.Result, error) {
		cctx, sp := obs.StartSpan(ctx, "batch.cyclic", obs.Str("type", string(t)))
		defer sp.End()
		if l2 != nil {
			_, lsp := obs.StartSpan(cctx, "l2.get")
			r, ok := l2.GetCyclic(e.fp, t, optsKey)
			lsp.End()
			if ok {
				fromL2 = true
				sp.Event("l2.hit")
				return r, nil
			}
			sp.Event("l2.miss")
		}
		if *win == nil {
			*win = cyclic.NewWindows(l)
		}
		r, cerr := (*win).Analyze(cctx, t, opts)
		if cerr == nil && l2 != nil {
			_, psp := obs.StartSpan(cctx, "l2.put")
			l2.PutCyclic(e.fp, t, optsKey, r)
			psp.End()
		}
		return r, cerr
	})
	switch {
	case !ran:
		m.hits.Add(1)
		obs.FromContext(ctx).Event("memo.hit", obs.Str("type", string(t)))
	case fromL2:
		m.l2hits.Add(1)
	default:
		m.misses.Add(1)
	}
	return res, !ran || fromL2, err
}

// reduction returns the memoized reduction result for (t, spec), computing
// it on first use; the second return reports whether this call ran the
// reduction (false = served from cache). Reductions whose spec has no
// cache key (a custom Run function the engine cannot identify) are
// computed every time.
//
// Unlike RS results — whose antichains and killing functions are plain node
// IDs, valid in every graph sharing the fingerprint — a reduction result
// carries a concrete extended *Graph. The fingerprint ignores names, so a
// memoized result computed for one input must not be handed verbatim to a
// structural twin with different names: the expensive search (the arcs) is
// reused, but the extended graph and witness schedule are rebuilt over the
// requesting graph.
func (e *entry) reduction(ctx context.Context, g *ddg.Graph, t ddg.RegType, spec *ReduceSpec) (*reduce.Result, bool, error) {
	if spec.Key == "" {
		res, err := spec.Run(ctx, g, t, spec.Budget)
		return res, true, err
	}
	key := fmt.Sprintf("%s|%s|%d", t, spec.Key, spec.Budget)
	e.mu.Lock()
	slot, ok := e.reduces[key]
	if !ok {
		if e.reduces == nil {
			e.reduces = make(map[string]*reduceSlot)
		}
		slot = &reduceSlot{}
		e.reduces[key] = slot
	}
	e.mu.Unlock()
	slot.mu.Lock()
	ran := false
	if !slot.done {
		ran = true
		res, err := spec.Run(ctx, g, t, spec.Budget)
		if isCtxErr(err) {
			slot.mu.Unlock()
			return nil, true, err
		}
		slot.src, slot.res, slot.err = g, res, err
		slot.done = true
	}
	res, err, src := slot.res, slot.err, slot.src
	slot.mu.Unlock()
	if err != nil || src == g {
		return res, ran, err
	}
	adapted := *res
	adapted.Graph = g.Extend(res.Arcs)
	if res.Schedule != nil {
		adapted.Schedule = schedule.New(adapted.Graph, res.Schedule.Times)
	}
	return &adapted, ran, nil
}

// rsOptionsKey renders the result-determining fields of rs.Options.
func rsOptionsKey(o rs.Options) string {
	return fmt.Sprintf("m%d|l%d|r%t|w%t|s%s",
		o.Method, o.MaxLeaves, o.ApplyReductions, o.SkipWitness, o.Solver.Key())
}

// Stats reports the cumulative cache behavior of one engine run.
type Stats struct {
	// Hits counts RS computations served from the in-memory memo (a
	// repeated graph or repeated register type under the same options).
	Hits int64
	// L2Hits counts RS computations served from the second-level result
	// cache (always 0 when Options.L2 is nil).
	L2Hits int64
	// Misses counts RS computations actually performed.
	Misses int64
}

func (m *memo) stats() Stats {
	return Stats{Hits: m.hits.Load(), L2Hits: m.l2hits.Load(), Misses: m.misses.Load()}
}
