// Package batch is the concurrent batch-analysis engine: it shards register
// saturation analysis (and optional RS reduction) of a stream of DDGs across
// a bounded worker pool, memoizing the expensive shared artifacts — the
// ir.Snapshot (CSR adjacency, topological order, transitive
// closure, all-pairs longest paths, per-type value/killer tables), the
// per-type rs.Analysis views over it, and finished results — by the ir
// fingerprint, so repeated graphs and repeated register types never
// recompute.
//
// The engine guarantees:
//
//   - deterministic result ordering: results arrive in input-stream order
//     regardless of worker count or completion order;
//   - per-item error isolation: a graph that fails to load, analyze, or even
//     panics yields a Result carrying the error without killing the batch;
//   - prompt cancellation: cancelling the context stops the producer and
//     workers and closes the result channel after in-flight items drain.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/obs"
	"regsat/internal/reduce"
	"regsat/internal/rs"
)

// Options configures an Engine.
type Options struct {
	// Parallel is the worker count; 0 or negative means GOMAXPROCS.
	Parallel int
	// RS configures the saturation computation of every item.
	RS rs.Options
	// Cyclic configures the periodic analysis of loop items. When its RS
	// sub-options are the zero value they inherit the engine's RS options,
	// so one method/solver selection governs both item kinds.
	Cyclic cyclic.Options
	// Types restricts analysis to these register types; nil analyzes every
	// type each graph writes. Types a graph does not write are skipped.
	Types []ddg.RegType
	// Reduce, when non-nil with a positive budget, runs RS reduction after
	// each saturation whose RS exceeds the budget.
	Reduce *ReduceSpec
	// CacheSize bounds the fingerprint memo (entries); 0 = DefaultCacheSize.
	CacheSize int
	// L2 is an optional second-level result cache layered under the
	// in-memory memo: results the memo has to compute are first looked up
	// in (and written through to) L2, so they can outlive the process and
	// be shared across engines. The analysis daemon plugs its persistent
	// on-disk store in here.
	L2 ResultCache
}

// ResultCache is a second-level result cache under the memo, keyed exactly
// like the memo itself: the ir structural fingerprint, the register type,
// and the canonicalized options key. Implementations must be safe for
// concurrent use and are expected to be best-effort — a failed Get is a
// miss, a failed Put is dropped.
type ResultCache interface {
	// Get returns the cached result for (fp, t, optsKey), materialized
	// against g: node IDs are valid for every graph sharing the
	// fingerprint, and witness schedules are rebuilt over g.
	Get(fp string, g *ddg.Graph, t ddg.RegType, optsKey string) (*rs.Result, bool)
	// Put stores res under (fp, t, optsKey).
	Put(fp string, t ddg.RegType, optsKey string, res *rs.Result)
}

// CyclicCache is the optional loop-kernel extension of ResultCache: an L2
// cache that also implements it serves and stores periodic analysis results,
// keyed by the loop fingerprint (its domain is disjoint from acyclic ir
// fingerprints), the register type, and the canonicalized cyclic options key.
// L2 caches that do not implement it simply never see loop items.
type CyclicCache interface {
	// GetCyclic returns the cached periodic result for (fp, t, optsKey).
	GetCyclic(fp string, t ddg.RegType, optsKey string) (*cyclic.Result, bool)
	// PutCyclic stores res under (fp, t, optsKey).
	PutCyclic(fp string, t ddg.RegType, optsKey string, res *cyclic.Result)
}

// ReduceSpec describes the optional reduction pass of a batch.
type ReduceSpec struct {
	// Budget is the available register count R_t to reduce below.
	Budget int
	// Run performs the reduction (defaults to the heuristic when nil). The
	// context is the batch context: exact reductions must pass it to their
	// MILP solves so cancellation interrupts them.
	Run func(ctx context.Context, g *ddg.Graph, t ddg.RegType, budget int) (*reduce.Result, error)
	// Key identifies Run for memoization; leave empty to disable caching of
	// reductions (required when Run is a closure the engine cannot name).
	Key string
}

// HeuristicReduce is the default ReduceSpec Run: Touati's value-serialization
// heuristic.
func HeuristicReduce(ctx context.Context, g *ddg.Graph, t ddg.RegType, budget int) (*reduce.Result, error) {
	return reduce.Heuristic(ctx, g, t, budget)
}

// Result is the analysis outcome of one stream item.
type Result struct {
	// Index is the item's position in the input stream; results are
	// delivered in increasing Index order.
	Index int
	// Name identifies the item (file path, kernel or graph name).
	Name string
	// Graph is the finalized DDG (nil when Err is set before loading, or
	// when the item is a loop kernel).
	Graph *ddg.Graph
	// Loop is the item's cyclic kernel when the input carried the `loop`
	// flag; such items populate Cyclic instead of RS.
	Loop *cyclic.Loop
	// Fingerprint is the structural hash the memo keyed the item on
	// (Fingerprint(Graph), or Loop.Fingerprint()); "" when the item failed
	// before it was hashed.
	Fingerprint string
	// RS maps each analyzed register type to its saturation result. When the
	// batch contains structurally identical graphs, duplicates share one
	// memoized search (a twin's copy only swaps in a witness schedule over
	// its own graph) — treat results as immutable.
	RS map[ddg.RegType]*rs.Result
	// ComputedRS marks the types whose RS result this item actually
	// computed, as opposed to served from the memo or the L2 cache — the
	// hook for consumers (the analysis daemon's metrics) that must count
	// each solve exactly once, not once per cache hit. It is nil when the
	// item computed nothing.
	ComputedRS map[ddg.RegType]bool
	// Reductions maps each reduced type to its reduction result (only types
	// whose saturation exceeded the budget appear).
	Reductions map[ddg.RegType]*reduce.Result
	// ComputedReductions marks the reductions this item actually ran
	// (mirror of ComputedRS for the reduction pass).
	ComputedReductions map[ddg.RegType]bool
	// Cyclic maps each analyzed register type of a loop item to its periodic
	// saturation result. Structural twins share one *cyclic.Result — treat
	// results as immutable.
	Cyclic map[ddg.RegType]*cyclic.Result
	// ComputedCyclic mirrors ComputedRS for loop items (nil when nothing
	// was computed).
	ComputedCyclic map[ddg.RegType]bool
	// CacheHit reports that every RS computation of this item was served
	// from the memo.
	CacheHit bool
	// Elapsed is the wall time this item spent in a worker.
	Elapsed time.Duration
	// Err is the item's failure, if any; the batch continues past it.
	Err error
}

// Engine runs batches over a shared memo: consecutive Run calls on one
// engine reuse each other's cached artifacts.
type Engine struct {
	opts Options
	memo *memo
	// rsKey and cyclicKey render opts.RS and opts.Cyclic for the memo's
	// slot keys once, instead of once per item and type.
	rsKey, cyclicKey string
}

// New creates an engine. The zero Options value analyzes every type with
// Greedy-k across GOMAXPROCS workers.
func New(opts Options) *Engine {
	if opts.Cyclic.RS == (rs.Options{}) {
		opts.Cyclic.RS = opts.RS
	}
	if opts.Reduce != nil && opts.Reduce.Run == nil {
		r := *opts.Reduce
		r.Run = HeuristicReduce
		if r.Key == "" {
			r.Key = "heuristic"
		}
		opts.Reduce = &r
	}
	return &Engine{
		opts:      opts,
		memo:      newMemo(opts.CacheSize, opts.L2),
		rsKey:     rsOptionsKey(opts.RS),
		cyclicKey: opts.Cyclic.Key(),
	}
}

// WithOptions returns an engine running under different analysis options
// while sharing this engine's memo — and therefore its L1/L2 caches and
// cumulative statistics. The derived Options' CacheSize and L2 fields are
// ignored: the shared memo keeps the base engine's. The analysis daemon
// uses this to serve requests with per-request options over one cache.
func (e *Engine) WithOptions(opts Options) *Engine {
	derived := New(opts)
	derived.memo = e.memo
	return derived
}

// Stats returns the engine's cumulative cache statistics.
func (e *Engine) Stats() Stats { return e.memo.stats() }

// Parallelism returns the effective worker count.
func (e *Engine) Parallelism() int {
	if e.opts.Parallel > 0 {
		return e.opts.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

type work struct {
	index int
	item  Item
}

// Run launches the batch and returns the ordered result stream. The channel
// is closed when the stream is exhausted or the context is cancelled; after
// cancellation only already-in-flight results (in index order, possibly with
// gaps) are delivered.
func (e *Engine) Run(ctx context.Context, src Source) (<-chan Result, error) {
	if src == nil {
		return nil, fmt.Errorf("batch: nil source")
	}
	workers := e.Parallelism()
	in := make(chan work, workers)
	raw := make(chan Result, workers)
	out := make(chan Result, workers)

	// Producer: pull the (single-goroutine) source, stamp stream indices.
	go func() {
		defer close(in)
		for i := 0; ; i++ {
			it, ok := src.Next()
			if !ok {
				return
			}
			select {
			case in <- work{index: i, item: it}:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Workers: analyze items; panics and errors stay per-item.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for wk := range in {
				if ctx.Err() != nil {
					return
				}
				raw <- e.process(ctx, wk)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(raw)
	}()

	// Collector: reorder completions into input order through a window of
	// the results after the next one due: pending[k] holds index next+k
	// once it finished. After cancellation the consumer may walk away, so
	// every send also watches ctx.
	go func() {
		defer close(out)
		type slot struct {
			res  Result
			done bool
		}
		var pending []slot
		next := 0
		send := func(r Result) bool {
			select {
			case out <- r:
				return true
			case <-ctx.Done():
				return false
			}
		}
		for r := range raw {
			k := r.Index - next
			for len(pending) <= k {
				pending = append(pending, slot{})
			}
			pending[k] = slot{r, true}
			sent := 0
			for ; sent < len(pending) && pending[sent].done; sent++ {
				if !send(pending[sent].res) {
					for range raw { // release workers
					}
					return
				}
			}
			next += sent
			kept := copy(pending, pending[sent:])
			clear(pending[kept:])
			pending = pending[:kept]
		}
		// Cancellation can leave index gaps; flush what finished, in order.
		for _, s := range pending {
			if s.done && !send(s.res) {
				return
			}
		}
	}()
	return out, nil
}

// Collect runs the batch to completion and returns the ordered result slice.
func (e *Engine) Collect(ctx context.Context, src Source) ([]Result, error) {
	ch, err := e.Run(ctx, src)
	if err != nil {
		return nil, err
	}
	var out []Result
	for r := range ch {
		out = append(out, r)
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// process analyzes one item. All failure modes — load errors, analysis
// errors, panics from malformed graphs — are captured in the Result.
func (e *Engine) process(ctx context.Context, wk work) (res Result) {
	start := time.Now()
	res = Result{Index: wk.index, Name: wk.item.Name}
	// The item span (registered before the recover defer, so it ends last)
	// is one lane of a traced request's waterfall: its children are the
	// IR-build, per-type RS, and reduction spans below.
	ctx, isp := obs.StartSpan(ctx, "batch.item",
		obs.Str("item", wk.item.Name), obs.Int("index", int64(wk.index)))
	defer func() {
		if res.Err != nil {
			isp.SetAttr(obs.Str("err", res.Err.Error()))
		}
		isp.SetAttr(obs.Bool("cacheHit", res.CacheHit))
		isp.End()
	}()
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("batch: %s: panic: %v", wk.item.Name, p)
		}
		res.Elapsed = time.Since(start)
	}()
	if wk.item.Err != nil {
		res.Err = wk.item.Err
		return res
	}
	if wk.item.Loop != nil {
		return e.processLoop(ctx, wk, res)
	}
	g := wk.item.Graph
	if !g.Finalized() {
		if err := g.Finalize(); err != nil {
			res.Err = err
			return res
		}
	}
	res.Graph = g
	res.Fingerprint = Fingerprint(g)
	ent := e.memo.lookup(res.Fingerprint)
	types := e.opts.Types
	if len(types) == 0 {
		types = ent.writtenTypes(g.Types)
	}
	res.RS = make(map[ddg.RegType]*rs.Result, len(types))
	allCached := true
	for _, t := range types {
		if len(e.opts.Types) > 0 && !writes(g, t) {
			continue
		}
		if err := ctx.Err(); err != nil {
			res.Err = err
			return res
		}
		r, hit, err := ent.result(ctx, e.memo, g, t, e.opts.RS, e.rsKey)
		if err != nil {
			res.Err = fmt.Errorf("%s/%s: %w", wk.item.Name, t, err)
			return res
		}
		if !hit {
			allCached = false
			if res.ComputedRS == nil {
				res.ComputedRS = make(map[ddg.RegType]bool, len(types))
			}
			res.ComputedRS[t] = true
		}
		res.RS[t] = r
		if e.opts.Reduce != nil && e.opts.Reduce.Budget > 0 && r.RS > e.opts.Reduce.Budget {
			rctx, rsp := obs.StartSpan(ctx, "batch.reduce", obs.Str("type", string(t)))
			rr, ran, err := ent.reduction(rctx, g, t, e.opts.Reduce)
			rsp.End()
			if err != nil {
				res.Err = fmt.Errorf("%s/%s: reduce: %w", wk.item.Name, t, err)
				return res
			}
			if res.Reductions == nil {
				res.Reductions = map[ddg.RegType]*reduce.Result{}
				res.ComputedReductions = map[ddg.RegType]bool{}
			}
			res.Reductions[t] = rr
			if ran {
				res.ComputedReductions[t] = true
			}
		}
	}
	res.CacheHit = allCached && len(res.RS) > 0
	return res
}

// processLoop analyzes one loop item: unrolled-window convergence (plus the
// periodic certificate when the options ask for it) per register type, with
// results memoized under the loop's domain-tagged fingerprint exactly like
// acyclic RS results.
func (e *Engine) processLoop(ctx context.Context, wk work, res Result) Result {
	l := wk.item.Loop
	if !wk.item.validated {
		if err := l.Validate(); err != nil {
			res.Err = err
			return res
		}
	}
	res.Loop = l
	res.Fingerprint = l.Fingerprint()
	ent := e.memo.lookup(res.Fingerprint)
	types := e.opts.Types
	if len(types) == 0 {
		types = ent.writtenTypes(l.Types)
	}
	res.Cyclic = make(map[ddg.RegType]*cyclic.Result, len(types))
	// The item's unrolled windows serve all its types; the memo keeps only
	// the results, so they are built on the first computed type and dropped
	// with the item.
	var win *cyclic.Windows
	allCached := true
	for _, t := range types {
		if len(e.opts.Types) > 0 && !loopWrites(l, t) {
			continue
		}
		if err := ctx.Err(); err != nil {
			res.Err = err
			return res
		}
		r, hit, err := ent.cyclicResult(ctx, e.memo, l, &win, t, e.opts.Cyclic, e.cyclicKey)
		if err != nil {
			res.Err = fmt.Errorf("%s/%s: %w", wk.item.Name, t, err)
			return res
		}
		if !hit {
			allCached = false
			if res.ComputedCyclic == nil {
				res.ComputedCyclic = make(map[ddg.RegType]bool, len(types))
			}
			res.ComputedCyclic[t] = true
		}
		res.Cyclic[t] = r
	}
	res.CacheHit = allCached && len(res.Cyclic) > 0
	return res
}

func loopWrites(l *cyclic.Loop, t ddg.RegType) bool {
	for _, n := range l.Nodes() {
		if n.WritesType(t) {
			return true
		}
	}
	return false
}

func writes(g *ddg.Graph, t ddg.RegType) bool {
	for _, n := range g.Nodes() {
		if n.WritesType(t) {
			return true
		}
	}
	return false
}
