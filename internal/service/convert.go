package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"regsat/client"
	"regsat/internal/batch"
	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/reduce"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// batchOptions maps the wire options onto the batch engine's. Unknown
// enumeration values and negative budgets are request errors (400), not
// item errors: they mean the whole request is malformed, and served they
// would each get memo and store keys of their own.
func (s *Server) batchOptions(o client.AnalyzeOptions) (batch.Options, error) {
	for _, b := range []struct {
		name string
		v    int64
	}{
		{"maxLeaves", o.MaxLeaves},
		{"solver.maxNodes", int64(o.Solver.MaxNodes)},
		{"solver.timeLimitMs", o.Solver.TimeLimitMs},
	} {
		if b.v < 0 {
			return batch.Options{}, fmt.Errorf("%s must be non-negative (got %d)", b.name, b.v)
		}
	}
	var rsOpts rs.Options
	switch o.Method {
	case "", "greedy":
		rsOpts.Method = rs.MethodGreedy
	case "bb":
		rsOpts.Method = rs.MethodExactBB
	case "ilp":
		rsOpts.Method = rs.MethodExactILP
		rsOpts.ApplyReductions = true
	default:
		return batch.Options{}, fmt.Errorf("unknown method %q (want greedy, bb, or ilp)", o.Method)
	}
	rsOpts.MaxLeaves = o.MaxLeaves
	rsOpts.SkipWitness = !o.Witness
	rsOpts.Solver = wireSolver(o.Solver)
	switch o.Solver.Backend {
	case "", "sparse":
	default:
		return batch.Options{}, fmt.Errorf("unknown solver backend %q (want \"sparse\" or empty)", o.Solver.Backend)
	}

	var types []ddg.RegType
	for _, t := range o.Types {
		types = append(types, ddg.RegType(t))
	}

	opts := batch.Options{
		Parallel: s.cfg.Workers,
		RS:       rsOpts,
		Types:    types,
	}
	if o.Cyclic != nil {
		if o.Cyclic.MaxWindow < 0 {
			return batch.Options{}, fmt.Errorf("cyclic.maxWindow must be non-negative (got %d)", o.Cyclic.MaxWindow)
		}
		// The per-window RS options are left zero here: the engine inherits
		// them from the request's RS options (batch.New).
		opts.Cyclic = cyclic.Options{
			MaxWindow: o.Cyclic.MaxWindow,
			Stable:    o.Cyclic.Stable,
			Certify:   o.Cyclic.Certify,
		}
	}
	if o.Reduce != nil {
		if o.Reduce.Budget <= 0 {
			return batch.Options{}, fmt.Errorf("reduce.budget must be positive (got %d)", o.Reduce.Budget)
		}
		spec, err := reduceSpec(o.Reduce, rsOpts.Solver)
		if err != nil {
			return batch.Options{}, err
		}
		opts.Reduce = spec
	}
	return opts, nil
}

func wireSolver(o client.SolverOptions) solver.Options {
	return solver.Options{
		MaxNodes:  o.MaxNodes,
		TimeLimit: time.Duration(o.TimeLimitMs) * time.Millisecond,
	}
}

// reduceSpec maps the wire reduction request onto a batch.ReduceSpec whose
// Key makes results memoizable.
func reduceSpec(r *client.ReduceSpec, solverOpts solver.Options) (*batch.ReduceSpec, error) {
	switch r.Method {
	case "", "heuristic":
		return &batch.ReduceSpec{Budget: r.Budget, Run: batch.HeuristicReduce, Key: "heuristic"}, nil
	case "exact":
		return &batch.ReduceSpec{
			Budget: r.Budget,
			Run: func(ctx context.Context, g *ddg.Graph, t ddg.RegType, budget int) (*reduce.Result, error) {
				return reduce.ExactCombinatorial(ctx, g, t, budget, reduce.ExactOptions{})
			},
			Key: "exact",
		}, nil
	case "ilp":
		ilp := reduce.ILPOptions{ApplyReductions: true, GuaranteeDAG: true, Solver: solverOpts}
		return &batch.ReduceSpec{
			Budget: r.Budget,
			Run: func(ctx context.Context, g *ddg.Graph, t ddg.RegType, budget int) (*reduce.Result, error) {
				return reduce.ExactILP(ctx, g, t, budget, ilp)
			},
			Key: "ilp|" + solverOpts.Key(),
		}, nil
	default:
		return nil, fmt.Errorf("unknown reduce method %q (want heuristic, exact, or ilp)", r.Method)
	}
}

// buildSource assembles the request's input stream: inline graphs first
// (parse and finalize failures become per-item errors carrying the parse
// position), then corpus references resolved under the configured root.
func (s *Server) buildSource(req *client.AnalyzeRequest) (batch.Source, error) {
	var sources []batch.Source
	if len(req.Graphs) > 0 {
		items := make([]batch.Item, len(req.Graphs))
		for i, gi := range req.Graphs {
			items[i] = inlineItem(i, gi)
		}
		sources = append(sources, batch.Items(items...))
	}
	if len(req.Corpus) > 0 {
		if s.cfg.CorpusRoot == "" {
			return nil, errors.New("corpus references are disabled on this server (no corpus root configured)")
		}
		root, err := filepath.Abs(s.cfg.CorpusRoot)
		if err != nil {
			return nil, err
		}
		paths := make([]string, len(req.Corpus))
		for i, ref := range req.Corpus {
			// Clean("/"+ref) pins the reference under the root: ".." cannot
			// climb above "/", so no reference escapes the corpus tree.
			paths[i] = filepath.Join(root, filepath.Clean("/"+ref))
		}
		src, err := batch.Paths(paths...)
		if err != nil {
			return nil, err
		}
		sources = append(sources, src)
	}
	return batch.Concat(sources...), nil
}

// inlineItem parses one inline graph into a batch item named by the
// request, else by the graph's own name, else by its position.
func inlineItem(i int, gi client.GraphInput) batch.Item {
	it := batch.ParseText(gi.DDG)
	switch {
	case gi.Name != "":
		it.Name = gi.Name
	case it.Name == "":
		it.Name = fmt.Sprintf("graph[%d]", i)
	}
	return it
}

// itemToWire converts one batch result, folding its solver stats into the
// server aggregate on the way out.
func (s *Server) itemToWire(res batch.Result, withWitness, wantDDG bool) client.Item {
	s.items.Add(1)
	if s.cluster != nil && res.Fingerprint != "" {
		s.cluster.countItem(res.Fingerprint)
	}
	item := client.Item{
		Index:     res.Index,
		Name:      res.Name,
		CacheHit:  res.CacheHit,
		ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
	}
	if res.Err != nil {
		s.itemErrors.Add(1)
		item.Error = res.Err.Error()
		var perr *ddg.ParseError
		if errors.As(res.Err, &perr) {
			item.ErrorLine, item.ErrorCol = perr.Line, perr.Col
		}
		return item
	}
	if res.Loop != nil {
		item.Nodes = len(res.Loop.Nodes())
		item.Edges = len(res.Loop.Edges())
		if len(res.Cyclic) > 0 {
			item.Cyclic = make(map[string]*client.CyclicOutcome, len(res.Cyclic))
			for t, r := range res.Cyclic {
				item.Cyclic[string(t)] = cyclicToWire(r)
			}
		}
		return item
	}
	g := res.Graph
	item.Nodes = g.NumNodes()
	item.Edges = g.NumEdges()
	item.CriticalPath = g.CriticalPath()
	if len(res.RS) > 0 {
		item.RS = make(map[string]*client.RSOutcome, len(res.RS))
		for t, r := range res.RS {
			item.RS[string(t)] = s.rsToWire(g, r, withWitness, res.ComputedRS[t])
		}
	}
	if len(res.Reductions) > 0 {
		item.Reductions = make(map[string]*client.ReduceOutcome, len(res.Reductions))
		for t, r := range res.Reductions {
			item.Reductions[string(t)] = s.reduceToWire(r, wantDDG, res.ComputedReductions[t])
		}
	}
	return item
}

// cyclicToWire converts one periodic loop result.
func cyclicToWire(r *cyclic.Result) *client.CyclicOutcome {
	out := &client.CyclicOutcome{
		Windows:   r.Windows,
		PerIter:   r.PerIter,
		Converged: r.Converged,
		Window:    r.Window,
		Slope:     r.Slope,
		Exact:     r.Exact,
	}
	if p := r.Periodic; p != nil {
		out.Periodic = &client.PeriodicOutcome{
			II:         p.II,
			RS:         p.RS,
			Exact:      p.Exact,
			UpperBound: p.UpperBound,
			Jmax:       p.Jmax,
		}
	}
	return out
}

// rsToWire converts one saturation result; computed reports whether this
// request ran the underlying solve (cache hits must not re-feed their
// historical stats into the server aggregate).
func (s *Server) rsToWire(g *ddg.Graph, r *rs.Result, withWitness, computed bool) *client.RSOutcome {
	out := &client.RSOutcome{RS: r.RS, Exact: r.Exact}
	if len(r.Antichain) > 0 {
		out.Antichain = make([]string, 0, len(r.Antichain))
	}
	for _, id := range r.Antichain {
		out.Antichain = append(out.Antichain, g.Node(id).Name)
	}
	if !r.Exact {
		if r.BBStats != nil && r.BBStats.Capped && r.BBStats.UpperBound > r.RS {
			out.UpperBound = r.BBStats.UpperBound
		}
		if r.ILPUpperBound > r.RS {
			out.UpperBound = r.ILPUpperBound
		}
	}
	if withWitness && r.Witness != nil {
		out.Witness = make(map[string]int64, g.NumNodes())
		for u := 0; u < g.NumNodes(); u++ {
			if u == g.Bottom() {
				continue
			}
			out.Witness[g.Node(u).Name] = r.Witness.Times[u]
		}
	}
	if r.ILP != nil {
		out.ILP = &client.ILPModelInfo{
			Vars:            r.ILP.Vars,
			IntVars:         r.ILP.IntVars,
			Constrs:         r.ILP.Constrs,
			RedundantArcs:   r.ILP.RedundantArcs,
			NeverAlivePairs: r.ILP.NeverAlivePairs,
		}
	}
	if r.BBStats != nil {
		out.BB = &client.BBInfo{
			Leaves:     r.BBStats.Leaves,
			Pruned:     r.BBStats.Pruned,
			Capped:     r.BBStats.Capped,
			UpperBound: r.BBStats.UpperBound,
		}
	}
	if r.SolverStats != nil {
		if computed {
			s.recordSolve(r.SolverStats)
		}
		out.SolverStats = solverToWire(r.SolverStats)
	}
	return out
}

func (s *Server) reduceToWire(r *reduce.Result, wantDDG, computed bool) *client.ReduceOutcome {
	out := &client.ReduceOutcome{
		RS:       r.RS,
		Spill:    r.Spill,
		Exact:    r.Exact,
		CPBefore: r.CPBefore,
		CPAfter:  r.CPAfter,
	}
	for _, a := range r.Arcs {
		out.Arcs = append(out.Arcs, client.Arc{
			From:    r.Graph.Node(a.From).Name,
			To:      r.Graph.Node(a.To).Name,
			Latency: a.Latency,
		})
	}
	if wantDDG && !r.Spill {
		out.DDG = r.Graph.Format()
	}
	if r.SolverStats != nil && computed {
		s.recordSolve(r.SolverStats)
	}
	return out
}

func solverToWire(st *solver.Stats) *client.SolverStats {
	return &client.SolverStats{
		Nodes:               st.Nodes,
		SimplexIters:        st.SimplexIters,
		WarmStarts:          st.WarmStarts,
		ColdStarts:          st.ColdStarts,
		Fallbacks:           st.Fallbacks,
		Incumbents:          st.Incumbents,
		DurationNs:          int64(st.Duration),
		PresolveRows:        st.PresolveRows,
		PresolveCols:        st.PresolveCols,
		PresolveTightenings: st.PresolveTightenings,
		CutsAdded:           st.CutsAdded,
		CutsActive:          st.CutsActive,
		BranchProbes:        st.BranchProbes,
		ReliableVars:        st.ReliableVars,
		BlandIters:          st.BlandIters,
	}
}
