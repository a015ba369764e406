package reduce

import (
	"context"
	"slices"

	"regsat/internal/ddg"
	"regsat/internal/rs"
)

// Heuristic reduces RS_t(G) below available registers with the iterative
// value-serialization heuristic of [14]: while the (Greedy-k) saturation
// exceeds R, pick two currently-saturating values (u, v) and serialize
// u before v, choosing the pair whose arcs increase the critical path least
// (ties: larger saturation drop, then lexicographic for determinism).
func Heuristic(ctx context.Context, g *ddg.Graph, t ddg.RegType, available int) (*Result, error) {
	return HeuristicFiltered(ctx, g, t, available, nil)
}

// HeuristicFiltered is Heuristic with a serialization filter: candidate
// pairs (u, v) for which allow returns false are never serialized. Global
// CFG analysis uses this to protect entry values, whose birth is pinned to
// the block entry and must not be delayed by added arcs.
func HeuristicFiltered(ctx context.Context, g *ddg.Graph, t ddg.RegType, available int, allow func(u, v int) bool) (*Result, error) {
	sat, err := rs.Compute(ctx, g, t, greedyOptions)
	if err != nil {
		return nil, err
	}
	return heuristic(ctx, g, sat, t, available, allow)
}

// HeuristicFrom is Heuristic for a caller that already holds sat, the
// Greedy-k result of g (spill insertion picks its candidate from it).
func HeuristicFrom(ctx context.Context, g *ddg.Graph, sat *rs.Result, t ddg.RegType, available int) (*Result, error) {
	return heuristic(ctx, g, sat, t, available, nil)
}

// heuristicOf is Heuristic over an analysis of g the caller already holds.
func heuristicOf(ctx context.Context, an *rs.Analysis, available int) (*Result, error) {
	sat, err := rs.ComputeWithAnalysis(ctx, an, greedyOptions)
	if err != nil {
		return nil, err
	}
	return heuristic(ctx, an.G, sat, an.Type, available, nil)
}

var greedyOptions = rs.Options{Method: rs.MethodGreedy, SkipWitness: true}

// heuristic runs the serialization rounds from g and its Greedy-k result
// res. Each round's chosen candidate becomes the next round's graph, with
// the Greedy-k result computed while ranking it.
func heuristic(ctx context.Context, g *ddg.Graph, res *rs.Result, t ddg.RegType, available int, allow func(u, v int) bool) (*Result, error) {
	cur := g
	cpBefore := g.CriticalPath()
	var allArcs []ddg.SerialArc
	iterations := 0
	maxIter := len(g.Values(t))*len(g.Values(t)) + 8

	for {
		if res.RS <= available {
			return &Result{
				Graph:      cur,
				Arcs:       allArcs,
				RS:         res.RS,
				CPBefore:   cpBefore,
				CPAfter:    cur.CriticalPath(),
				Iterations: iterations,
			}, nil
		}
		if iterations >= maxIter {
			return &Result{Graph: cur, Arcs: allArcs, RS: res.RS,
				CPBefore: cpBefore, CPAfter: cur.CriticalPath(),
				Spill: true, Iterations: iterations}, nil
		}
		iterations++

		// Candidate serializations among the saturating values.
		type cand struct {
			u, v int
			arcs []ddg.SerialArc
			ext  *ddg.Graph
			cp   int64
			sat  *rs.Result
		}
		var best *cand
		// Values read by the same consumers yield the same arcs toward v;
		// such candidates share one extension and its Greedy-k result.
		var built []*cand
		for _, u := range res.Antichain {
			for _, v := range res.Antichain {
				if u == v {
					continue
				}
				if allow != nil && !allow(u, v) {
					continue
				}
				arcs := ValueSerializationArcs(cur, t, u, v)
				if len(arcs) == 0 {
					continue
				}
				c := &cand{u: u, v: v, arcs: arcs}
				if i := slices.IndexFunc(built, func(b *cand) bool { return slices.Equal(b.arcs, arcs) }); i >= 0 {
					c.ext, c.cp, c.sat = built[i].ext, built[i].cp, built[i].sat
				} else {
					ext, err := ApplyArcs(cur, arcs)
					if err != nil {
						continue // would create a circuit
					}
					extRS, err := rs.Compute(ctx, ext, t, greedyOptions)
					if err != nil {
						continue
					}
					c.ext, c.cp, c.sat = ext, ext.CriticalPath(), extRS
					built = append(built, c)
				}
				if best == nil ||
					c.cp < best.cp ||
					(c.cp == best.cp && c.sat.RS < best.sat.RS) ||
					(c.cp == best.cp && c.sat.RS == best.sat.RS && (c.u < best.u || (c.u == best.u && c.v < best.v))) {
					best = c
				}
			}
		}
		if best == nil {
			// No serialization is possible: spilling unavoidable.
			return &Result{Graph: cur, Arcs: allArcs, RS: res.RS,
				CPBefore: cpBefore, CPAfter: cur.CriticalPath(),
				Spill: true, Iterations: iterations}, nil
		}
		allArcs = append(allArcs, best.arcs...)
		cur, res = best.ext, best.sat
	}
}
