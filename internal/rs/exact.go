package rs

import (
	"fmt"
	"sort"
)

// ExactStats reports the work done by the combinatorial exact search.
type ExactStats struct {
	// Leaves is the number of complete killing functions evaluated.
	Leaves int64
	// Pruned is the number of subtrees cut by the antichain upper bound.
	Pruned int64
	// Capped is true when the leaf budget was exhausted with the search still
	// incomplete; the result is then only a lower bound.
	Capped bool
	// UpperBound is the proven upper bound on the saturation: when Capped the
	// true RS lies in the interval [result.RS, UpperBound] — the combinatorial
	// analogue of solver.Solution.Bound/Gap reporting. Equal to the result
	// when the search completed.
	UpperBound int
}

// ExactBB computes the exact register saturation by branch-and-bound over
// valid killing functions (the saturation problem is NP-complete [14], but
// loop-body DAGs have few multi-killer values). maxLeaves caps the search
// (0 = default 1e6); the cap is checked *before* evaluating a leaf, so
// exactly maxLeaves leaves are evaluated and a search whose tree holds no
// more is reported complete. If the cap cuts the search short, the best
// found is returned with Stats.Capped set and Stats.UpperBound bounding the
// unexplored remainder.
//
// The search runs on the Incremental evaluator: enforcement arcs are pushed
// and popped along the dive with delta longest-path updates, the DV_k order
// is maintained as bitset rows, and the antichain bound comes from an
// incrementally augmented matching — no per-node digraph, all-pairs, or
// matching rebuild. The evaluator comes from the pool and goes back to it
// on return; the result holds only copies.
func ExactBB(an *Analysis, maxLeaves int64) (*RSResult, *ExactStats, error) {
	if maxLeaves <= 0 {
		maxLeaves = 1_000_000
	}
	nv := len(an.Values)
	stats := &ExactStats{UpperBound: nv}

	ik := NewIncremental(an)
	defer ik.release()
	// Branch only on multi-choice values, most-constrained (fewest killers)
	// first; single-choice killers are fixed up front (they push no arcs, so
	// they can never fail, but their order pairs participate in every bound).
	var branch []int
	for i := 0; i < nv; i++ {
		if len(an.PKill[i]) == 1 {
			ik.Push(i, an.PKill[i][0])
		} else {
			branch = append(branch, i)
		}
	}
	sort.Slice(branch, func(a, b int) bool {
		ia, ib := branch[a], branch[b]
		if len(an.PKill[ia]) != len(an.PKill[ib]) {
			return len(an.PKill[ia]) < len(an.PKill[ib])
		}
		return an.Values[ia] < an.Values[ib]
	})
	if nv > 0 {
		// Root bound: the antichain of the forced-killers-only order. Deeper
		// decisions only add order pairs, which only shrink the antichain, so
		// this bounds every leaf of the tree.
		stats.UpperBound = ik.Bound()
	}

	bestRS := -1
	var bestKiller, bestMembers []int
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(branch) {
			if stats.Leaves >= maxLeaves {
				stats.Capped = true
				return
			}
			stats.Leaves++
			if size := ik.Bound(); size > bestRS {
				bestRS = size
				bestKiller = ik.Killers()
				bestMembers = ik.AntichainMembers()
			}
			return
		}
		// Upper bound: the order induced by the already-decided killers only.
		if bestRS >= 0 {
			if ub := ik.Bound(); ub <= bestRS {
				stats.Pruned++
				return
			}
		}
		i := branch[pos]
		for _, cand := range an.PKill[i] {
			if !ik.Push(i, cand) {
				continue // cycle: this partial extension is invalid
			}
			rec(pos + 1)
			ik.Pop()
			if stats.Capped {
				return
			}
		}
	}
	rec(0)

	if bestRS < 0 {
		return nil, stats, fmt.Errorf("rs: no valid killing function for %s/%s", an.G.Name, an.Type)
	}
	if !stats.Capped {
		stats.UpperBound = bestRS
	}
	k, err := NewKilling(an, bestKiller)
	if err != nil {
		return nil, stats, err
	}
	out := &RSResult{RS: bestRS, Killing: k}
	for _, idx := range bestMembers {
		out.Antichain = append(out.Antichain, an.Values[idx])
	}
	return out, stats, nil
}

// EnumerateValidKillings calls visit for every valid killing function; visit
// returns false to stop. Exponential — used by tests as an oracle.
func EnumerateValidKillings(an *Analysis, visit func(k *Killing) bool) error {
	nv := len(an.Values)
	killer := make([]int, nv)
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == nv {
			k, err := NewKilling(an, killer)
			if err != nil {
				return false, err
			}
			if !k.Valid() {
				return true, nil
			}
			return visit(k), nil
		}
		for _, cand := range an.PKill[i] {
			killer[i] = cand
			cont, err := rec(i + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0)
	return err
}
