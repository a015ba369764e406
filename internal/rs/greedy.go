package rs

import (
	"fmt"
	"sort"

	"regsat/internal/graph"
)

// GreedyScoring selects the candidate-evaluation metric of Greedy-k.
type GreedyScoring int

const (
	// ScoreAntichain evaluates each killer candidate by the maximum
	// antichain of the partially-decided order (the default; strongest).
	ScoreAntichain GreedyScoring = iota
	// ScoreLocalPairs evaluates only the local count of order pairs the
	// candidate induces (cheaper, weaker — kept for the ablation study).
	ScoreLocalPairs
)

// Greedy computes the Greedy-k heuristic of [14]: choose, value by value, a
// potential killer that keeps the extended graph acyclic and locally
// minimizes the number of lifetime-order pairs it induces — fewer order
// pairs leave wider antichains, hence a larger (closer to optimal)
// saturation estimate. The result is always a *valid* saturation, i.e. a
// lower bound RS* ≤ RS witnessed by an actual killing function.
func Greedy(an *Analysis) (*RSResult, error) {
	return GreedyWithScoring(an, ScoreAntichain)
}

// GreedyWithScoring is Greedy with an explicit candidate-scoring metric.
// Candidates are evaluated on the Incremental engine: each probe is a
// Push/Pop pair with delta longest-path updates instead of a from-scratch
// extended-graph rebuild. The evaluator comes from the pool and goes back
// to it on return; the result holds only copies.
func GreedyWithScoring(an *Analysis, scoring GreedyScoring) (*RSResult, error) {
	nv := len(an.Values)

	// Decide values in increasing order of choice count, then node ID, so
	// constrained values commit first and the deterministic tie-breaks keep
	// results reproducible.
	order := make([]int, nv)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if len(an.PKill[ia]) != len(an.PKill[ib]) {
			return len(an.PKill[ia]) < len(an.PKill[ib])
		}
		return an.Values[ia] < an.Values[ib]
	})

	// Values with a single potential killer are fixed up front (they push no
	// enforcement arcs, but their induced order pairs participate in the
	// scoring of every later decision).
	ik := NewIncremental(an)
	defer ik.release()
	for i := 0; i < nv; i++ {
		if len(an.PKill[i]) == 1 {
			ik.Push(i, an.PKill[i][0])
		}
	}
	for _, i := range order {
		cands := an.PKill[i]
		if len(cands) == 1 {
			continue
		}
		// Score each candidate by the maximum antichain of the partial
		// order induced by the killers decided so far plus this candidate
		// (the quantity Greedy-k tries to keep large); break ties with the
		// cheaper local pair count, then by node ID for determinism.
		bestCand, bestMA, bestScore := -1, -1, 1<<30
		for _, cand := range cands {
			if !ik.Push(i, cand) {
				continue // closes a cycle with earlier commitments
			}
			ma := 0
			if scoring == ScoreAntichain {
				ma = ik.Bound()
			}
			score := an.orderScore(cand, i)
			if ma > bestMA || (ma == bestMA && score < bestScore) {
				bestCand, bestMA, bestScore = cand, ma, score
			}
			ik.Pop()
		}
		if bestCand < 0 {
			// Every candidate closes a cycle with earlier commitments; fall
			// back to searching any valid completion from scratch.
			return greedyFallback(an, order)
		}
		ik.Push(i, bestCand)
	}

	k, err := NewKilling(an, ik.Killers())
	if err != nil {
		return nil, err
	}
	// All values are decided, so the evaluator's order is the full DV_k:
	// its maintained matching gives the saturation and a witness antichain,
	// no rebuild needed.
	out := &RSResult{RS: ik.Bound(), Killing: k}
	for _, idx := range ik.AntichainMembers() {
		out.Antichain = append(out.Antichain, an.Values[idx])
	}
	return out, nil
}

// addEnforcement adds the arcs (v′, killer) for value i and returns the new
// edge indices so the caller can roll back. (Used by the from-scratch
// reference and fallback paths only; the hot paths go through Incremental.)
func addEnforcement(dg *graph.Digraph, an *Analysis, i, killer int) []int {
	var added []int
	for _, other := range an.PKill[i] {
		if other == killer {
			continue
		}
		lat := an.G.Node(other).DelayR - an.G.Node(killer).DelayR
		added = append(added, dg.AddEdge(other, killer, lat))
	}
	return added
}

// orderScore estimates how many lifetime-order pairs value i acquires when
// killed by cand: the count of values v with lp(cand, v) ≥ δr(cand) − δw(v)
// in the *base* graph. A cheap, deterministic greedy metric.
func (an *Analysis) orderScore(cand, i int) int {
	score := 0
	candRead := an.G.Node(cand).DelayR
	for j, vj := range an.Values {
		if j == i {
			continue
		}
		lp := an.AP.Path(cand, vj)
		if lp == graph.NoPath {
			continue
		}
		if lp >= candRead-an.DelayW(j) {
			score++
		}
	}
	return score
}

// greedyFallback finds any valid killer assignment by depth-first search
// (only reachable on VLIW/EPIC graphs whose offsets allow enforcement
// cycles).
func greedyFallback(an *Analysis, order []int) (*RSResult, error) {
	killer := make([]int, len(an.Values))
	for i := range killer {
		killer[i] = -1
	}
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == len(order) {
			return true
		}
		i := order[pos]
		for _, cand := range an.PKill[i] {
			killer[i] = cand
			if partialValid(an, killer) && rec(pos+1) {
				return true
			}
		}
		killer[i] = -1
		return false
	}
	if !rec(0) {
		return nil, fmt.Errorf("rs: no valid killing function exists for %s/%s", an.G.Name, an.Type)
	}
	k, err := NewKilling(an, killer)
	if err != nil {
		return nil, err
	}
	return k.Saturation()
}

// partialValid checks acyclicity of the extension restricted to the decided
// killers (-1 = undecided).
func partialValid(an *Analysis, killer []int) bool {
	dg := an.IR.Digraph()
	for i, k := range killer {
		if k < 0 {
			continue
		}
		addEnforcement(dg, an, i, k)
	}
	return dg.IsDAG()
}
