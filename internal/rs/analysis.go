// Package rs implements the paper's primary contribution: computing the
// register saturation RS_t(G) of a data dependence DAG — the exact maximum
// of the register requirement over all valid schedules — by three methods:
//
//   - the Greedy-k heuristic of [14] (killing functions + maximum antichains),
//   - an exact combinatorial branch-and-bound over valid killing functions,
//   - the paper's exact intLP formulation (Section 3), solved with the
//     in-repo MILP solver.
//
// The theory (from [14] and the thesis [15]): a value u^t dies when its last
// consumer reads it. The *potential killers* pkill(u^t) are the consumers
// not provably read-dominated by another consumer. Choosing one killer per
// value (a killing function k) and enforcing it with serialization arcs
// yields the extended DAG G→k, in which value lifetimes are pinned; the
// relation "u's lifetime is always before v's" is then decidable by longest
// paths and forms a partial order DV_k whose maximum antichain is the
// register need achievable under k. RS is the maximum over valid killing
// functions (valid = the enforcement arcs keep G→k acyclic).
//
// All methods work from one immutable ir.Snapshot (CSR adjacency, topological
// order, transitive closure, the all-pairs longest-path matrix, and per-type
// value/consumer/pkill tables). Callers that analyze one graph several times
// — every register type, the reduction searches, the batch memo — build the
// snapshot once and share it through NewAnalysisIR.
package rs

import (
	"fmt"

	"regsat/internal/ddg"
	"regsat/internal/graph"
	"regsat/internal/ir"
)

// Analysis is the per-register-type view over the shared ir.Snapshot that
// the RS algorithms consume: the value set, consumer sets, longest paths,
// and potential killers.
type Analysis struct {
	G    *ddg.Graph
	Type ddg.RegType

	// IR is the immutable snapshot every artifact below aliases.
	IR *ir.Snapshot

	// Values lists V_{R,t} (defining node IDs, increasing).
	Values []int
	// Index maps a defining node ID to its dense value index.
	Index map[int]int
	// Cons[i] is Cons(Values[i]^t).
	Cons [][]int
	// PKill[i] ⊆ Cons[i] is the set of potential killers of value i.
	PKill [][]int
	// AP is the all-pairs longest-path matrix of the original graph.
	AP *graph.AllPairsLongest
}

// NewAnalysis builds the snapshot of g and the per-type analysis over it.
// The graph must be finalized so every value has at least one consumer
// (possibly ⊥).
func NewAnalysis(g *ddg.Graph, t ddg.RegType) (*Analysis, error) {
	snap, err := ir.Build(g)
	if err != nil {
		return nil, fmt.Errorf("rs: %w", err)
	}
	return NewAnalysisIR(snap, t)
}

// NewAnalysisIR is NewAnalysis with a prebuilt snapshot (to share it across
// register types and methods, as the batch engine and experiments do). A
// type the graph never writes yields an analysis with no values.
func NewAnalysisIR(snap *ir.Snapshot, t ddg.RegType) (*Analysis, error) {
	an := &Analysis{
		G:     snap.G,
		Type:  t,
		IR:    snap,
		Index: map[int]int{},
		AP:    snap.AP,
	}
	tbl := snap.Table(t)
	if tbl == nil {
		return an, nil
	}
	an.Values = tbl.Values
	an.Cons = tbl.Cons
	an.PKill = tbl.PKill
	for i, u := range tbl.Values {
		an.Index[u] = i
	}
	return an, nil
}

// NumKillingFunctions returns the number of killer combinations
// Π_i |pkill(i)| (not all of which are valid).
func (an *Analysis) NumKillingFunctions() int64 {
	total := int64(1)
	for _, pk := range an.PKill {
		total *= int64(len(pk))
		if total > 1<<40 {
			return 1 << 40 // saturate; only used for reporting
		}
	}
	return total
}

// DelayW returns δw of value i (the write offset of its defining node for
// this register type).
func (an *Analysis) DelayW(i int) int64 {
	return an.G.Node(an.Values[i]).DelayW(an.Type)
}

// TrivialRS reports the case the paper dispatches on before any analysis:
// if |V_{R,t}| ≤ R_t no schedule can need more than R_t registers.
func (an *Analysis) TrivialRS(available int) bool {
	return len(an.Values) <= available
}
