// Package reduce implements register saturation reduction (Section 4 of the
// paper): when RS_t(G) exceeds the available registers R_t, add serialization
// arcs to build an extended DDG Ḡ = G ∪ E̅ with RS_t(Ḡ) ≤ R_t while
// increasing the critical path as little as possible. The ReduceRS decision
// problem is NP-hard (Theorem 4.2); this package provides:
//
//   - the value-serialization heuristic of [14],
//   - an exact combinatorial solver (branch-and-bound over schedules with
//     bounded register need — the SRC problem the NP-hardness proof reduces
//     from),
//   - the paper's exact intLP (Section 4: graph coloring with R_t colors,
//     minimizing σ_⊥),
//
// all sharing the constructive arc insertion of the Theorem 4.2 proof.
package reduce

import (
	"fmt"
	"sort"

	"regsat/internal/ddg"
	"regsat/internal/graph"
	"regsat/internal/ir"
	"regsat/internal/schedule"
)

// serializationLatency returns the latency of an added arc (u′, v) per the
// proof of Theorem 4.2: 1 for sequential-semantics superscalar code,
// δr(u′) − δw(v) for VLIW/EPIC codes with visible offsets.
func serializationLatency(g *ddg.Graph, t ddg.RegType, uPrime, v int) int64 {
	if !g.Machine.HasOffsets() {
		return 1
	}
	return g.Node(uPrime).DelayR - g.Node(v).DelayW(t)
}

// ValueSerializationArcs returns the arcs that force value u's lifetime to
// end before value v's starts in every schedule ("value serialization" u≺v):
// arcs from every consumer of u (except v itself, when v consumes u) to v.
func ValueSerializationArcs(g *ddg.Graph, t ddg.RegType, u, v int) []ddg.SerialArc {
	var arcs []ddg.SerialArc
	for _, uPrime := range g.Cons(u, t) {
		if uPrime == v {
			continue
		}
		arcs = append(arcs, ddg.SerialArc{
			From:    uPrime,
			To:      v,
			Latency: serializationLatency(g, t, uPrime, v),
		})
	}
	return arcs
}

// StrictSlack returns the separation the arc construction needs between a
// death and a birth for the pair to be serializable on this machine: on
// zero-offset machines the arcs carry latency 1 (the paper's sequential
// superscalar semantics), so only *strictly* ordered pairs (death < birth)
// can be serialized consistently with the driving schedule; on VLIW/EPIC the
// δr−δw latencies encode the order exactly and no slack is needed.
func StrictSlack(g *ddg.Graph) int64 {
	if g.Machine.HasOffsets() {
		return 0
	}
	return 1
}

// Serializable reports whether the lifetime order LT_σ(u) ≺ LT_σ(v) holding
// under σ can be *pinned* by the value-serialization arcs consistently with
// σ itself. The arcs run from every reader of u except v to v, so:
//
//   - when v consumes u, v stays the last reader (the lifetimes touch:
//     death(u) = birth(v)); the other readers must read (strictly, on
//     zero-offset machines whose arcs carry latency 1) before v's birth,
//     and on offset machines v's own read must not outlive v's write
//     (δr(v) ≤ δw(v));
//   - when v is independent of u, u's death must precede v's birth with the
//     machine's strictness slack.
func Serializable(g *ddg.Graph, t ddg.RegType, s *schedule.Schedule, u, v int) bool {
	slack := StrictSlack(g)
	cons := g.Cons(u, t)
	vConsumes := false
	maxOtherRead := int64(-1) << 62
	for _, c := range cons {
		if c == v {
			vConsumes = true
			continue
		}
		if r := s.Times[c] + g.Node(c).DelayR; r > maxOtherRead {
			maxOtherRead = r
		}
	}
	birthV := s.Times[v] + g.Node(v).DelayW(t)
	if vConsumes {
		if g.Machine.HasOffsets() && g.Node(v).DelayR > g.Node(v).DelayW(t) {
			return false // v's own read would outlive v's write
		}
		return maxOtherRead == int64(-1)<<62 || maxOtherRead+slack <= birthV
	}
	return s.Lifetime(u, t).End+slack <= birthV
}

// SerializationArcs performs the constructive step of the Theorem 4.2 proof:
// given a schedule σ of G (the snapshot's graph), emit serialization arcs
// that force, for every serializable value pair ordered under σ, the same
// lifetime order in every schedule of the extended graph. Arcs already
// implied by longest paths are skipped (they would be redundant scheduling
// constraints). The driving schedule σ always remains valid in the
// extension. The snapshot supplies the values and longest paths, so a
// search calling this at every leaf builds it once.
func SerializationArcs(snap *ir.Snapshot, t ddg.RegType, s *schedule.Schedule) []ddg.SerialArc {
	g := snap.G
	var values []int
	if tbl := snap.Table(t); tbl != nil {
		values = tbl.Values
	}
	intervals := make(map[int]schedule.Interval, len(values))
	for _, u := range values {
		intervals[u] = s.Lifetime(u, t)
	}
	ap := snap.AP
	var arcs []ddg.SerialArc
	seen := map[[2]int]bool{}
	for _, u := range values {
		for _, v := range values {
			if u == v {
				continue
			}
			// LT_σ(u) ≺ LT_σ(v), pinnable consistently with σ.
			if intervals[u].End > intervals[v].Start || !Serializable(g, t, s, u, v) {
				continue
			}
			for _, a := range ValueSerializationArcs(g, t, u, v) {
				key := [2]int{a.From, a.To}
				if a.From == a.To || seen[key] {
					continue
				}
				// Skip arcs implied by existing longest paths.
				if lp := ap.Path(a.From, a.To); lp != graph.NoPath && lp >= a.Latency {
					continue
				}
				seen[key] = true
				arcs = append(arcs, a)
			}
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	return arcs
}

// ApplyArcs extends g with the arcs and validates the result is still a DAG
// (the paper's topological-sort requirement: non-positive circuits, possible
// on VLIW/EPIC, must be rejected).
func ApplyArcs(g *ddg.Graph, arcs []ddg.SerialArc) (*ddg.Graph, error) {
	ext := g.Extend(arcs)
	if !ext.ToDigraph().IsDAG() {
		return nil, fmt.Errorf("reduce: extension of %s creates a circuit (VLIW offsets)", g.Name)
	}
	return ext, nil
}
