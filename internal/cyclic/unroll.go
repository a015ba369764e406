package cyclic

import (
	"fmt"

	"regsat/internal/ddg"
)

// OutName is the name of the escape sink a window appends: values whose
// consumer falls outside the window flow into it, so they stay alive to the
// window's end instead of being killed early by an accidental in-window
// reader. This is what makes RS(k) monotone and subadditive in k (see
// docs/CYCLIC.md): a window never under-counts the pressure a longer window
// would see.
const OutName = "_out"

// Unroll instantiates k iterations of the loop into an ordinary acyclic DDG.
// Node u of iteration i becomes "u@i"; an edge u →(λ,ω) v becomes
// u@i → v@(i+ω) for every i with i+ω < k. For each value instance with at
// least one flow consumer beyond the window (i+ω ≥ k), one flow edge to the
// escape sink keeps it alive to the window end; cross-window serial edges are
// simply dropped (they constrain ordering, not liveness). The result is
// finalized.
func (l *Loop) Unroll(k int) (*ddg.Graph, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("cyclic: unroll factor %d < 1", k)
	}
	if int64(k)*int64(len(l.nodes))+2 > MaxUnrollNodes {
		return nil, fmt.Errorf("cyclic: unrolling %d iterations of a %d-node body exceeds %d nodes",
			k, len(l.nodes), MaxUnrollNodes)
	}
	g := ddg.New(fmt.Sprintf("%s#u%d", l.Name, k), l.Machine)
	ids := make([]int, k*len(l.nodes))
	inst := func(u, i int) int { return ids[i*len(l.nodes)+u] }
	for i := 0; i < k; i++ {
		for u := range l.nodes {
			n := &l.nodes[u]
			id := g.AddNode(fmt.Sprintf("%s@%d", n.Name, i), n.Op, n.Latency)
			if n.DelayR != 0 {
				g.SetReadDelay(id, n.DelayR)
			}
			for _, w := range n.Writes {
				g.SetWrites(id, w.Type, w.DelayW)
			}
			ids[i*len(l.nodes)+u] = id
		}
	}
	// escape[(u,i)] maps a value instance with out-of-window consumers to the
	// per-type maximum latency of its escaping flow edges.
	type valueInst struct {
		u, i int
	}
	escape := map[valueInst]map[ddg.RegType]int64{}
	for _, e := range l.edges {
		for i := 0; i < k; i++ {
			j := int64(i) + e.Dist
			if j < int64(k) {
				if e.Kind == ddg.Flow {
					g.AddFlowEdgeLatency(inst(e.From, i), inst(e.To, int(j)), e.Type, e.Latency)
				} else {
					g.AddSerialEdge(inst(e.From, i), inst(e.To, int(j)), e.Latency)
				}
				continue
			}
			if e.Kind != ddg.Flow {
				continue
			}
			vi := valueInst{e.From, i}
			m := escape[vi]
			if m == nil {
				m = map[ddg.RegType]int64{}
				escape[vi] = m
			}
			if e.Latency > m[e.Type] {
				m[e.Type] = e.Latency
			}
		}
	}
	if len(escape) > 0 {
		out := g.AddNode(OutName, "out", 0)
		// Deterministic emission order: by iteration, then node, then type.
		for i := 0; i < k; i++ {
			for u := range l.nodes {
				m, ok := escape[valueInst{u, i}]
				if !ok {
					continue
				}
				for _, t := range l.Types() {
					lat, ok := m[t]
					if !ok {
						continue
					}
					if lat < 1 {
						lat = 1
					}
					g.AddFlowEdgeLatency(inst(u, i), out, t, lat)
				}
			}
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, fmt.Errorf("cyclic: unroll(%d): %w", k, err)
	}
	return g, nil
}
