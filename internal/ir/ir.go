// Package ir is the immutable analysis substrate every register saturation
// layer builds on: a finalized Snapshot of one data dependence DAG, computed
// once and shared by every consumer — the rs analyses (Greedy-k, the exact
// branch-and-bound, the intLP models), RS reduction, scheduling, spilling,
// interference construction, and the batch engine's memo.
//
// A Snapshot packages the artifacts those layers used to recompute
// independently from ddg.Graph.ToDigraph():
//
//   - CSR adjacency in both directions (Fwd, Rev),
//   - a deterministic topological order (Topo, TopoPos),
//   - transitive-closure reachability rows (Reach, one bitset per node),
//   - the all-pairs longest-path matrix (AP),
//   - per-register-type value/consumer/potential-killer tables (Table).
//
// Snapshots are immutable after Build and safe for concurrent use. There is
// no process-wide cache: whoever builds a snapshot owns it and hands it to
// every analysis of the same graph — the batch memo keeps one per structural
// fingerprint (see Fingerprint), rs.ComputeAll one for all register types,
// and the reduction searches one for all their phases.
package ir

import (
	"fmt"
	"sort"

	"regsat/internal/ddg"
	"regsat/internal/graph"
)

// CSR is a compressed-sparse-row adjacency: the neighbours of node u are
// Dst[Off[u]:Off[u+1]] with edge weights Wt[Off[u]:Off[u+1]].
type CSR struct {
	Off []int32
	Dst []int32
	Wt  []int64
}

// Degree returns the number of edges stored for node u.
func (c *CSR) Degree(u int) int { return int(c.Off[u+1] - c.Off[u]) }

// Row returns the neighbour and weight slices of node u. The slices alias
// the CSR storage and must not be modified.
func (c *CSR) Row(u int) ([]int32, []int64) {
	lo, hi := c.Off[u], c.Off[u+1]
	return c.Dst[lo:hi], c.Wt[lo:hi]
}

// TypeTable is the per-register-type analysis table of a snapshot: the value
// set V_{R,t}, the consumer sets, and the potential-killer sets pkill(u^t)
// (consumers not read-dominated by another consumer; the killing date max is
// always attained by one of them).
type TypeTable struct {
	Type ddg.RegType
	// Values lists V_{R,t} (defining node IDs, increasing).
	Values []int
	// Index maps a node ID to its dense value index, -1 for non-values.
	Index []int
	// Cons[i] is Cons(Values[i]^t), increasing, without duplicates.
	Cons [][]int
	// PKill[i] ⊆ Cons[i] is the set of potential killers of value i.
	PKill [][]int
	// DelayW[i] is δw of value i (the write offset of its defining node).
	DelayW []int64
	// MultiKill counts values with more than one potential killer — the
	// branching factor driver of the exact killing-function search.
	MultiKill int
}

// Snapshot is the immutable, finalized analysis form of one DDG. All fields
// are read-only after Build; concurrent readers need no synchronization.
type Snapshot struct {
	// G is the source graph. Every other field depends only on its
	// structure, never on names, so a structural twin (same Fingerprint)
	// may read them too; names and witness schedules must come from the
	// twin itself.
	G *ddg.Graph
	// N is the node count (including ⊥).
	N int
	// Fwd and Rev are the adjacency in edge direction and reversed.
	Fwd, Rev CSR
	// Topo is a deterministic topological order; TopoPos[u] is u's position.
	Topo, TopoPos []int
	// Reach holds the reflexive-transitive closure: Reach[u].Get(v) iff there
	// is a directed path u ⇝ v or u == v.
	Reach []graph.BitSet
	// AP is the all-pairs longest-path matrix of the graph.
	AP *graph.AllPairsLongest
	// CP is the critical path length (maximum over all path weights).
	CP int64
	// Types lists the register types written in the graph, sorted.
	Types []ddg.RegType

	tables map[ddg.RegType]*TypeTable
}

// Build constructs the snapshot of a finalized DDG. It errors if the graph is
// not finalized, contains a cycle, or has a value with no consumer (which
// Finalize rules out).
func Build(g *ddg.Graph) (*Snapshot, error) {
	if !g.Finalized() {
		return nil, fmt.Errorf("ir: graph %s is not finalized", g.Name)
	}
	dg := g.ToDigraph()
	topo, err := dg.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("ir: graph %s: %w", g.Name, err)
	}
	n := g.NumNodes()
	s := &Snapshot{
		G:       g,
		N:       n,
		Topo:    topo,
		TopoPos: make([]int, n),
		AP:      dg.LongestAllPairsFromOrder(topo),
		Types:   g.Types(),
		tables:  map[ddg.RegType]*TypeTable{},
	}
	for pos, u := range topo {
		s.TopoPos[u] = pos
	}
	s.Fwd, s.Rev = buildCSR(g)
	s.Reach = dg.TransitiveClosureFromOrder(topo).Reach
	for u := 0; u < n; u++ {
		row := s.AP.D[u]
		for v := 0; v < n; v++ {
			if d := row[v]; d != graph.NoPath && d > s.CP {
				s.CP = d
			}
		}
	}
	for _, t := range s.Types {
		tbl, err := buildTable(g, t, s.AP)
		if err != nil {
			return nil, err
		}
		s.tables[t] = tbl
	}
	return s, nil
}

func buildCSR(g *ddg.Graph) (fwd, rev CSR) {
	n := g.NumNodes()
	edges := g.Edges()
	m := len(edges)
	fwd = CSR{Off: make([]int32, n+1), Dst: make([]int32, m), Wt: make([]int64, m)}
	rev = CSR{Off: make([]int32, n+1), Dst: make([]int32, m), Wt: make([]int64, m)}
	for _, e := range edges {
		fwd.Off[e.From+1]++
		rev.Off[e.To+1]++
	}
	for u := 0; u < n; u++ {
		fwd.Off[u+1] += fwd.Off[u]
		rev.Off[u+1] += rev.Off[u]
	}
	next := make([]int32, n)
	for _, e := range edges {
		i := fwd.Off[e.From] + next[e.From]
		next[e.From]++
		fwd.Dst[i], fwd.Wt[i] = int32(e.To), e.Latency
	}
	for i := range next {
		next[i] = 0
	}
	for _, e := range edges {
		i := rev.Off[e.To] + next[e.To]
		next[e.To]++
		rev.Dst[i], rev.Wt[i] = int32(e.From), e.Latency
	}
	return fwd, rev
}

func buildTable(g *ddg.Graph, t ddg.RegType, ap *graph.AllPairsLongest) (*TypeTable, error) {
	tbl := &TypeTable{Type: t, Index: make([]int, g.NumNodes())}
	for i := range tbl.Index {
		tbl.Index[i] = -1
	}
	// One edge pass collects every value's consumer set.
	consOf := map[int]map[int]bool{}
	for _, n := range g.Nodes() {
		if n.WritesType(t) {
			consOf[n.ID] = map[int]bool{}
		}
	}
	for _, e := range g.Edges() {
		if e.Kind == ddg.Flow && e.Type == t {
			consOf[e.From][e.To] = true
		}
	}
	values := make([]int, 0, len(consOf))
	for u := range consOf {
		values = append(values, u)
	}
	sort.Ints(values)
	for i, u := range values {
		set := consOf[u]
		if len(set) == 0 {
			return nil, fmt.Errorf("ir: value %s^%s has no consumer (graph %s not finalized?)",
				g.Node(u).Name, t, g.Name)
		}
		cons := make([]int, 0, len(set))
		for v := range set {
			cons = append(cons, v)
		}
		sort.Ints(cons)
		tbl.Values = append(tbl.Values, u)
		tbl.Index[u] = i
		tbl.Cons = append(tbl.Cons, cons)
		pk := potentialKillers(g, ap, cons)
		tbl.PKill = append(tbl.PKill, pk)
		tbl.DelayW = append(tbl.DelayW, g.Node(u).DelayW(t))
		if len(pk) > 1 {
			tbl.MultiKill++
		}
	}
	return tbl, nil
}

// potentialKillers returns the consumers not read-dominated by another
// consumer. Consumer v is read-dominated by w when σ_w + δr(w) ≥ σ_v + δr(v)
// in every schedule, which holds iff lp(v, w) ≥ δr(v) − δr(w). (On
// superscalar targets, where δr = 0, this degenerates to plain reachability —
// Touati's ↓w ∩ Cons(u) = {w} rule.)
func potentialKillers(g *ddg.Graph, ap *graph.AllPairsLongest, cons []int) []int {
	var out []int
	for _, v := range cons {
		dominated := false
		for _, w := range cons {
			if w == v {
				continue
			}
			if lp := ap.Path(v, w); lp != graph.NoPath && lp >= g.Node(v).DelayR-g.Node(w).DelayR {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, v)
		}
	}
	// The max read is always attained somewhere, so the set can never be
	// empty (mutual domination would require a cycle).
	if len(out) == 0 {
		panic("ir: empty potential killer set")
	}
	return out
}

// Table returns the per-type table, or nil when the graph writes no value of
// that type.
func (s *Snapshot) Table(t ddg.RegType) *TypeTable { return s.tables[t] }

// Reaches reports whether there is a directed path u ⇝ v with at least one
// edge.
func (s *Snapshot) Reaches(u, v int) bool {
	return u != v && s.Reach[u].Get(v)
}

// LongestPath returns the longest path weight u ⇝ v, or graph.NoPath.
func (s *Snapshot) LongestPath(u, v int) int64 { return s.AP.D[u][v] }

// Digraph materializes a fresh mutable digraph with the snapshot's nodes and
// edges (same node IDs and edge indices as G.Edges()), for consumers that
// need to extend or reduce the graph.
func (s *Snapshot) Digraph() *graph.Digraph {
	dg := graph.New(s.N)
	for _, e := range s.G.Edges() {
		dg.AddEdge(e.From, e.To, e.Latency)
	}
	return dg
}

// RedundantEdges returns the indices (into G.Edges()) of scheduling
// constraints implied by other longest paths — the paper's first Section 3
// model optimization. It is the sequential transitive reduction of
// graph.Digraph.TransitiveReduction, run over the snapshot's own CSR and
// topological order: candidates are visited in G.Edges() order, and each one
// implied by the edges still kept is dropped for good.
func (s *Snapshot) RedundantEdges() []int {
	edges := s.G.Edges()
	// slot[i] is edge i's position in Fwd (buildCSR keeps each node's edges
	// in G.Edges() order); dropped is indexed by that position.
	slot := make([]int32, len(edges))
	next := make([]int32, s.N)
	for i, e := range edges {
		slot[i] = s.Fwd.Off[e.From] + next[e.From]
		next[e.From]++
	}
	dropped := make([]bool, len(edges))
	dist := make([]int64, s.N)
	var redundant []int
	for i, e := range edges {
		dropped[slot[i]] = true // tentatively exclude the candidate itself
		for v := range dist {
			dist[v] = graph.NoPath
		}
		dist[e.From] = 0
		// Only nodes between the two endpoints in topological order can lie
		// on a path e.From ⇝ e.To.
		for _, u := range s.Topo[s.TopoPos[e.From]:s.TopoPos[e.To]] {
			if dist[u] == graph.NoPath {
				continue
			}
			lo := s.Fwd.Off[u]
			dst, wt := s.Fwd.Row(u)
			for j, v := range dst {
				if !dropped[lo+int32(j)] {
					dist[v] = max(dist[v], dist[u]+wt[j])
				}
			}
		}
		if d := dist[e.To]; d != graph.NoPath && d >= e.Latency {
			redundant = append(redundant, i)
		} else {
			dropped[slot[i]] = false
		}
	}
	return redundant
}
