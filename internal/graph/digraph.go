// Package graph provides the directed-graph substrate used by the register
// saturation analyses: topological sorting, DAG longest paths, transitive
// closure and reduction, bipartite matching, and maximum antichains of
// partial orders (Dilworth's theorem via König's theorem).
//
// All algorithms operate on dense node identifiers 0..n-1 so callers can map
// their own node sets onto compact indices. Edge weights are int64 latencies;
// negative weights are allowed everywhere because VLIW/EPIC serialization
// arcs may carry non-positive latencies (see the paper, Section 4).
package graph

import (
	"fmt"
	"sort"
)

// Edge is a weighted directed edge between dense node indices.
type Edge struct {
	From, To int
	Weight   int64
}

// Digraph is a mutable directed multigraph over dense node indices 0..n-1.
// The zero value is an empty graph with no nodes; use New to create one with
// a fixed node count.
type Digraph struct {
	n     int
	edges []Edge
	// Flat CSR adjacency, lazily rebuilt: the indices of the edges leaving u
	// are outIdx[outOff[u]:outOff[u+1]], those entering v are
	// inIdx[inOff[v]:inOff[v+1]], each in edge-list order.
	outOff, outIdx []int
	inOff, inIdx   []int
	dirty          bool
}

// New returns an empty digraph with n nodes and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Digraph{n: n, dirty: true}
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := New(g.n)
	c.edges = append([]Edge(nil), g.edges...)
	c.dirty = true
	return c
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// M returns the number of edges.
func (g *Digraph) M() int { return len(g.edges) }

// AddNode appends a new node and returns its index.
func (g *Digraph) AddNode() int {
	g.n++
	g.dirty = true
	return g.n - 1
}

// AddEdge appends a directed edge from u to v with weight w and returns its
// edge index. Parallel edges are permitted; self-loops are rejected because
// every graph in this project must remain schedulable (a self-loop of any
// weight ≥ 1 is unsatisfiable, and non-positive self-loops are useless).
func (g *Digraph) AddEdge(u, v int, w int64) int {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	g.edges = append(g.edges, Edge{From: u, To: v, Weight: w})
	g.dirty = true
	return len(g.edges) - 1
}

// Edges returns the edge list. The returned slice is owned by the graph and
// must not be modified.
func (g *Digraph) Edges() []Edge { return g.edges }

// Edge returns the i-th edge.
func (g *Digraph) Edge(i int) Edge { return g.edges[i] }

// HasEdge reports whether at least one edge u→v exists.
func (g *Digraph) HasEdge(u, v int) bool {
	for _, ei := range g.out(u) {
		if g.edges[ei].To == v {
			return true
		}
	}
	return false
}

// Succ returns the successor node indices of u (with multiplicity for
// parallel edges). The slice is freshly allocated.
func (g *Digraph) Succ(u int) []int {
	idx := g.out(u)
	out := make([]int, 0, len(idx))
	for _, ei := range idx {
		out = append(out, g.edges[ei].To)
	}
	return out
}

// Pred returns the predecessor node indices of v (with multiplicity).
func (g *Digraph) Pred(v int) []int {
	idx := g.in(v)
	out := make([]int, 0, len(idx))
	for _, ei := range idx {
		out = append(out, g.edges[ei].From)
	}
	return out
}

// OutEdges returns the indices of edges leaving u. The slice is owned by the
// graph and must not be modified.
func (g *Digraph) OutEdges(u int) []int { return g.out(u) }

// InEdges returns the indices of edges entering v. The slice is owned by the
// graph and must not be modified.
func (g *Digraph) InEdges(v int) []int { return g.in(v) }

// OutDegree returns the number of edges leaving u.
func (g *Digraph) OutDegree(u int) int { return len(g.out(u)) }

// InDegree returns the number of edges entering v.
func (g *Digraph) InDegree(v int) int { return len(g.in(v)) }

// RemoveEdges deletes the edges whose indices are listed in idx and
// invalidates all previously returned edge indices.
func (g *Digraph) RemoveEdges(idx []int) {
	if len(idx) == 0 {
		return
	}
	drop := make(map[int]bool, len(idx))
	for _, i := range idx {
		if i < 0 || i >= len(g.edges) {
			panic(fmt.Sprintf("graph: edge index %d out of range", i))
		}
		drop[i] = true
	}
	kept := g.edges[:0]
	for i, e := range g.edges {
		if !drop[i] {
			kept = append(kept, e)
		}
	}
	g.edges = kept
	g.dirty = true
}

func (g *Digraph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// build rebuilds the CSR adjacency after a mutation. Fresh arrays every
// time: a slice returned by OutEdges or InEdges before the mutation keeps
// its old contents.
func (g *Digraph) build() {
	if g.dirty {
		g.rebuild()
	}
}

func (g *Digraph) rebuild() {
	g.outOff, g.outIdx = bucket(g.n, g.edges, true)
	g.inOff, g.inIdx = bucket(g.n, g.edges, false)
	g.dirty = false
}

// bucket counting-sorts the edge indices by source (bySource) or target,
// stably, so every bucket keeps edge-list order. Degrees are counted two
// slots ahead so that the fill, advancing off[u+1] as u's cursor, leaves
// off[u] at the start of u's bucket for every u.
func bucket(n int, edges []Edge, bySource bool) (off, idx []int) {
	key := func(e Edge) int {
		if bySource {
			return e.From
		}
		return e.To
	}
	off = make([]int, n+2)
	for _, e := range edges {
		off[key(e)+2]++
	}
	for u := 2; u < n+2; u++ {
		off[u] += off[u-1]
	}
	idx = make([]int, len(edges))
	for i, e := range edges {
		u := key(e)
		idx[off[u+1]] = i
		off[u+1]++
	}
	return off[:n+1], idx
}

// out returns the indices of the edges leaving u, capped so an append by a
// caller cannot write into the next node's bucket.
func (g *Digraph) out(u int) []int {
	g.build()
	return g.outIdx[g.outOff[u]:g.outOff[u+1]:g.outOff[u+1]]
}

// in returns the indices of the edges entering v, capped like out.
func (g *Digraph) in(v int) []int {
	g.build()
	return g.inIdx[g.inOff[v]:g.inOff[v+1]:g.inOff[v+1]]
}

// SortedEdges returns a copy of the edge list sorted by (From, To, Weight),
// useful for deterministic output in tests and tools.
func (g *Digraph) SortedEdges() []Edge {
	out := append([]Edge(nil), g.edges...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Weight < out[j].Weight
	})
	return out
}
