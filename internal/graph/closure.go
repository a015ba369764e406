package graph

import "math/bits"

// BitSet is a fixed-capacity bit set used for dense reachability rows.
type BitSet []uint64

// NewBitSet returns a bit set able to hold n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set sets bit i.
func (b BitSet) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (b BitSet) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Get reports bit i.
func (b BitSet) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// OrWith ors other into b.
func (b BitSet) OrWith(other BitSet) {
	for i := range b {
		b[i] |= other[i]
	}
}

// Count returns the number of set bits.
func (b BitSet) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Closure is the transitive closure of a DAG as one reachability bit row per
// node. Reach[u].Get(v) is true iff there is a directed path u→…→v with at
// least one edge, or u == v (each node reaches itself by convention; use
// Reaches for the strict version).
type Closure struct {
	n     int
	Reach []BitSet
}

// TransitiveClosure computes the reflexive-transitive closure of a DAG in
// O(n·m/64) using bit-parallel union over a reverse topological order.
func (g *Digraph) TransitiveClosure() (*Closure, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	return g.TransitiveClosureFromOrder(order), nil
}

// TransitiveClosureFromOrder is TransitiveClosure with a precomputed
// topological order.
func (g *Digraph) TransitiveClosureFromOrder(order []int) *Closure {
	g.build()
	c := &Closure{n: g.n, Reach: make([]BitSet, g.n)}
	for u := 0; u < g.n; u++ {
		c.Reach[u] = NewBitSet(g.n)
		c.Reach[u].Set(u)
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, ei := range g.out(u) {
			c.Reach[u].OrWith(c.Reach[g.edges[ei].To])
		}
	}
	return c
}

// Reaches reports whether there is a directed path from u to v with at least
// one edge (strict reachability: Reaches(u,u) is false unless on a cycle,
// which cannot happen in a DAG).
func (c *Closure) Reaches(u, v int) bool {
	if u == v {
		return false
	}
	return c.Reach[u].Get(v)
}

// Descendants returns the strict descendants of u in increasing order.
func (c *Closure) Descendants(u int) []int {
	var out []int
	for v := 0; v < c.n; v++ {
		if v != u && c.Reach[u].Get(v) {
			out = append(out, v)
		}
	}
	return out
}

// Comparable reports whether u and v are ordered either way (u⇝v or v⇝u).
func (c *Closure) Comparable(u, v int) bool {
	return c.Reaches(u, v) || c.Reaches(v, u)
}

// TransitiveReduction returns the edge indices of g that are transitively
// redundant under the longest-path criterion used by the paper's Section 3
// model optimization: an edge e=(u,v) can be removed when there is another
// u→v path of weight ≥ δ(e) that does not use e. Removing all reported edges
// together never changes any constraint σ_v − σ_u ≥ δ: edges are marked
// greedily, and each new redundancy witness is checked against the graph
// with the already-marked edges excluded (this makes the marking safe even
// for mutually-redundant parallel edges).
func (g *Digraph) TransitiveReduction() ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	g.build()
	var redundant []int
	removed := make([]bool, len(g.edges))
	for idx, e := range g.edges {
		removed[idx] = true // tentatively exclude the candidate itself
		d := g.longestFromExcluding(e.From, order, removed)
		if d[e.To] != NoPath && d[e.To] >= e.Weight {
			redundant = append(redundant, idx) // keep it marked
		} else {
			removed[idx] = false
		}
	}
	return redundant, nil
}

func (g *Digraph) longestFromExcluding(src int, order []int, skip []bool) []int64 {
	dist := make([]int64, g.n)
	for i := range dist {
		dist[i] = NoPath
	}
	dist[src] = 0
	for _, u := range order {
		if dist[u] == NoPath {
			continue
		}
		for _, ei := range g.out(u) {
			if skip[ei] {
				continue
			}
			e := g.edges[ei]
			if d := dist[u] + e.Weight; d > dist[e.To] {
				dist[e.To] = d
			}
		}
	}
	return dist
}
