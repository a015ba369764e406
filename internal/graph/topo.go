package graph

import "fmt"

// ErrCycle is returned (wrapped) by algorithms that require a DAG when the
// graph contains a directed cycle.
type ErrCycle struct {
	// Nodes holds one directed cycle found in the graph, in order.
	Nodes []int
}

func (e *ErrCycle) Error() string {
	return fmt.Sprintf("graph: directed cycle through nodes %v", e.Nodes)
}

// TopoSort returns a topological order of the graph's nodes (every edge goes
// from an earlier to a later position). It returns an *ErrCycle if the graph
// is not a DAG. Kahn's algorithm with a deterministic smallest-index-first
// tie break, so the order is stable across runs.
func (g *Digraph) TopoSort() ([]int, error) {
	g.build()
	indeg := make([]int, g.n)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	// Min-heap over node indices for determinism.
	heap := make([]int, 0, g.n)
	push := func(u int) {
		heap = append(heap, u)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() int {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && heap[l] < heap[small] {
				small = l
			}
			if r < last && heap[r] < heap[small] {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	for u := 0; u < g.n; u++ {
		if indeg[u] == 0 {
			push(u)
		}
	}
	order := make([]int, 0, g.n)
	for len(heap) > 0 {
		u := pop()
		order = append(order, u)
		for _, ei := range g.out(u) {
			v := g.edges[ei].To
			indeg[v]--
			if indeg[v] == 0 {
				push(v)
			}
		}
	}
	if len(order) != g.n {
		return nil, &ErrCycle{Nodes: g.findCycle()}
	}
	return order, nil
}

// IsDAG reports whether the graph is acyclic.
func (g *Digraph) IsDAG() bool {
	_, err := g.TopoSort()
	return err == nil
}

// findCycle returns one directed cycle; it must only be called on graphs
// known to contain one.
func (g *Digraph) findCycle() []int {
	g.build()
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, g.n)
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, ei := range g.out(u) {
			v := g.edges[ei].To
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a back edge u→v: unwind u..v.
				cycle = append(cycle, v)
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse so the cycle reads in edge direction.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < g.n; u++ {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}

// Sources returns the nodes with no incoming edges, in increasing order.
func (g *Digraph) Sources() []int {
	g.build()
	var out []int
	for u := 0; u < g.n; u++ {
		if len(g.in(u)) == 0 {
			out = append(out, u)
		}
	}
	return out
}

// Sinks returns the nodes with no outgoing edges, in increasing order.
func (g *Digraph) Sinks() []int {
	g.build()
	var out []int
	for u := 0; u < g.n; u++ {
		if len(g.out(u)) == 0 {
			out = append(out, u)
		}
	}
	return out
}
