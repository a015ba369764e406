package graph

import "math"

// NoPath is the sentinel longest-path value meaning "no directed path".
// It is strongly negative but far from the int64 minimum so that adding
// ordinary latencies to it cannot overflow.
const NoPath int64 = math.MinInt64 / 4

// LongestFrom computes the longest-path distance from src to every node in a
// DAG, where the length of a path is the sum of its edge weights. Unreachable
// nodes get NoPath. Negative weights are allowed. Returns *ErrCycle if the
// graph is not a DAG.
func (g *Digraph) LongestFrom(src int) ([]int64, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	return g.longestFromInOrder(src, order), nil
}

// longestFromInOrder is LongestFrom with a precomputed topological order,
// avoiding repeated sorting in all-pairs computations.
func (g *Digraph) longestFromInOrder(src int, order []int) []int64 {
	g.build()
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
			e := g.edges[ei]
			if d := dist[u] + e.Weight; d > dist[e.To] {
				dist[e.To] = d
			}
		}
	}
	return dist
}

// LongestTo computes the longest-path distance from every node to dst in a
// DAG. Unreachable nodes get NoPath.
func (g *Digraph) LongestTo(dst int) ([]int64, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	g.build()
	dist := make([]int64, g.n)
	for i := range dist {
		dist[i] = NoPath
	}
	dist[dst] = 0
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, ei := range g.out(u) {
			e := g.edges[ei]
			if dist[e.To] == NoPath {
				continue
			}
			if d := dist[e.To] + e.Weight; d > dist[u] {
				dist[u] = d
			}
		}
	}
	return dist, nil
}

// AllPairsLongest holds the all-pairs longest-path matrix of a DAG.
// D[u][v] is the longest path weight from u to v, or NoPath if v is not
// reachable from u. D[u][u] is 0 for every u.
type AllPairsLongest struct {
	D [][]int64
}

// LongestAllPairs computes all-pairs longest paths of a DAG by running the
// topological DP from every source node: O(n·(n+m)).
func (g *Digraph) LongestAllPairs() (*AllPairsLongest, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	return g.LongestAllPairsFromOrder(order), nil
}

// LongestAllPairsFromOrder is LongestAllPairs with a precomputed topological
// order, so callers that already sorted (the ir snapshot builder) avoid
// re-sorting.
func (g *Digraph) LongestAllPairsFromOrder(order []int) *AllPairsLongest {
	ap := &AllPairsLongest{D: make([][]int64, g.n)}
	for u := 0; u < g.n; u++ {
		ap.D[u] = g.longestFromInOrder(u, order)
	}
	return ap
}

// Path reports the longest path weight from u to v, or NoPath.
func (ap *AllPairsLongest) Path(u, v int) int64 { return ap.D[u][v] }

// Reaches reports whether there is a directed path from u to v (u ≠ v).
func (ap *AllPairsLongest) Reaches(u, v int) bool {
	return u != v && ap.D[u][v] != NoPath
}

// CriticalPath returns the maximum over all node pairs of the longest path
// weight, i.e. the DAG's critical path length, together with its endpoints.
// For an empty or single-node graph it returns (0, -1, -1).
func (g *Digraph) CriticalPath() (length int64, from, to int, err error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, -1, -1, err
	}
	g.build()
	// dist[v] = longest path ending at v starting anywhere; track the start.
	dist := make([]int64, g.n)
	start := make([]int, g.n)
	for i := range start {
		start[i] = i
	}
	best, bFrom, bTo := int64(0), -1, -1
	for _, u := range order {
		for _, ei := range g.out(u) {
			e := g.edges[ei]
			if d := dist[u] + e.Weight; d > dist[e.To] {
				dist[e.To] = d
				start[e.To] = start[u]
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if dist[v] > best {
			best, bFrom, bTo = dist[v], start[v], v
		}
	}
	return best, bFrom, bTo, nil
}
