// Package interference builds value interference graphs from scheduled DDGs
// (Section 3 of the paper: H_t, whose maximal clique is the register need)
// and colors them. Lifetime intervals make H_t an interval graph, so the
// left-edge algorithm colors it optimally with exactly MAXLIVE colors.
package interference

import (
	"sort"

	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/schedule"
)

// Graph is the undirected interference graph H_t of the type-t values of a
// scheduled DDG: vertices are value-defining nodes, edges join values whose
// lifetime intervals overlap.
type Graph struct {
	Type      ddg.RegType
	Values    []int // defining node IDs, increasing
	Intervals []schedule.Interval
	adj       map[int]map[int]bool
}

// Build computes H_t for schedule s with a direct value scan — cheap
// enough that it never warrants building (or pinning) an analysis snapshot
// for a graph nothing else analyzes.
func Build(s *schedule.Schedule, t ddg.RegType) *Graph {
	return buildFromValues(s, t, s.G.Values(t))
}

// BuildFromIR is Build over a prebuilt snapshot of s.G, for callers that
// already hold the graph's snapshot: the value set comes from its
// per-type table instead of a rescan.
func BuildFromIR(snap *ir.Snapshot, s *schedule.Schedule, t ddg.RegType) *Graph {
	var values []int
	if tbl := snap.Table(t); tbl != nil {
		values = tbl.Values
	}
	return buildFromValues(s, t, values)
}

func buildFromValues(s *schedule.Schedule, t ddg.RegType, values []int) *Graph {
	g := &Graph{
		Type:   t,
		Values: values,
		adj:    make(map[int]map[int]bool, len(values)),
	}
	for _, u := range values {
		g.adj[u] = map[int]bool{}
		g.Intervals = append(g.Intervals, s.Lifetime(u, t))
	}
	for i := 0; i < len(values); i++ {
		for j := i + 1; j < len(values); j++ {
			if g.Intervals[i].Overlaps(g.Intervals[j]) {
				g.adj[values[i]][values[j]] = true
				g.adj[values[j]][values[i]] = true
			}
		}
	}
	return g
}

// Interferes reports whether values u and v interfere.
func (g *Graph) Interferes(u, v int) bool { return g.adj[u][v] }

// Degree returns the number of interference neighbours of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// NumEdges returns the interference edge count.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// MaxClique returns the size of a maximum clique of the interval graph,
// which equals the maximal number of simultaneously alive values (MAXLIVE).
func (g *Graph) MaxClique() int {
	return schedule.MaxLive(g.Intervals)
}

// Coloring maps each value-defining node to a register index 0..K-1.
type Coloring struct {
	Assignment map[int]int
	NumColors  int
}

// ColorLeftEdge colors the interval graph with the left-edge algorithm,
// which is optimal for interval graphs: NumColors == MaxClique.
func (g *Graph) ColorLeftEdge() *Coloring {
	idx := make([]int, len(g.Values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := g.Intervals[idx[a]], g.Intervals[idx[b]]
		if ia.Start != ib.Start {
			return ia.Start < ib.Start
		}
		return ia.End < ib.End
	})
	assignment := make(map[int]int, len(g.Values))
	var regEnd []int64 // per register, the end of its last assigned interval
	for _, i := range idx {
		iv := g.Intervals[i]
		reg := -1
		if !iv.Empty() {
			for r, end := range regEnd {
				// Register r is free if its last value died at or before the
				// instant this value is born (left-open intervals).
				if end <= iv.Start {
					reg = r
					break
				}
			}
		} else {
			// Empty lifetimes (dead values) can share any register; give
			// them register 0 without extending its busy end.
			if len(regEnd) == 0 {
				regEnd = append(regEnd, iv.End)
			}
			assignment[g.Values[i]] = 0
			continue
		}
		if reg < 0 {
			regEnd = append(regEnd, iv.End)
			reg = len(regEnd) - 1
		} else if iv.End > regEnd[reg] {
			regEnd[reg] = iv.End
		}
		assignment[g.Values[i]] = reg
	}
	return &Coloring{Assignment: assignment, NumColors: len(regEnd)}
}

// Verify checks that no two interfering values share a register.
func (c *Coloring) Verify(g *Graph) bool {
	for i := 0; i < len(g.Values); i++ {
		for j := i + 1; j < len(g.Values); j++ {
			u, v := g.Values[i], g.Values[j]
			if g.Interferes(u, v) && c.Assignment[u] == c.Assignment[v] {
				return false
			}
		}
	}
	return true
}

// MaximalCliques greedily grows one clique per seed vertex of the abstract
// conflict relation over n vertices and returns the distinct cliques of at
// least minSize members, capped at maxCliques, each sorted ascending and the
// list ordered lexicographically — fully deterministic for a deterministic
// conflicts predicate. The greedy cliques are maximal (no vertex outside a
// returned clique conflicts with all its members), which is what makes them
// useful as set-packing cut supports for the exact MILPs: the paper's
// statically-derived relations (never simultaneously alive, always
// interfering) are exactly such conflict predicates.
func MaximalCliques(n int, conflicts func(i, j int) bool, minSize, maxCliques int) [][]int {
	if n < minSize || minSize < 2 || maxCliques <= 0 {
		return nil
	}
	var out [][]int
	seen := make(map[string]bool)
	var keyBuf []byte
	for seed := 0; seed < n && len(out) < maxCliques; seed++ {
		clique := []int{seed}
		for v := 0; v < n; v++ {
			if v == seed {
				continue
			}
			ok := true
			for _, m := range clique {
				if !conflicts(v, m) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, v)
			}
		}
		if len(clique) < minSize {
			continue
		}
		sort.Ints(clique)
		keyBuf = keyBuf[:0]
		for _, m := range clique {
			keyBuf = append(keyBuf, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
		}
		if k := string(keyBuf); !seen[k] {
			seen[k] = true
			out = append(out, clique)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		ca, cb := out[a], out[b]
		for i := 0; i < len(ca) && i < len(cb); i++ {
			if ca[i] != cb[i] {
				return ca[i] < cb[i]
			}
		}
		return len(ca) < len(cb)
	})
	return out
}
