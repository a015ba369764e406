// Package schedule implements the scheduling side of the paper's model
// (Section 2): valid acyclic schedules σ, ASAP/ALAP times under a horizon T,
// value lifetime intervals LT_σ(u^t) = ]σ_u+δw(u), max_{v∈Cons(u^t)} σ_v+δr(v)],
// the register need RN_σ,t (maximal number of values simultaneously alive),
// exhaustive schedule enumeration for brute-force oracles, and a
// resource-constrained list scheduler for the post-RS pass.
package schedule

import (
	"fmt"

	"regsat/internal/ddg"
	"regsat/internal/ir"
)

// Schedule assigns an issue time to every node of a DDG.
type Schedule struct {
	G     *ddg.Graph
	Times []int64
}

// New wraps explicit times for g.
func New(g *ddg.Graph, times []int64) *Schedule {
	if len(times) != g.NumNodes() {
		panic(fmt.Sprintf("schedule: %d times for %d nodes", len(times), g.NumNodes()))
	}
	return &Schedule{G: g, Times: times}
}

// Validate checks σ_v − σ_u ≥ δ(e) for every edge and σ ≥ 0.
func (s *Schedule) Validate() error {
	for u, t := range s.Times {
		if t < 0 {
			return fmt.Errorf("schedule: node %s at negative time %d", s.G.Node(u).Name, t)
		}
	}
	for _, e := range s.G.Edges() {
		if s.Times[e.To]-s.Times[e.From] < e.Latency {
			return fmt.Errorf("schedule: edge %s→%s violated: σ=%d,%d δ=%d",
				s.G.Node(e.From).Name, s.G.Node(e.To).Name,
				s.Times[e.From], s.Times[e.To], e.Latency)
		}
	}
	return nil
}

// Makespan returns the total schedule time: σ_⊥ for a finalized graph.
func (s *Schedule) Makespan() int64 {
	if b := s.G.Bottom(); b >= 0 {
		return s.Times[b]
	}
	var max int64
	for u, t := range s.Times {
		if end := t + s.G.Node(u).Latency; end > max {
			max = end
		}
	}
	return max
}

// ASAP returns the as-soon-as-possible schedule (longest path from sources).
func ASAP(g *ddg.Graph) (*Schedule, error) {
	snap, err := ir.Build(g)
	if err != nil {
		return nil, err
	}
	return ASAPIR(snap), nil
}

// ASAPIR is ASAP over a prebuilt analysis snapshot (no digraph or topological
// sort is recomputed).
func ASAPIR(snap *ir.Snapshot) *Schedule {
	times := make([]int64, snap.N)
	for _, u := range snap.Topo {
		dst, wt := snap.Rev.Row(u)
		for i, from := range dst {
			if t := times[from] + wt[i]; t > times[u] {
				times[u] = t
			}
		}
		if times[u] < 0 {
			times[u] = 0 // negative-latency serial arcs cannot push before 0
		}
	}
	return New(snap.G, times)
}

// ALAP returns the as-late-as-possible schedule under total time T:
// σ̄_u = T − LongestPathFrom(u). It errors if T is below the critical path.
func ALAP(g *ddg.Graph, T int64) (*Schedule, error) {
	snap, err := ir.Build(g)
	if err != nil {
		return nil, err
	}
	return ALAPIR(snap, T)
}

// ALAPIR is ALAP over a prebuilt analysis snapshot.
func ALAPIR(snap *ir.Snapshot, T int64) (*Schedule, error) {
	tail := make([]int64, snap.N) // longest path from u to anywhere
	for i := len(snap.Topo) - 1; i >= 0; i-- {
		u := snap.Topo[i]
		dst, wt := snap.Fwd.Row(u)
		for j, to := range dst {
			if t := tail[to] + wt[j]; t > tail[u] {
				tail[u] = t
			}
		}
	}
	times := make([]int64, snap.N)
	for u := range times {
		times[u] = T - tail[u]
		if times[u] < 0 {
			return nil, fmt.Errorf("schedule: horizon %d below critical path", T)
		}
	}
	s := New(snap.G, times)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Interval is a value lifetime ]Start, End]: the value is alive at the
// integer instants Start+1 … End. Empty when End ≤ Start.
type Interval struct {
	Value      int // defining node
	Start, End int64
}

// Empty reports whether the interval contains no instant.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Overlaps reports whether two left-open intervals share an instant.
func (iv Interval) Overlaps(other Interval) bool {
	if iv.Empty() || other.Empty() {
		return false
	}
	return iv.Start < other.End && other.Start < iv.End
}

// Lifetime returns LT_σ(u^t). The graph must be finalized so every value has
// at least one consumer (possibly ⊥).
func (s *Schedule) Lifetime(u int, t ddg.RegType) Interval {
	n := s.G.Node(u)
	if !n.WritesType(t) {
		panic(fmt.Sprintf("schedule: node %s writes no %s value", n.Name, t))
	}
	start := s.Times[u] + n.DelayW(t)
	cons := s.G.Cons(u, t)
	if len(cons) == 0 {
		panic(fmt.Sprintf("schedule: value %s^%s has no consumer (graph not finalized?)", n.Name, t))
	}
	end := int64(-1 << 62)
	for _, v := range cons {
		if k := s.Times[v] + s.G.Node(v).DelayR; k > end {
			end = k
		}
	}
	return Interval{Value: u, Start: start, End: end}
}

// Lifetimes returns the lifetime intervals of all type-t values.
func (s *Schedule) Lifetimes(t ddg.RegType) []Interval {
	values := s.G.Values(t)
	out := make([]Interval, 0, len(values))
	for _, u := range values {
		out = append(out, s.Lifetime(u, t))
	}
	return out
}

// RegisterNeed computes RN_σ,t: the maximal number of type-t values
// simultaneously alive under s (the maximal clique of the interval
// interference graph), via an event sweep.
func (s *Schedule) RegisterNeed(t ddg.RegType) int {
	return MaxLive(s.Lifetimes(t))
}

type liveEvent struct {
	time  int64
	delta int
}

// MaxLive returns the maximal overlap of a set of left-open intervals.
func MaxLive(intervals []Interval) int {
	events := make([]liveEvent, 0, 2*len(intervals))
	for _, iv := range intervals {
		if iv.Empty() {
			continue
		}
		// Alive during [Start+1, End] at integer instants.
		events = append(events, liveEvent{iv.Start + 1, +1}, liveEvent{iv.End + 1, -1})
	}
	sortLiveEvents(events)
	cur, max := 0, 0
	for _, ev := range events {
		cur += ev.delta
		if cur > max {
			max = cur
		}
	}
	return max
}

// sortLiveEvents orders events by time, with −1 deltas before +1 at equal
// times. The left-open interval encoding (Start+1/End+1) already makes a
// value killed at instant τ disjoint from one first alive at τ; the tie
// break merely keeps the running count tight at shared event times.
func sortLiveEvents(events []liveEvent) {
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && (events[j].time < events[j-1].time ||
			(events[j].time == events[j-1].time && events[j].delta < events[j-1].delta)); j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}

// Windows computes the per-node issue windows [ASAP_u, T − tail_u] used to
// bound intLP variables and schedule enumeration.
func Windows(g *ddg.Graph, T int64) (lo, hi []int64, err error) {
	snap, err := ir.Build(g)
	if err != nil {
		return nil, nil, err
	}
	return WindowsIR(snap, T)
}

// WindowsIR is Windows over a prebuilt analysis snapshot.
func WindowsIR(snap *ir.Snapshot, T int64) (lo, hi []int64, err error) {
	asap := ASAPIR(snap)
	alap, err := ALAPIR(snap, T)
	if err != nil {
		return nil, nil, err
	}
	for u := range asap.Times {
		if asap.Times[u] > alap.Times[u] {
			return nil, nil, fmt.Errorf("schedule: empty window for node %s under T=%d",
				snap.G.Node(u).Name, T)
		}
	}
	return asap.Times, alap.Times, nil
}

// ForEach enumerates every valid integer schedule of g whose per-node times
// lie within the [ASAP, ALAP(T)] windows, calling visit for each; visit
// returns false to stop early. Exponential — use only for tiny graphs in
// tests and oracles. The callback's slice is reused across calls.
func ForEach(g *ddg.Graph, T int64, visit func(times []int64) bool) error {
	lo, hi, err := Windows(g, T)
	if err != nil {
		return err
	}
	dg := g.ToDigraph()
	order, err := dg.TopoSort()
	if err != nil {
		return err
	}
	times := make([]int64, g.NumNodes())
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(order) {
			return visit(times)
		}
		u := order[i]
		min := lo[u]
		for _, ei := range dg.InEdges(u) {
			e := dg.Edge(ei)
			if t := times[e.From] + e.Weight; t > min {
				min = t
			}
		}
		for t := min; t <= hi[u]; t++ {
			times[u] = t
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return nil
}
