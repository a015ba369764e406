// Package ddg implements the paper's DAG and processor model (Section 2):
// data dependence graphs G = (V, E, δ) with multiple register types, flow
// dependence edges E_{R,t} carrying values of type t, serial edges for other
// precedence constraints, per-operation read/write delay offsets δr/δw
// (visible on VLIW and EPIC/IA64 targets, zero on superscalar), and the
// bottom node ⊥ that closes exit values.
package ddg

import (
	"fmt"
	"slices"
	"sort"

	"regsat/internal/graph"
)

// RegType names a register type (the set T of the paper, e.g. int, float).
type RegType string

// Common register types used by the kernel suite.
const (
	Int   RegType = "int"
	Float RegType = "float"
)

// MachineKind selects the processor family, which fixes how reading/writing
// offsets behave and which latency serialization arcs carry (Section 4).
type MachineKind int

const (
	// Superscalar: sequential code semantics, δr = δw = 0, serialization
	// arcs carry latency 1.
	Superscalar MachineKind = iota
	// VLIW: architecturally visible offsets; serialization arcs carry
	// latency δr(u′) − δw(v), which may be non-positive.
	VLIW
	// EPIC: like VLIW, but a writer and a reader may share an instruction
	// group, so the writing delay is statically zero.
	EPIC
)

func (k MachineKind) String() string {
	switch k {
	case Superscalar:
		return "superscalar"
	case VLIW:
		return "vliw"
	default:
		return "epic"
	}
}

// HasOffsets reports whether the machine exposes read/write delay offsets.
func (k MachineKind) HasOffsets() bool { return k != Superscalar }

// EdgeKind distinguishes flow dependences (through a register value) from
// plain serial precedence constraints.
type EdgeKind int

const (
	// Flow is a true data dependence through a register of some type.
	Flow EdgeKind = iota
	// Serial is any other precedence constraint.
	Serial
)

func (k EdgeKind) String() string {
	if k == Flow {
		return "flow"
	}
	return "serial"
}

// Node is one operation (statement) of the DDG.
type Node struct {
	ID      int
	Name    string
	Op      string // mnemonic, informational
	Latency int64  // execution latency, default latency of its flow edges
	// Writes lists the values the node defines, sorted by type with one
	// entry per type: a node defines at most one value per type (model
	// restriction, §2). It is nil on a node that writes nothing. The slice
	// is a capacity-capped window of its graph's write arena; change it
	// only through SetWrites.
	Writes []Write
	// DelayR is the reading offset δr: operands are read DelayR cycles
	// after issue. Zero on superscalar and EPIC reads at issue.
	DelayR int64
}

// Write is one value a node defines: its register type and its writing
// offset δw (cycles after issue at which the result register is written).
type Write struct {
	Type   RegType
	DelayW int64
}

// WritesType reports whether the node defines a value of type t.
func (n *Node) WritesType(t RegType) bool {
	for i := range n.Writes {
		if n.Writes[i].Type == t {
			return true
		}
	}
	return false
}

// DelayW returns δw(n) for type t (0 if the node does not write t).
func (n *Node) DelayW(t RegType) int64 {
	for i := range n.Writes {
		if n.Writes[i].Type == t {
			return n.Writes[i].DelayW
		}
	}
	return 0
}

// PutWrite returns ws with type t written at offset dw: the entry of t is
// updated in place when ws has one (the last δw wins), otherwise one is
// inserted in type order. ws must be nil or a window of *arena; a new entry
// is appended to *arena, after a copy of ws unless ws already ends it. The
// result is capacity-capped, so no later append to the arena reaches it.
func PutWrite(arena *[]Write, ws []Write, t RegType, dw int64) []Write {
	for i := range ws {
		if ws[i].Type == t {
			ws[i].DelayW = dw
			return ws
		}
	}
	a := *arena
	start := len(a) - len(ws)
	if len(ws) == 0 || len(a) == 0 || &ws[len(ws)-1] != &a[len(a)-1] {
		start = len(a)
		a = append(a, ws...)
	}
	a = append(a, Write{Type: t, DelayW: dw})
	*arena = a
	out := a[start:len(a):len(a)]
	for k := len(out) - 1; k > 0 && out[k].Type < out[k-1].Type; k-- {
		out[k], out[k-1] = out[k-1], out[k]
	}
	return out
}

// CloneWrites moves the write windows of nodes into one fresh arena and
// returns it, so the nodes no longer share writes with any other slice.
func CloneWrites(nodes []Node) []Write {
	total := 0
	for i := range nodes {
		total += len(nodes[i].Writes)
	}
	arena := make([]Write, 0, total)
	for i := range nodes {
		if ws := nodes[i].Writes; len(ws) > 0 {
			start := len(arena)
			arena = append(arena, ws...)
			nodes[i].Writes = arena[start:len(arena):len(arena)]
		}
	}
	return arena
}

// Edge is a dependence of the DDG.
type Edge struct {
	From, To int
	Latency  int64
	Kind     EdgeKind
	Type     RegType // set only for Kind == Flow
}

// Graph is a data dependence DAG over operations. Build it with New/AddNode/
// AddFlowEdge/AddSerialEdge, then call Finalize to append the bottom node ⊥
// and validate. Analyses in other packages require a finalized graph.
type Graph struct {
	Name    string
	Machine MachineKind

	nodes  []Node
	edges  []Edge
	writes []Write // the arena every node's Writes window lives in
	bottom int     // index of ⊥, or -1 before Finalize

	finalized bool
	// critical is the critical path length, computed by Finalize and Extend
	// and never later, so graphs shared across goroutines are only read;
	// hasCritical is false before Finalize and on an Extend that closed a
	// cycle.
	critical    int64
	hasCritical bool
}

// New creates an empty DDG for the given machine kind.
func New(name string, machine MachineKind) *Graph {
	return &Graph{Name: name, Machine: machine, bottom: -1}
}

// AddNode appends an operation and returns its ID. The latency is both the
// node's execution latency and the default latency of its flow edges.
func (g *Graph) AddNode(name, op string, latency int64) int {
	g.mustBeMutable()
	if latency < 0 {
		panic(fmt.Sprintf("ddg: node %s has negative latency %d", name, latency))
	}
	g.nodes = append(g.nodes, Node{
		ID:      len(g.nodes),
		Name:    name,
		Op:      op,
		Latency: latency,
	})
	return len(g.nodes) - 1
}

// SetWrites declares that node u defines a value of type t with writing
// offset δw; declaring a type again replaces its δw. Superscalar machines
// must use δw = 0.
func (g *Graph) SetWrites(u int, t RegType, dw int64) {
	g.mustBeMutable()
	if !g.Machine.HasOffsets() && dw != 0 {
		panic(fmt.Sprintf("ddg: node %s: superscalar machines have δw = 0", g.nodes[u].Name))
	}
	g.nodes[u].Writes = PutWrite(&g.writes, g.nodes[u].Writes, t, dw)
}

// SetReadDelay declares node u's reading offset δr.
func (g *Graph) SetReadDelay(u int, dr int64) {
	g.mustBeMutable()
	if !g.Machine.HasOffsets() && dr != 0 {
		panic(fmt.Sprintf("ddg: node %s: superscalar machines have δr = 0", g.nodes[u].Name))
	}
	g.nodes[u].DelayR = dr
}

// AddFlowEdge adds a flow dependence u→v through the value u writes of type
// t, with latency defaulting to u's node latency.
func (g *Graph) AddFlowEdge(u, v int, t RegType) int {
	return g.AddFlowEdgeLatency(u, v, t, g.nodes[u].Latency)
}

// AddFlowEdgeLatency is AddFlowEdge with an explicit latency.
func (g *Graph) AddFlowEdgeLatency(u, v int, t RegType, latency int64) int {
	g.mustBeMutable()
	if !g.nodes[u].WritesType(t) {
		panic(fmt.Sprintf("ddg: flow edge %s→%s of type %s, but %s does not write %s",
			g.nodes[u].Name, g.nodes[v].Name, t, g.nodes[u].Name, t))
	}
	g.edges = append(g.edges, Edge{From: u, To: v, Latency: latency, Kind: Flow, Type: t})
	return len(g.edges) - 1
}

// AddSerialEdge adds a serial precedence constraint u→v with the given
// latency. Negative latencies are admitted only on machines with offsets
// (they arise from RS reduction on VLIW/EPIC codes).
func (g *Graph) AddSerialEdge(u, v int, latency int64) int {
	g.mustBeMutable()
	if latency < 0 && !g.Machine.HasOffsets() {
		panic("ddg: negative serial latency on a superscalar machine")
	}
	g.edges = append(g.edges, Edge{From: u, To: v, Latency: latency, Kind: Serial})
	return len(g.edges) - 1
}

func (g *Graph) mustBeMutable() {
	if g.finalized {
		panic("ddg: graph is finalized")
	}
}

// NumNodes returns the operation count (including ⊥ once finalized).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the dependence count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID.
func (g *Graph) Node(id int) *Node { return &g.nodes[id] }

// Nodes returns the node slice (read-only by convention).
func (g *Graph) Nodes() []Node { return g.nodes }

// Edges returns the edge slice (read-only by convention).
func (g *Graph) Edges() []Edge { return g.edges }

// Bottom returns the ID of ⊥, or -1 if the graph is not finalized.
func (g *Graph) Bottom() int { return g.bottom }

// Finalized reports whether Finalize has completed.
func (g *Graph) Finalized() bool { return g.finalized }

// NodeByName returns the ID of the node with the given name, or -1.
func (g *Graph) NodeByName(name string) int {
	for i := range g.nodes {
		if g.nodes[i].Name == name {
			return i
		}
	}
	return -1
}

// Types returns the sorted set of register types written in the graph.
func (g *Graph) Types() []RegType {
	return WrittenTypes(g.nodes)
}

// WrittenTypes returns the sorted set of register types the nodes write.
func WrittenTypes(nodes []Node) []RegType {
	out := []RegType{}
	for i := range nodes {
		for _, w := range nodes[i].Writes {
			if !slices.Contains(out, w.Type) {
				out = append(out, w.Type)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Values returns V_{R,t}: the IDs of nodes defining a value of type t, in
// increasing order. The bottom node never defines values.
func (g *Graph) Values(t RegType) []int {
	var out []int
	for i := range g.nodes {
		if g.nodes[i].WritesType(t) {
			out = append(out, i)
		}
	}
	return out
}

// Cons returns Cons(u^t): the consumers of the type-t value defined by u,
// in increasing order, without duplicates.
func (g *Graph) Cons(u int, t RegType) []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range g.edges {
		if e.Kind == Flow && e.From == u && e.Type == t && !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	sort.Ints(out)
	return out
}

// Finalize appends the bottom node ⊥ (unless already present), connecting
// every exit value to it with a flow edge and every other node to it with a
// serial edge of latency equal to the source's latency, then validates the
// graph and records its critical path. After Finalize the graph is
// immutable through this API. It runs in O(n + m) (times the types one node
// writes) with one scratch allocation.
func (g *Graph) Finalize() error {
	if g.finalized {
		return nil
	}
	if len(g.nodes) == 0 {
		return fmt.Errorf("ddg %s: empty graph", g.Name)
	}
	bot := g.AddNode("_bot", "bottom", 0)
	g.bottom = bot
	// Room for validate: each node gets one edge to ⊥, or one per exit value.
	nw, m := 0, len(g.edges)
	for u := 0; u < bot; u++ {
		nw += len(g.nodes[u].Writes)
		m += max(1, len(g.nodes[u].Writes))
	}
	scratch := make([]int64, scratchLen(bot+1, m))
	// Exit values — values with no consumer — get a flow edge to ⊥, in type
	// order per node; every other node gets a serial arc to ⊥ (latency =
	// source latency). One pass over the edges marks the consumed values:
	// consumed[at[u]+i] is u's i-th write. m counts at least one edge per
	// value, so these marks fit in validate's scratch.
	at := scratch[:bot+1]
	consumed, exits := scratch[bot+1:bot+1+nw], scratch[bot+1+nw:2*bot+1+nw]
	for u := 0; u < bot; u++ {
		at[u+1] = at[u] + int64(len(g.nodes[u].Writes))
	}
	for _, e := range g.edges {
		if e.Kind != Flow {
			continue
		}
		for i, w := range g.nodes[e.From].Writes {
			if w.Type == e.Type {
				consumed[at[e.From]+int64(i)] = 1
				break
			}
		}
	}
	for u := 0; u < bot; u++ {
		for i, w := range g.nodes[u].Writes {
			if consumed[at[u]+int64(i)] == 0 {
				g.AddFlowEdgeLatency(u, bot, w.Type, g.nodes[u].Latency)
				exits[u] = 1
			}
		}
	}
	for u := 0; u < bot; u++ {
		if exits[u] == 0 {
			g.AddSerialEdge(u, bot, g.nodes[u].Latency)
		}
	}
	g.finalized = true
	cp, err := g.validate(scratch)
	if err != nil {
		g.finalized = false
		return err
	}
	g.critical, g.hasCritical = cp, true
	return nil
}

// Validate checks the structural invariants of the model: the graph is a
// DAG; flow edges leave nodes that write their type; original flow latencies
// are positive; superscalar machines carry no offsets; the bottom node (when
// present) is the unique sink and reachable from every node.
func (g *Graph) Validate() error {
	_, err := g.validate(g.scratch())
	return err
}

// scratchLen is the length of the int64 scratch that longestPath and
// validate share on a graph of n nodes and m edges.
func scratchLen(n, m int) int { return 4*n + m + 2 }

// scratch returns a fresh scratch for the graph as it stands.
func (g *Graph) scratch() []int64 {
	return make([]int64, scratchLen(len(g.nodes), len(g.edges)))
}

// validate is Validate over a scratch of at least scratchLen, also
// returning the critical path that its acyclicity check computes on the
// way.
func (g *Graph) validate(scratch []int64) (int64, error) {
	cp, ok := g.longestPath(scratch)
	if !ok {
		// Name the cycle exactly as the digraph's topological sort does.
		_, err := g.ToDigraph().TopoSort()
		return 0, fmt.Errorf("ddg %s: %w", g.Name, err)
	}
	for _, e := range g.edges {
		if e.Kind == Flow {
			if !g.nodes[e.From].WritesType(e.Type) {
				return 0, fmt.Errorf("ddg %s: flow edge %s→%s type %s from non-writer",
					g.Name, g.nodes[e.From].Name, g.nodes[e.To].Name, e.Type)
			}
			if e.Latency < 1 {
				return 0, fmt.Errorf("ddg %s: flow edge %s→%s has latency %d < 1",
					g.Name, g.nodes[e.From].Name, g.nodes[e.To].Name, e.Latency)
			}
		}
	}
	if !g.Machine.HasOffsets() {
		for i := range g.nodes {
			if g.nodes[i].DelayR != 0 {
				return 0, fmt.Errorf("ddg %s: node %s has δr ≠ 0 on superscalar", g.Name, g.nodes[i].Name)
			}
			for _, w := range g.nodes[i].Writes {
				if w.DelayW != 0 {
					return 0, fmt.Errorf("ddg %s: node %s has δw(%s) ≠ 0 on superscalar", g.Name, g.nodes[i].Name, w.Type)
				}
			}
		}
	}
	if g.finalized {
		bot := g.bottom
		if g.nodes[bot].Name != "_bot" {
			return 0, fmt.Errorf("ddg %s: bottom node corrupted", g.Name)
		}
		reach := scratch[:len(g.nodes)]
		clear(reach)
		for _, e := range g.edges {
			if e.To == bot {
				reach[e.From] = 1
			}
			if e.From == bot {
				return 0, fmt.Errorf("ddg %s: bottom node has outgoing edge", g.Name)
			}
		}
		for u := 0; u < bot; u++ {
			if reach[u] == 0 {
				return 0, fmt.Errorf("ddg %s: node %s has no edge to ⊥", g.Name, g.nodes[u].Name)
			}
		}
	}
	return cp, nil
}

// longestPath sorts the graph topologically (Kahn's algorithm over a flat
// CSR of the edges, in any valid order) and computes the critical path in
// the same pass: the longest path weight over all node pairs, at least 0,
// as graph.Digraph.CriticalPath defines it. ok is false when the graph has
// a cycle. scratch holds at least scratchLen entries; their values do not
// matter.
func (g *Graph) longestPath(scratch []int64) (length int64, ok bool) {
	n, m := len(g.nodes), len(g.edges)
	// A counting sort of the edge indices by source (degrees counted two
	// slots ahead, so the fill leaves succ[off[u]:off[u+1]] holding u's
	// out-edges), in-degrees, distances and the queue.
	s := scratch[:scratchLen(n, m)]
	clear(s)
	off, indeg := s[:n+2], s[n+2:2*n+2]
	succ, dist := s[2*n+2:2*n+2+m], s[2*n+2+m:3*n+2+m]
	queue := s[3*n+2+m : 3*n+2+m : len(s)]
	for _, e := range g.edges {
		if uint(e.From) >= uint(n) || uint(e.To) >= uint(n) {
			return 0, false // the caller's digraph fallback reports it
		}
		off[e.From+2]++
		indeg[e.To]++
	}
	for u := 2; u < n+2; u++ {
		off[u] += off[u-1]
	}
	for i, e := range g.edges {
		succ[off[e.From+1]] = int64(i)
		off[e.From+1]++
	}
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, int64(u))
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du > length {
			length = du
		}
		for _, ei := range succ[off[u]:off[u+1]] {
			e := &g.edges[ei]
			if d := du + e.Latency; d > dist[e.To] {
				dist[e.To] = d
			}
			if indeg[e.To]--; indeg[e.To] == 0 {
				queue = append(queue, int64(e.To))
			}
		}
	}
	return length, len(queue) == n
}

// ToDigraph converts the DDG to a weighted digraph over the same node IDs
// (weights are edge latencies) for path and closure computations.
func (g *Graph) ToDigraph() *graph.Digraph {
	dg := graph.New(len(g.nodes))
	for _, e := range g.edges {
		dg.AddEdge(e.From, e.To, e.Latency)
	}
	return dg
}

// Horizon returns the worst-case schedule horizon T used to bound all intLP
// variables. The paper proposes T = Σ_e δ(e) (a schedule with no ILP at
// all); we additionally add one slot per node so T stays valid when some
// latencies are zero or negative (VLIW serialization arcs).
func (g *Graph) Horizon() int64 {
	var total int64
	for _, e := range g.edges {
		if e.Latency > 0 {
			total += e.Latency
		}
	}
	return total + int64(len(g.nodes))
}

// Clone returns a deep copy of the graph (same finalized state and
// critical path); its nodes' writes live in an arena of its own.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:        g.Name,
		Machine:     g.Machine,
		nodes:       append([]Node(nil), g.nodes...),
		edges:       append([]Edge(nil), g.edges...),
		bottom:      g.bottom,
		finalized:   g.finalized,
		critical:    g.critical,
		hasCritical: g.hasCritical,
	}
	c.writes = CloneWrites(c.nodes)
	return c
}

// CriticalPath returns the critical path length of the DDG (the longest
// path weight; on a finalized graph this ends at ⊥ and therefore includes
// the final operation latencies). A finalized graph answers from the value
// Finalize recorded; any other graph is measured now, and a cyclic one
// panics.
func (g *Graph) CriticalPath() int64 {
	if g.hasCritical {
		return g.critical
	}
	length, ok := g.longestPath(g.scratch())
	if !ok {
		_, err := g.ToDigraph().TopoSort()
		panic(fmt.Sprintf("ddg %s: %v", g.Name, err))
	}
	return length
}

// SerialArc is a serialization arc added by RS reduction (Section 4).
type SerialArc struct {
	From, To int
	Latency  int64
}

// Extend returns a clone of g with the given extra serial arcs appended; the
// clone keeps the finalized state. It is the primitive used by RS reduction
// to build the extended DDG Ḡ = G ∪ E̅ without mutating the original. The
// caller is responsible for checking that the extension is still a DAG
// (Validate reports cycles).
func (g *Graph) Extend(arcs []SerialArc) *Graph {
	c := g.Clone()
	for _, a := range arcs {
		c.edges = append(c.edges, Edge{From: a.From, To: a.To, Latency: a.Latency, Kind: Serial})
	}
	if c.finalized {
		c.critical, c.hasCritical = c.longestPath(c.scratch())
	}
	return c
}
