// Package cyclic models loop bodies as cyclic data dependence graphs whose
// edges carry iteration distances (ω): an edge u →(λ,ω) v says operation v of
// iteration i+ω depends on operation u of iteration i. The acyclic machinery
// of the rest of the repo analyzes one basic block; this package lifts it to
// the periodic case two ways:
//
//   - an unrolled-window engine (window.go) that instantiates k iterations
//     into an ordinary acyclic DDG, runs the exact acyclic RS engine per
//     window, and iterates k until the per-iteration RS contribution
//     converges (with a proven Fekete bound on the asymptotic slope);
//   - an exact periodic MILP (periodic.go) in modulo-scheduling style —
//     variables indexed by position within the initiation interval — that
//     certifies the unrolled answer on small kernels.
//
// A loop is valid iff every dependence cycle has positive total distance,
// equivalently iff the subgraph of distance-0 edges is acyclic: a cycle with
// total distance zero would make an operation depend on itself within one
// iteration.
package cyclic

import (
	"fmt"

	"regsat/internal/ddg"
)

// MaxDist bounds the iteration distance ω of a single edge. The bound exists
// so deep unrolling can never overflow instance arithmetic: with ω ≤ MaxDist
// and k ≤ MaxUnrollNodes, i+ω stays far below the int64 range.
const MaxDist = 1 << 20

// MaxUnrollNodes caps the node count of one unrolled window.
const MaxUnrollNodes = 1 << 16

// Edge is one dependence of the loop body. Dist is the iteration distance ω
// (0 = same iteration); self-edges (From == To) are legal when Dist ≥ 1 and
// model first-order recurrences.
type Edge struct {
	From, To int
	Latency  int64
	Kind     ddg.EdgeKind
	Type     ddg.RegType // set only for Kind == Flow
	Dist     int64       // iteration distance ω ≥ 0
}

// Loop is a cyclic DDG: one loop body plus loop-carried edges. Build it with
// New/AddNode/AddFlowEdge/AddSerialEdge, then Validate; the analyses of this
// package validate on entry.
type Loop struct {
	Name    string
	Machine ddg.MachineKind

	nodes  []ddg.Node
	edges  []Edge
	writes []ddg.Write // the arena every node's Writes window lives in
}

// New creates an empty loop body for the given machine kind.
func New(name string, machine ddg.MachineKind) *Loop {
	return &Loop{Name: name, Machine: machine}
}

// AddNode appends an operation and returns its ID.
func (l *Loop) AddNode(name, op string, latency int64) int {
	if latency < 0 {
		panic(fmt.Sprintf("cyclic: node %s has negative latency %d", name, latency))
	}
	l.nodes = append(l.nodes, ddg.Node{
		ID:      len(l.nodes),
		Name:    name,
		Op:      op,
		Latency: latency,
	})
	return len(l.nodes) - 1
}

// SetWrites declares that node id defines a value of type t with writing
// offset δw; declaring a type again replaces its δw. Superscalar machines
// must use δw = 0.
func (l *Loop) SetWrites(id int, t ddg.RegType, dw int64) {
	if dw != 0 && !l.Machine.HasOffsets() {
		panic(fmt.Sprintf("cyclic: writing offset δw on a superscalar machine (node %s)", l.nodes[id].Name))
	}
	l.nodes[id].Writes = ddg.PutWrite(&l.writes, l.nodes[id].Writes, t, dw)
}

// SetReadDelay sets the reading offset δr of node id.
func (l *Loop) SetReadDelay(id int, dr int64) {
	if dr != 0 && !l.Machine.HasOffsets() {
		panic(fmt.Sprintf("cyclic: reading offset δr on a superscalar machine (node %s)", l.nodes[id].Name))
	}
	l.nodes[id].DelayR = dr
}

// AddFlowEdge adds a flow dependence through a value of type t at iteration
// distance dist, with the default latency of the writing node.
func (l *Loop) AddFlowEdge(from, to int, t ddg.RegType, dist int64) {
	l.AddFlowEdgeLatency(from, to, t, l.nodes[from].Latency, dist)
}

// AddFlowEdgeLatency is AddFlowEdge with an explicit latency.
func (l *Loop) AddFlowEdgeLatency(from, to int, t ddg.RegType, lat, dist int64) {
	if !l.nodes[from].WritesType(t) {
		panic(fmt.Sprintf("cyclic: flow edge from %s, which does not write type %q", l.nodes[from].Name, t))
	}
	l.edges = append(l.edges, Edge{From: from, To: to, Latency: lat, Kind: ddg.Flow, Type: t, Dist: dist})
}

// AddSerialEdge adds a plain precedence constraint at iteration distance dist.
func (l *Loop) AddSerialEdge(from, to int, lat, dist int64) {
	if lat < 0 && !l.Machine.HasOffsets() {
		panic("cyclic: negative serial latency on a superscalar machine")
	}
	l.edges = append(l.edges, Edge{From: from, To: to, Latency: lat, Kind: ddg.Serial, Dist: dist})
}

// Nodes returns the loop body's operations.
func (l *Loop) Nodes() []ddg.Node { return l.nodes }

// Edges returns the loop's dependences, loop-carried ones included.
func (l *Loop) Edges() []Edge { return l.edges }

// Node returns the node with the given ID.
func (l *Loop) Node(id int) *ddg.Node { return &l.nodes[id] }

// NodeByName returns the ID of the named node, or -1.
func (l *Loop) NodeByName(name string) int {
	for i := range l.nodes {
		if l.nodes[i].Name == name {
			return i
		}
	}
	return -1
}

// Types returns the register types written by the body, sorted.
func (l *Loop) Types() []ddg.RegType { return ddg.WrittenTypes(l.nodes) }

// MaxDistance returns the largest iteration distance of any edge.
func (l *Loop) MaxDistance() int64 {
	var max int64
	for _, e := range l.edges {
		if e.Dist > max {
			max = e.Dist
		}
	}
	return max
}

// Clone returns a deep copy of the loop; its nodes' writes live in an
// arena of its own.
func (l *Loop) Clone() *Loop {
	c := &Loop{Name: l.Name, Machine: l.Machine,
		nodes: append([]ddg.Node(nil), l.nodes...),
		edges: append([]Edge(nil), l.edges...)}
	c.writes = ddg.CloneWrites(c.nodes)
	return c
}

// Validate checks the loop's structural invariants:
//
//   - node latencies non-negative, flow latencies ≥ 1, flow sources write
//     their type;
//   - distances in [0, MaxDist]; self-edges carry distance ≥ 1;
//   - every dependence cycle has positive total distance — equivalently, the
//     subgraph of distance-0 edges is acyclic.
func (l *Loop) Validate() error {
	if len(l.nodes) == 0 {
		return fmt.Errorf("cyclic: loop %q has no nodes", l.Name)
	}
	for i := range l.nodes {
		n := &l.nodes[i]
		if n.Latency < 0 {
			return fmt.Errorf("cyclic: node %s has negative latency %d", n.Name, n.Latency)
		}
		if !l.Machine.HasOffsets() {
			if n.DelayR != 0 {
				return fmt.Errorf("cyclic: node %s has reading offset on a superscalar machine", n.Name)
			}
			for _, w := range n.Writes {
				if w.DelayW != 0 {
					return fmt.Errorf("cyclic: node %s has writing offset for %s on a superscalar machine", n.Name, w.Type)
				}
			}
		}
	}
	for _, e := range l.edges {
		if e.From < 0 || e.From >= len(l.nodes) || e.To < 0 || e.To >= len(l.nodes) {
			return fmt.Errorf("cyclic: edge references node out of range (%d -> %d)", e.From, e.To)
		}
		if e.Dist < 0 {
			return fmt.Errorf("cyclic: edge %s -> %s has negative distance %d",
				l.nodes[e.From].Name, l.nodes[e.To].Name, e.Dist)
		}
		if e.Dist > MaxDist {
			return fmt.Errorf("cyclic: edge %s -> %s distance %d exceeds MaxDist %d",
				l.nodes[e.From].Name, l.nodes[e.To].Name, e.Dist, MaxDist)
		}
		if e.From == e.To && e.Dist == 0 {
			return fmt.Errorf("cyclic: zero-distance self-edge on node %s (every cycle must carry a positive iteration distance)",
				l.nodes[e.From].Name)
		}
		if e.Kind == ddg.Flow {
			if !l.nodes[e.From].WritesType(e.Type) {
				return fmt.Errorf("cyclic: flow edge from %s, which does not write type %q",
					l.nodes[e.From].Name, e.Type)
			}
			if e.Latency < 1 {
				return fmt.Errorf("cyclic: flow edge %s -> %s has latency %d < 1",
					l.nodes[e.From].Name, l.nodes[e.To].Name, e.Latency)
			}
		} else if e.Latency < 0 && !l.Machine.HasOffsets() {
			return fmt.Errorf("cyclic: negative serial latency on a superscalar machine (%s -> %s)",
				l.nodes[e.From].Name, l.nodes[e.To].Name)
		}
	}
	if cycle := l.zeroDistanceCycle(); cycle != "" {
		return fmt.Errorf("cyclic: zero-distance cycle through node %s (every cycle must carry a positive iteration distance)", cycle)
	}
	return nil
}

// zeroDistanceCycle topologically sorts the subgraph of distance-0 edges and
// returns the name of a node on a cycle, or "" when acyclic.
func (l *Loop) zeroDistanceCycle() string {
	n := len(l.nodes)
	// Flat CSR of the distance-0 successors, degrees counted two slots
	// ahead so the fill leaves succ[off[u]:off[u+1]] holding u's.
	off := make([]int32, n+2)
	indeg := make([]int32, n)
	for _, e := range l.edges {
		if e.Dist == 0 {
			off[e.From+2]++
			indeg[e.To]++
		}
	}
	for u := 2; u < n+2; u++ {
		off[u] += off[u-1]
	}
	succ := make([]int32, off[n+1])
	for _, e := range l.edges {
		if e.Dist == 0 {
			succ[off[e.From+1]] = int32(e.To)
			off[e.From+1]++
		}
	}
	queue := make([]int32, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, v := range succ[off[u]:off[u+1]] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if seen == n {
		return ""
	}
	for i, d := range indeg {
		if d > 0 {
			return l.nodes[i].Name
		}
	}
	return l.nodes[0].Name
}

// ZeroProjection returns a copy of the loop with every loop-carried edge
// (dist ≥ 1) removed: the intra-iteration dependence structure. On a valid
// loop the projection is acyclic, and for a loop that had no carried edges to
// begin with it is the loop itself — the case where periodic RS degenerates
// to the acyclic RS of the body (iterations are independent).
func (l *Loop) ZeroProjection() *Loop {
	c := l.Clone()
	edges := c.edges[:0]
	for _, e := range c.edges {
		if e.Dist == 0 {
			edges = append(edges, e)
		}
	}
	c.edges = edges
	return c
}

// Carried reports whether the loop has any loop-carried (dist ≥ 1) edge.
func (l *Loop) Carried() bool {
	for _, e := range l.edges {
		if e.Dist > 0 {
			return true
		}
	}
	return false
}

// Body materializes one iteration of the loop as an ordinary (unfinalized)
// acyclic DDG: the nodes plus the distance-0 edges. Carried edges are
// dropped — Body is the k=1 window without the escape sink, used by the
// distance-0 degeneracy checks.
func (l *Loop) Body() *ddg.Graph {
	g := ddg.New(l.Name, l.Machine)
	for i := range l.nodes {
		n := &l.nodes[i]
		id := g.AddNode(n.Name, n.Op, n.Latency)
		if n.DelayR != 0 {
			g.SetReadDelay(id, n.DelayR)
		}
		for _, w := range n.Writes {
			g.SetWrites(id, w.Type, w.DelayW)
		}
	}
	for _, e := range l.edges {
		if e.Dist != 0 {
			continue
		}
		if e.Kind == ddg.Flow {
			g.AddFlowEdgeLatency(e.From, e.To, e.Type, e.Latency)
		} else {
			g.AddSerialEdge(e.From, e.To, e.Latency)
		}
	}
	return g
}

// Fingerprint returns the structural hash of the loop. It mirrors
// ir.Fingerprint — machine, per-node latencies/offsets/written types, edge
// list — extended with each edge's iteration distance (two loops differing
// only in an ω must not collide) and prefixed with a domain tag so the
// cyclic fingerprint space is disjoint from the acyclic one: a loop and any
// flat DDG can never share a cache entry.
func (l *Loop) Fingerprint() string {
	var arr [2048]byte // the encoding of a loop of a few dozen nodes
	b := append(arr[:0], "cyclic\x00"...)
	b = ddg.AppendInt(b, int64(l.Machine))
	b = ddg.AppendInt(b, int64(len(l.nodes)))
	for i := range l.nodes {
		b = ddg.AppendNodeKey(b, &l.nodes[i])
	}
	b = ddg.AppendInt(b, int64(len(l.edges)))
	for _, e := range l.edges {
		b = ddg.AppendInt(b, int64(e.From))
		b = ddg.AppendInt(b, int64(e.To))
		b = ddg.AppendInt(b, e.Latency)
		b = ddg.AppendInt(b, int64(e.Kind))
		b = append(b, e.Type...)
		b = append(b, 0)
		b = ddg.AppendInt(b, e.Dist)
	}
	return ddg.HexSum(b)
}
