package gen

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"regsat/internal/ddg"
	"regsat/internal/ir"
)

// Shrink delta-minimizes a failing graph: it repeatedly tries structural
// simplifications — dropping a node (with its incident edges), dropping an
// edge, flattening a latency to 1, zeroing a read/write offset — and keeps
// any change under which fails still returns true, until no single change
// reproduces the failure. fails must treat its argument as read-only and is
// called with finalized graphs only; candidates that fail to finalize are
// discarded, not reported.
//
// The predicate is typically "CheckAll reports the same invariant" (see
// FailsInvariant), so the minimized graph pins the bug, not just any bug.
func Shrink(g *ddg.Graph, fails func(*ddg.Graph) bool) *ddg.Graph {
	cur := specOf(g)
	for {
		improved := false
		// Pass 1: drop a node. Biggest single step, so it goes first.
		for i := 0; i < len(cur.nodes); i++ {
			if cand := cur.withoutNode(i); cand.accept(fails) {
				cur, improved = cand, true
				i-- // the slot now holds the next node
			}
		}
		// Pass 2: drop an edge.
		for i := 0; i < len(cur.edges); i++ {
			if cand := cur.withoutEdge(i); cand.accept(fails) {
				cur, improved = cand, true
				i--
			}
		}
		// Pass 3: flatten latencies and offsets.
		for i := range cur.nodes {
			if cur.nodes[i].lat > 1 {
				cand := cur.clone()
				cand.nodes[i].lat = 1
				for j := range cand.edges {
					if cand.edges[j].flow && cand.edges[j].from == i && cand.edges[j].lat == cur.nodes[i].lat {
						cand.edges[j].lat = 1 // keep default-latency flow edges default
					}
				}
				if cand.accept(fails) {
					cur, improved = cand, true
				}
			}
			if cur.nodes[i].dr != 0 {
				cand := cur.clone()
				cand.nodes[i].dr = 0
				if cand.accept(fails) {
					cur, improved = cand, true
				}
			}
			for k, w := range cur.nodes[i].writes {
				if w.DelayW != 0 {
					cand := cur.clone()
					cand.nodes[i].writes[k].DelayW = 0
					if cand.accept(fails) {
						cur, improved = cand, true
					}
				}
			}
		}
		for i := range cur.edges {
			if cur.edges[i].lat > 1 {
				cand := cur.clone()
				cand.edges[i].lat = 1
				if cand.accept(fails) {
					cur, improved = cand, true
				}
			}
		}
		if !improved {
			break
		}
	}
	out, err := cur.graph()
	if err != nil {
		return g // cannot happen for a spec that passed accept; be safe
	}
	return out
}

// FailsInvariant returns a Shrink predicate that holds when CheckAll reports
// a violation of the named invariant (any invariant if name is empty).
func FailsInvariant(ctx context.Context, name string, opt CheckOptions) func(*ddg.Graph) bool {
	return func(g *ddg.Graph) bool {
		err := CheckAll(ctx, g, opt)
		if err == nil {
			return false
		}
		v, ok := err.(*Violation)
		if !ok {
			return false // analysis-level error, not the tracked invariant
		}
		return name == "" || v.Invariant == name
	}
}

// WriteRepro persists a (typically shrunk) failing graph as a .ddg repro in
// dir, named after the violated invariant and the graph's structural
// fingerprint so re-finding the same bug is idempotent. The file carries the
// violation as comments; the regression replay test re-checks every file in
// the directory on every full test run.
func WriteRepro(dir string, v *Violation, g *ddg.Graph) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	fp := ir.Fingerprint(g)
	if len(fp) > 12 {
		fp = fp[:12]
	}
	name := fmt.Sprintf("%s-%s.ddg", v.Invariant, fp)
	path := filepath.Join(dir, name)
	var b strings.Builder
	fmt.Fprintf(&b, "# regression repro: invariant %s\n", v.Invariant)
	for _, line := range strings.Split(strings.TrimSpace(v.Error()), "\n") {
		fmt.Fprintf(&b, "# %s\n", line)
	}
	b.WriteString(g.Format())
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// spec is the mutable pre-finalize representation Shrink edits.
type spec struct {
	machine ddg.MachineKind
	nodes   []nodeSpec
	edges   []edgeSpec
}

type nodeSpec struct {
	name, op string
	lat      int64
	dr       int64
	writes   []ddg.Write
}

type edgeSpec struct {
	from, to int
	lat      int64
	flow     bool
	t        ddg.RegType
}

// specOf extracts the pre-finalize structure of g.
func specOf(g *ddg.Graph) *spec {
	limit := g.NumNodes()
	if b := g.Bottom(); b >= 0 {
		limit = b
	}
	s := &spec{machine: g.Machine}
	for i := 0; i < limit; i++ {
		n := g.Node(i)
		s.nodes = append(s.nodes, nodeSpec{name: n.Name, op: n.Op, lat: n.Latency, dr: n.DelayR, writes: slices.Clone(n.Writes)})
	}
	for _, e := range g.Edges() {
		if e.From >= limit || e.To >= limit {
			continue
		}
		s.edges = append(s.edges, edgeSpec{from: e.From, to: e.To, lat: e.Latency, flow: e.Kind == ddg.Flow, t: e.Type})
	}
	return s
}

func (s *spec) clone() *spec {
	c := &spec{machine: s.machine, nodes: make([]nodeSpec, len(s.nodes)), edges: append([]edgeSpec(nil), s.edges...)}
	for i, n := range s.nodes {
		c.nodes[i] = n
		c.nodes[i].writes = slices.Clone(n.writes)
	}
	return c
}

// withoutNode drops node i, its incident edges, and renumbers.
func (s *spec) withoutNode(i int) *spec {
	c := &spec{machine: s.machine}
	for j, n := range s.nodes {
		if j == i {
			continue
		}
		n.writes = slices.Clone(n.writes)
		c.nodes = append(c.nodes, n)
	}
	remap := func(id int) int {
		if id > i {
			return id - 1
		}
		return id
	}
	for _, e := range s.edges {
		if e.from == i || e.to == i {
			continue
		}
		e.from, e.to = remap(e.from), remap(e.to)
		c.edges = append(c.edges, e)
	}
	return c
}

func (s *spec) withoutEdge(i int) *spec {
	c := s.clone()
	c.edges = append(c.edges[:i], c.edges[i+1:]...)
	return c
}

// graph materializes the spec as a finalized DDG.
func (s *spec) graph() (*ddg.Graph, error) {
	if len(s.nodes) == 0 {
		return nil, fmt.Errorf("gen: empty spec")
	}
	g := ddg.New("shrunk", s.machine)
	for _, n := range s.nodes {
		id := g.AddNode(n.name, n.op, n.lat)
		if n.dr != 0 {
			g.SetReadDelay(id, n.dr)
		}
		for _, w := range n.writes {
			g.SetWrites(id, w.Type, w.DelayW)
		}
	}
	for _, e := range s.edges {
		if e.flow {
			if !g.Node(e.from).WritesType(e.t) {
				return nil, fmt.Errorf("gen: shrunk flow edge from non-writer")
			}
			if e.lat < 1 {
				return nil, fmt.Errorf("gen: shrunk flow edge latency < 1")
			}
			g.AddFlowEdgeLatency(e.from, e.to, e.t, e.lat)
		} else {
			if e.lat < 0 && !s.machine.HasOffsets() {
				return nil, fmt.Errorf("gen: negative serial latency on superscalar")
			}
			g.AddSerialEdge(e.from, e.to, e.lat)
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	return g, nil
}

// accept reports whether the candidate still reproduces the failure.
func (s *spec) accept(fails func(*ddg.Graph) bool) bool {
	g, err := s.graph()
	if err != nil {
		return false
	}
	return fails(g)
}
