package ir

import "regsat/internal/ddg"

// Fingerprint returns a structural hash of the graph: two graphs with the
// same fingerprint have identical machine kind, node count, per-node
// latencies, read/write offsets and written types, and identical edge lists
// over the same node IDs. Node and graph *names* are deliberately excluded —
// no analysis artifact depends on them — so repeated graphs that differ only
// in labeling (e.g. the same random DAG emitted under two seeds, or one
// kernel loaded from two files) share one batch memo entry and snapshot.
//
// The encoding walks nodes by ID and edges in stored order, so it is
// deterministic for a given graph; structurally equal graphs built with a
// different edge insertion order may hash differently, which only costs a
// missed sharing opportunity, never a wrong one.
func Fingerprint(g *ddg.Graph) string {
	var arr [2048]byte // the encoding of a graph of a few dozen nodes
	b := arr[:0]
	b = ddg.AppendInt(b, int64(g.Machine))
	b = ddg.AppendInt(b, int64(g.NumNodes()))
	b = ddg.AppendInt(b, int64(g.Bottom()))
	nodes := g.Nodes()
	for i := range nodes {
		b = ddg.AppendNodeKey(b, &nodes[i])
	}
	b = ddg.AppendInt(b, int64(g.NumEdges()))
	for _, e := range g.Edges() {
		b = ddg.AppendInt(b, int64(e.From))
		b = ddg.AppendInt(b, int64(e.To))
		b = ddg.AppendInt(b, e.Latency)
		b = ddg.AppendInt(b, int64(e.Kind))
		b = append(b, e.Type...)
		b = append(b, 0)
	}
	return ddg.HexSum(b)
}
