package batch

import (
	"regsat/internal/ddg"
	"regsat/internal/ir"
)

// Fingerprint returns the structural hash of the graph the memo keys on. It is ir.Fingerprint: names are
// excluded, so repeated graphs that differ only in labeling share one memo
// entry and one analysis snapshot.
func Fingerprint(g *ddg.Graph) string { return ir.Fingerprint(g) }
