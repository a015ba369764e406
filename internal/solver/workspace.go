package solver

import (
	"sync"

	"regsat/internal/lp"
)

// workspace is the recycled storage of one solve: presolve's flat copy of
// the model, the postsolve map, the sparse problem presolve emits, and the
// search's per-column scratch. solve takes one from wsPool and releases it
// on every return path, after the tableaux that point into its problem;
// the returned Solution owns none of it. The contents are stale when a
// workspace comes out of the pool: every user overwrites (or clears) what
// it reads.
type workspace struct {
	// Presolve's flat copy of the model: column bounds (lo then hi), flags
	// (integer then fixed), the term arena, the row headers, and the
	// duplicate-row hash table.
	bounds []float64
	flags  []bool
	terms  []lp.Term
	rows   []prow
	table  []int32

	// ps is the presolve outcome, with the postsolve map (colMap, fixed).
	ps presolved
	// p is the emitted problem. Root cut separation appends rows to grown
	// copies of it; the longest arrays come back at release.
	p prob

	// The search's scratch: the node bounds and LP point, and the
	// pseudo-cost sums and counts.
	lo, hi, x      []float64
	pcDown, pcUp   []float64
	pcDownN, pcUpN []int32
}

// wsPool recycles solve workspaces. Everything in it was released by
// releaseWorkspace and is owned by nobody.
var wsPool = sync.Pool{New: func() any { return new(workspace) }}

// testHookReleaseWorkspace, when set, sees every workspace releaseWorkspace
// pools. Tests use it to poison released storage; it is nil in production.
var testHookReleaseWorkspace func(ws *workspace)

// releaseWorkspace returns ws to the pool; final is the problem the search
// ran on (ws.p or a copy grown by cut rows, whose arrays then supersede
// ws.p's: a grown copy only appends). Nothing may touch ws afterwards.
func releaseWorkspace(ws *workspace, final *prob) {
	if final != nil && final != &ws.p {
		ws.p.rowPtr, ws.p.rowCol, ws.p.rowVal = final.rowPtr, final.rowCol, final.rowVal
		ws.p.rhs, ws.p.rel = final.rhs, final.rel
		ws.p.slackLo, ws.p.slackHi = final.slackLo, final.slackHi
	}
	ws.ps.p = nil
	if testHookReleaseWorkspace != nil {
		testHookReleaseWorkspace(ws)
	}
	wsPool.Put(ws)
}

// searchScratch sizes the search's scratch for n columns, the pseudo-cost
// statistics cleared.
func (ws *workspace) searchScratch(n int) {
	ws.lo, ws.hi, ws.x = resize(ws.lo, n), resize(ws.hi, n), resize(ws.x, n)
	ws.pcDown, ws.pcUp = resize(ws.pcDown, n), resize(ws.pcUp, n)
	ws.pcDownN, ws.pcUpN = resize(ws.pcDownN, n), resize(ws.pcUpN, n)
	clear(ws.pcDown)
	clear(ws.pcUp)
	clear(ws.pcDownN)
	clear(ws.pcUpN)
}
