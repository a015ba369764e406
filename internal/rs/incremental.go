package rs

import (
	"math/bits"
	"sync"

	"regsat/internal/graph"
)

// Incremental is the incremental killing-function evaluator behind ExactBB
// and Greedy-k. It maintains, across a branch-and-bound dive:
//
//   - the all-pairs longest-path matrix of the *extended* graph G→k restricted
//     to the killers decided so far, updated in place when a decision pushes
//     enforcement arcs (delta propagation touches only the affected pairs:
//     sources reaching the arc tail × sinks reachable from the arc head);
//   - the lifetime order DV_k as one bitset row per value, grown monotonically
//     as decisions commit (adding arcs can only lengthen paths, so order bits
//     are only ever set, never cleared, along a dive);
//   - a maximum matching of the order's comparability graph, augmented in
//     place as pairs appear, so the Dilworth antichain bound (Bound) is O(1)
//     at every node and a witness antichain (AntichainMembers) is one König
//     sweep at incumbent improvements;
//   - a trail of per-decision frames so Pop restores every structure exactly.
//
// Compared to the previous per-node rebuild (a fresh digraph plus a full
// LongestAllPairs and matching solve per leaf and per bound evaluation), a
// Push costs O(|srcs|·|dsts|) per arc plus the Kuhn augmentations its new
// pairs admit, and a Pop is a plain undo-log replay.
//
// An Incremental is single-goroutine; the snapshot it reads from is shared.
type Incremental struct {
	an *Analysis
	n  int     // node count
	nv int     // value count
	d  []int64 // n×n row-major longest-path matrix of the current extension

	decided  []int   // killer node per value, -1 = undecided
	byKiller [][]int // node → stack of decided value indices using it as killer
	depth    int     // decided count

	less      []graph.BitSet // DV_k rows over value indices
	lessWords []uint64       // backing storage of the less rows

	// Incrementally maintained maximum matching of the order's comparability
	// bipartite graph (left copy a → right copy b per pair a < b). Dilworth:
	// the maximum antichain is nv − |matching|, so the branch-and-bound gets
	// its node bound without a per-node matching solve — pushes only add
	// order pairs, so the old matching stays valid and a one-pass Kuhn
	// augmentation from the unmatched vertices restores maximality.
	matchL, matchR []int
	matchSize      int
	rightSeen      []int64 // Kuhn DFS marks, stamped
	seenStamp      int64

	valIndex []int   // node → value index, -1 for non-values
	delayR   []int64 // node → δr
	delayW   []int64 // value index → δw

	trail      []frame
	cellArena  []cellDelta
	bitArena   []bitDelta
	matchArena []int

	// Cell-change dedup within one Push: touched[idx] == epoch marks a cell
	// whose pre-Push value is already on the frame.
	touched []int64
	epoch   int64

	srcs, dsts []int32 // scratch for delta propagation
}

type cellDelta struct {
	idx int
	old int64
}

type bitDelta struct{ i, j int32 }

// frame marks one decision on the undo trail. The deltas live in shared
// arenas on the evaluator (cellArena, bitArena, matchArena), each frame
// holding only its start offsets: pushes append, pops truncate, and no
// per-frame slices are allocated on the search's hot path.
type frame struct {
	value, killer int
	cellStart     int
	bitStart      int
	matchStart    int // offset into matchArena, -1 when no snapshot was taken
	oldMatchSize  int
}

// incPool recycles evaluators with all of their storage: the two n×n
// tables are most of what a cold Greedy-k run allocates. Everything in it
// was released by release and is owned by nobody.
var incPool = sync.Pool{New: func() any { return new(Incremental) }}

// maxPooledCells caps the n×n tables of a pooled evaluator (256 nodes,
// 512 KiB per table): a larger evaluator is left to the garbage collector,
// so one huge graph cannot pin its tables in the pool.
const maxPooledCells = 256 * 256

// testHookReleaseIncremental, when set, sees every evaluator release
// pools. Tests use it to poison released storage; it is nil in production.
var testHookReleaseIncremental func(ik *Incremental)

// NewIncremental returns an evaluator positioned at the empty decision (no
// killer chosen, the extension equals the base graph). Its storage may
// come from evaluators released earlier; an evaluator that is never
// released is simply collected.
func NewIncremental(an *Analysis) *Incremental {
	n := an.G.NumNodes()
	nv := len(an.Values)
	words := (nv + 63) / 64
	ik := incPool.Get().(*Incremental)
	*ik = Incremental{
		an:         an,
		n:          n,
		nv:         nv,
		d:          resize(ik.d, n*n),
		decided:    resize(ik.decided, nv),
		byKiller:   resize(ik.byKiller, n),
		less:       resize(ik.less, nv),
		lessWords:  resize(ik.lessWords, nv*words),
		matchL:     resize(ik.matchL, nv),
		matchR:     resize(ik.matchR, nv),
		rightSeen:  resize(ik.rightSeen, nv),
		valIndex:   resize(ik.valIndex, n),
		delayR:     resize(ik.delayR, n),
		delayW:     resize(ik.delayW, nv),
		trail:      ik.trail[:0],
		cellArena:  ik.cellArena[:0],
		bitArena:   ik.bitArena[:0],
		matchArena: ik.matchArena[:0],
		touched:    resize(ik.touched, n*n),
		srcs:       ik.srcs[:0],
		dsts:       ik.dsts[:0],
	}
	clear(ik.lessWords)
	clear(ik.rightSeen)
	clear(ik.touched)
	for u := 0; u < n; u++ {
		copy(ik.d[u*n:(u+1)*n], an.AP.D[u])
		ik.byKiller[u] = ik.byKiller[u][:0]
		ik.valIndex[u] = -1
		ik.delayR[u] = an.G.Node(u).DelayR
	}
	for i := range ik.decided {
		ik.decided[i] = -1
		ik.less[i] = ik.lessWords[i*words : (i+1)*words : (i+1)*words]
		ik.valIndex[an.Values[i]] = i
		ik.delayW[i] = an.DelayW(i)
		ik.matchL[i] = -1
		ik.matchR[i] = -1
	}
	return ik
}

// release returns ik to the pool, unless its tables (d and touched, sized
// together) exceed maxPooledCells. Nothing may touch ik afterwards; results
// taken from it (Killers, AntichainMembers) are copies and stay valid.
func (ik *Incremental) release() {
	if cap(ik.d) > maxPooledCells {
		return
	}
	ik.an = nil
	if testHookReleaseIncremental != nil {
		testHookReleaseIncremental(ik)
	}
	incPool.Put(ik)
}

// resize returns b resliced to length n, or a new slice when b is too small.
// The contents are stale.
func resize[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

// Depth returns the number of decided values.
func (ik *Incremental) Depth() int { return ik.depth }

// Killer returns the decided killer of value i, or -1.
func (ik *Incremental) Killer(i int) int { return ik.decided[i] }

// Killers returns a copy of the current killer assignment (-1 = undecided).
func (ik *Incremental) Killers() []int {
	return append([]int(nil), ik.decided...)
}

// Push decides killer for value i: it adds the enforcement arcs
// (v′, killer) for every other potential killer v′, propagates the longest
// -path deltas, and extends the DV_k order rows. It reports false — leaving
// the evaluator unchanged — when the arcs would close a cycle (an invalid
// killing function, possible on VLIW/EPIC offsets only).
func (ik *Incremental) Push(i, killer int) bool {
	fr := frame{value: i, killer: killer,
		cellStart: len(ik.cellArena), bitStart: len(ik.bitArena), matchStart: -1}
	ik.epoch++
	for _, other := range ik.an.PKill[i] {
		if other == killer {
			continue
		}
		if !ik.addArc(other, killer, ik.delayR[other]-ik.delayR[killer]) {
			// Cycle: undo the cells of the arcs already applied.
			for _, c := range ik.cellArena[fr.cellStart:] {
				ik.d[c.idx] = c.old
			}
			ik.cellArena = ik.cellArena[:fr.cellStart]
			return false
		}
	}
	ik.updateOrder(i, killer, &fr)
	if len(ik.bitArena) > fr.bitStart {
		// New comparability edges: snapshot the matching, then restore
		// maximality with one Kuhn pass from the unmatched left vertices
		// (a vertex with no augmenting path before other augmentations has
		// none after them either, so one attempt each suffices).
		fr.matchStart = len(ik.matchArena)
		fr.oldMatchSize = ik.matchSize
		ik.matchArena = append(ik.matchArena, ik.matchL...)
		ik.matchArena = append(ik.matchArena, ik.matchR...)
		for a := 0; a < ik.nv; a++ {
			if ik.matchL[a] < 0 {
				ik.seenStamp++
				if ik.kuhnAugment(a) {
					ik.matchSize++
				}
			}
		}
	}
	ik.decided[i] = killer
	ik.byKiller[killer] = append(ik.byKiller[killer], i)
	ik.depth++
	ik.trail = append(ik.trail, fr)
	return true
}

// Pop undoes the most recent Push.
func (ik *Incremental) Pop() {
	fr := ik.trail[len(ik.trail)-1]
	ik.trail = ik.trail[:len(ik.trail)-1]
	for _, b := range ik.bitArena[fr.bitStart:] {
		ik.less[b.i].Clear(int(b.j))
	}
	ik.bitArena = ik.bitArena[:fr.bitStart]
	for _, c := range ik.cellArena[fr.cellStart:] {
		ik.d[c.idx] = c.old
	}
	ik.cellArena = ik.cellArena[:fr.cellStart]
	if fr.matchStart >= 0 {
		copy(ik.matchL, ik.matchArena[fr.matchStart:fr.matchStart+ik.nv])
		copy(ik.matchR, ik.matchArena[fr.matchStart+ik.nv:fr.matchStart+2*ik.nv])
		ik.matchSize = fr.oldMatchSize
		ik.matchArena = ik.matchArena[:fr.matchStart]
	}
	ik.decided[fr.value] = -1
	s := ik.byKiller[fr.killer]
	ik.byKiller[fr.killer] = s[:len(s)-1]
	ik.depth--
}

// kuhnAugment searches an augmenting path from unmatched left vertex a over
// the order's comparability edges (the bitset rows), flipping the matching
// along it. Right-vertex marks are stamped per attempt.
func (ik *Incremental) kuhnAugment(a int) bool {
	for wi, w := range ik.less[a] {
		for w != 0 {
			b := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if ik.rightSeen[b] == ik.seenStamp {
				continue
			}
			ik.rightSeen[b] = ik.seenStamp
			if ik.matchR[b] < 0 || ik.kuhnAugment(ik.matchR[b]) {
				ik.matchL[a] = b
				ik.matchR[b] = a
				return true
			}
		}
	}
	return false
}

// Bound returns the maximum antichain size of the current partial order —
// by Dilworth, nv minus the maintained maximum matching — in O(1).
func (ik *Incremental) Bound() int { return ik.nv - ik.matchSize }

// AntichainMembers recovers one maximum antichain of the current order from
// the maintained matching via König's theorem (alternating reachability from
// the unmatched left vertices; the antichain is the elements visited on the
// left and not on the right). Only called on incumbent improvements, so it
// allocates its scratch locally.
func (ik *Incremental) AntichainMembers() []int {
	visitL := make([]bool, ik.nv)
	visitR := make([]bool, ik.nv)
	stack := make([]int, 0, ik.nv)
	for a := 0; a < ik.nv; a++ {
		if ik.matchL[a] < 0 {
			visitL[a] = true
			stack = append(stack, a)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for wi, w := range ik.less[u] {
			for w != 0 {
				b := wi*64 + bits.TrailingZeros64(w)
				w &= w - 1
				if visitR[b] || ik.matchL[u] == b {
					continue
				}
				visitR[b] = true
				if x := ik.matchR[b]; x >= 0 && !visitL[x] {
					visitL[x] = true
					stack = append(stack, x)
				}
			}
		}
	}
	var members []int
	for a := 0; a < ik.nv; a++ {
		if visitL[a] && !visitR[a] {
			members = append(members, a)
		}
	}
	return members
}

// addArc merges one enforcement arc a→b of weight w into the matrix. A new
// longest path through the arc decomposes as u ⇝ a, (a,b), b ⇝ v with both
// halves in the pre-arc graph, so the update is exact per arc and arcs of
// one Push compose by sequential application. Returns false on a cycle
// (b already reaches a).
func (ik *Incremental) addArc(a, b int, w int64) bool {
	n := ik.n
	if ik.d[b*n+a] != graph.NoPath {
		return false // a→b would close a cycle through the existing b ⇝ a
	}
	ik.srcs = ik.srcs[:0]
	ik.dsts = ik.dsts[:0]
	for u := 0; u < n; u++ {
		if ik.d[u*n+a] != graph.NoPath {
			ik.srcs = append(ik.srcs, int32(u))
		}
	}
	rowB := ik.d[b*n : (b+1)*n]
	for v := 0; v < n; v++ {
		if rowB[v] != graph.NoPath {
			ik.dsts = append(ik.dsts, int32(v))
		}
	}
	for _, u32 := range ik.srcs {
		u := int(u32)
		base := ik.d[u*n+a] + w
		rowU := ik.d[u*n : (u+1)*n]
		for _, v32 := range ik.dsts {
			v := int(v32)
			if cand := base + rowB[v]; cand > rowU[v] {
				idx := u*n + v
				if ik.touched[idx] != ik.epoch {
					ik.touched[idx] = ik.epoch
					ik.cellArena = append(ik.cellArena, cellDelta{idx: idx, old: rowU[v]})
				}
				rowU[v] = cand
			}
		}
	}
	return true
}

// updateOrder extends the DV_k bitset rows after the arcs of a decision have
// been merged: the freshly decided value gets its full row, and rows of
// earlier decisions gain exactly the pairs whose deciding longest path grew
// (found from the changed cells, not by rescanning the matrix).
func (ik *Incremental) updateOrder(i, killer int, fr *frame) {
	n := ik.n
	// Pairs of previously decided values whose lp(k(i′), v_j) changed.
	for ci := fr.cellStart; ci < len(ik.cellArena); ci++ {
		c := ik.cellArena[ci]
		u, v := c.idx/n, c.idx%n
		j := ik.valIndex[v]
		if j < 0 {
			continue
		}
		lp := ik.d[c.idx]
		for _, ip := range ik.byKiller[u] {
			if ip == j || ik.less[ip].Get(j) {
				continue
			}
			if lp >= ik.delayR[u]-ik.delayW[j] {
				ik.less[ip].Set(j)
				ik.bitArena = append(ik.bitArena, bitDelta{int32(ip), int32(j)})
			}
		}
	}
	// Full row of the freshly decided value i.
	kRead := ik.delayR[killer]
	rowK := ik.d[killer*n : (killer+1)*n]
	for j, vj := range ik.an.Values {
		if j == i {
			continue
		}
		lp := rowK[vj]
		if lp == graph.NoPath || lp < kRead-ik.delayW[j] {
			continue
		}
		if !ik.less[i].Get(j) {
			ik.less[i].Set(j)
			ik.bitArena = append(ik.bitArena, bitDelta{int32(i), int32(j)})
		}
	}
}

// Antichain computes the full maximum-antichain result (with chain cover)
// of the current partial order from scratch. The search itself never needs
// it — Bound and AntichainMembers come from the maintained matching — but
// oracle tests compare against this complete solve.
func (ik *Incremental) Antichain() *graph.AntichainResult {
	return graph.OrderFromRows(ik.less).MaximumAntichain()
}

// LongestPath returns the longest path u ⇝ v in the current extension.
func (ik *Incremental) LongestPath(u, v int) int64 { return ik.d[u*ik.n+v] }

// Less reports whether value i's lifetime provably ends before value j's
// starts under the decisions made so far.
func (ik *Incremental) Less(i, j int) bool { return i != j && ik.less[i].Get(j) }
