package gen

import (
	"fmt"
	"math/rand"

	"regsat/internal/ddg"
)

// The builders below only ever add edges from lower to higher node IDs, so
// every generated graph is a DAG by construction; Finalize appends ⊥ and
// validates the rest of the model invariants.

// pickType draws a register type from the mix.
func pickType(p Params, rng *rand.Rand) ddg.RegType {
	return p.Types[rng.Intn(len(p.Types))]
}

// addValueNode appends an operation that writes a value of type t, drawing
// machine offsets where the model exposes them (δr on VLIW/EPIC, δw on VLIW;
// EPIC writers are statically at offset 0 because a writer and a reader may
// share an instruction group).
func addValueNode(g *ddg.Graph, p Params, rng *rand.Rand, name, op string, lat int64, t ddg.RegType) int {
	id := g.AddNode(name, op, lat)
	if p.Machine.HasOffsets() {
		g.SetReadDelay(id, rng.Int63n(3))
	}
	var dw int64
	if p.Machine == ddg.VLIW {
		dw = rng.Int63n(3)
	}
	g.SetWrites(id, t, dw)
	return id
}

// latIn draws a latency in [1, max].
func latIn(rng *rand.Rand, max int64) int64 { return 1 + rng.Int63n(max) }

// unrollFamily models an unrolled loop body: Width ops per iteration chained
// by flow dependences, Size iterations laid out back to back, a recurrence
// carrying the last value of each iteration into the head of the next, and
// (with probability Density per op) extra loop-carried dependences between
// the same op of adjacent iterations — the shape loop unrolling produces and
// the one where saturation grows with the unroll factor.
var unrollFamily = &Family{
	Name:        "unroll",
	Description: "unrolled loop chains with cross-iteration recurrences",
	SizeName:    "unroll factor (iterations)",
	WidthName:   "operations per iteration body",
	SizeRange:   [2]int{1, 256},
	WidthRange:  [2]int{1, 64},
	Defaults:    Params{Size: 4, Width: 3, Density: 0.3},
	build: func(g *ddg.Graph, p Params, rng *rand.Rand) {
		ids := make([][]int, p.Size)
		for i := 0; i < p.Size; i++ {
			ids[i] = make([]int, p.Width)
			for j := 0; j < p.Width; j++ {
				t := p.Types[(i*p.Width+j)%len(p.Types)]
				id := addValueNode(g, p, rng, fmt.Sprintf("i%d_b%d", i, j), "body", latIn(rng, 4), t)
				ids[i][j] = id
				if j > 0 {
					g.AddFlowEdge(ids[i][j-1], id, typeOf(g, ids[i][j-1]))
				}
			}
			if i > 0 {
				// The recurrence: last value of iteration i-1 feeds the head
				// of iteration i.
				last := ids[i-1][p.Width-1]
				g.AddFlowEdge(last, ids[i][0], typeOf(g, last))
				// Extra loop-carried dependences op j → op j of the next
				// iteration.
				for j := 0; j < p.Width; j++ {
					if rng.Float64() < p.Density && ids[i-1][j] != last {
						g.AddFlowEdge(ids[i-1][j], ids[i][j], typeOf(g, ids[i-1][j]))
					}
				}
			}
		}
	},
}

// typeOf returns the single register type node u writes (families write
// exactly one type per node).
func typeOf(g *ddg.Graph, u int) ddg.RegType {
	for _, w := range g.Node(u).Writes {
		return w.Type
	}
	panic(fmt.Sprintf("gen: node %d writes no value", u))
}

// gridFamily models a tiled 2D computation (stencils, the Tiling Perspective
// report's grids): node (r,c) consumes the values of (r-1,c) and (r,c-1),
// plus the diagonal (r-1,c-1) with probability Density. Register pressure
// rides the anti-diagonal wavefront, which neither chains nor random layered
// DAGs exhibit.
var gridFamily = &Family{
	Name:        "grid",
	Description: "tiling-style 2D grid graphs (stencil wavefronts)",
	SizeName:    "grid rows",
	WidthName:   "grid columns",
	SizeRange:   [2]int{1, 64},
	WidthRange:  [2]int{1, 64},
	Defaults:    Params{Size: 3, Width: 3, Density: 0.25},
	build: func(g *ddg.Graph, p Params, rng *rand.Rand) {
		ids := make([][]int, p.Size)
		for r := 0; r < p.Size; r++ {
			ids[r] = make([]int, p.Width)
			for c := 0; c < p.Width; c++ {
				t := p.Types[(r+c)%len(p.Types)]
				id := addValueNode(g, p, rng, fmt.Sprintf("g%d_%d", r, c), "cell", latIn(rng, 3), t)
				ids[r][c] = id
				if r > 0 {
					g.AddFlowEdge(ids[r-1][c], id, typeOf(g, ids[r-1][c]))
				}
				if c > 0 {
					g.AddFlowEdge(ids[r][c-1], id, typeOf(g, ids[r][c-1]))
				}
				if r > 0 && c > 0 && rng.Float64() < p.Density {
					g.AddFlowEdge(ids[r-1][c-1], id, typeOf(g, ids[r-1][c-1]))
				}
			}
		}
	},
}

// superblockFamily models a superblock trace: Size blocks, each a head value
// fanning out to Width parallel compute ops that fan back into a join, with
// joins chained across blocks; side serial edges (probability Density) model
// the trace's side exits, which constrain scheduling without carrying
// values. High fan-in/fan-out gives values many potential killers — the
// worst case for the killing-function search.
var superblockFamily = &Family{
	Name:        "superblock",
	Description: "superblock traces: fan-out/fan-in blocks with side exits",
	SizeName:    "blocks in the trace",
	WidthName:   "parallel operations per block",
	SizeRange:   [2]int{1, 64},
	WidthRange:  [2]int{1, 32},
	Defaults:    Params{Size: 2, Width: 3, Density: 0.3},
	build: func(g *ddg.Graph, p Params, rng *rand.Rand) {
		prevJoin := -1
		var prevBranches []int
		for b := 0; b < p.Size; b++ {
			headT := p.Types[b%len(p.Types)]
			head := addValueNode(g, p, rng, fmt.Sprintf("b%d_head", b), "head", latIn(rng, 3), headT)
			if prevJoin >= 0 {
				g.AddFlowEdge(prevJoin, head, typeOf(g, prevJoin))
			}
			// Side exits: a branch op of the previous block must complete
			// before this block's region is entered — a serial constraint,
			// no value flows.
			for _, id := range prevBranches {
				if rng.Float64() < p.Density {
					g.AddSerialEdge(id, head, 1)
				}
			}
			branches := make([]int, p.Width)
			for w := 0; w < p.Width; w++ {
				t := p.Types[(b+w)%len(p.Types)]
				id := addValueNode(g, p, rng, fmt.Sprintf("b%d_op%d", b, w), "calc", latIn(rng, 4), t)
				branches[w] = id
				g.AddFlowEdge(head, id, headT)
			}
			join := addValueNode(g, p, rng, fmt.Sprintf("b%d_join", b), "join", latIn(rng, 3), headT)
			for _, id := range branches {
				g.AddFlowEdge(id, join, typeOf(g, id))
			}
			prevJoin, prevBranches = join, branches
		}
	},
}

// exprtreeFamily models GPU-style deep expression trees (the min-register
// scheduling workloads): a full Width-ary reduction tree of depth Size,
// leaves as loads and inner nodes combining their children's values. With
// probability Density a leaf value is reused by one extra inner node
// (common-subexpression reuse), which widens its killer set.
var exprtreeFamily = &Family{
	Name:        "exprtree",
	Description: "deep k-ary expression/reduction trees (GPU-like kernels)",
	SizeName:    "tree depth",
	WidthName:   "arity (children per inner node)",
	SizeRange:   [2]int{1, 10},
	WidthRange:  [2]int{2, 8},
	Defaults:    Params{Size: 3, Width: 2, Density: 0.2},
	build: func(g *ddg.Graph, p Params, rng *rand.Rand) {
		// Leaves first (lowest IDs), then level by level up to the root, so
		// child IDs are always below parent IDs.
		leaves := 1
		for d := 0; d < p.Size; d++ {
			leaves *= p.Width
		}
		level := make([]int, leaves)
		for i := range level {
			t := p.Types[i%len(p.Types)]
			level[i] = addValueNode(g, p, rng, fmt.Sprintf("leaf%d", i), "load", latIn(rng, 4), t)
		}
		var inner []int
		depth := 0
		for len(level) > 1 {
			depth++
			next := make([]int, len(level)/p.Width)
			for i := range next {
				t := p.Types[(depth+i)%len(p.Types)]
				id := addValueNode(g, p, rng, fmt.Sprintf("d%d_n%d", depth, i), "comb", latIn(rng, 3), t)
				for c := 0; c < p.Width; c++ {
					child := level[i*p.Width+c]
					g.AddFlowEdge(child, id, typeOf(g, child))
				}
				next[i] = id
				inner = append(inner, id)
			}
			level = next
		}
		// Common-subexpression reuse: some leaves feed one extra inner node.
		for leaf := 0; leaf < leaves && len(inner) > 0; leaf++ {
			if rng.Float64() < p.Density {
				target := inner[rng.Intn(len(inner))]
				g.AddFlowEdge(leaf, target, typeOf(g, leaf))
			}
		}
	},
}

// layeredFamily is the controllable random baseline: Size layers of Width
// nodes, forward edges between consecutive layers with probability Density
// (plus sparser skip-layer edges), and a register-type mix with occasional
// non-writing (pure serial) nodes — the knob-heavy family for sweeping
// width × density × type-mix interactions.
var layeredFamily = &Family{
	Name:        "layered",
	Description: "layered random DAGs with width/density/type-mix knobs",
	SizeName:    "layers",
	WidthName:   "nodes per layer",
	SizeRange:   [2]int{1, 128},
	WidthRange:  [2]int{1, 64},
	Defaults:    Params{Size: 3, Width: 3, Density: 0.4},
	build: func(g *ddg.Graph, p Params, rng *rand.Rand) {
		layers := make([][]int, p.Size)
		writes := map[int]bool{}
		for l := 0; l < p.Size; l++ {
			layers[l] = make([]int, p.Width)
			for w := 0; w < p.Width; w++ {
				name := fmt.Sprintf("l%d_n%d", l, w)
				lat := latIn(rng, 4)
				// Mostly writers; ~1 in 7 is a pure serial op (stores,
				// branches). The first node always writes, so Generate's
				// at-least-one-value contract holds at every size.
				if l+w > 0 && rng.Intn(7) == 0 {
					id := g.AddNode(name, "store", lat)
					if p.Machine.HasOffsets() {
						g.SetReadDelay(id, rng.Int63n(3))
					}
					layers[l][w] = id
				} else {
					layers[l][w] = addValueNode(g, p, rng, name, "op", lat, pickType(p, rng))
					writes[layers[l][w]] = true
				}
			}
		}
		connect := func(u, v int) {
			if writes[u] {
				g.AddFlowEdge(u, v, typeOf(g, u))
			} else {
				g.AddSerialEdge(u, v, g.Node(u).Latency)
			}
		}
		for l := 1; l < p.Size; l++ {
			for _, v := range layers[l] {
				for _, u := range layers[l-1] {
					if rng.Float64() < p.Density {
						connect(u, v)
					}
				}
				if l >= 2 {
					for _, u := range layers[l-2] {
						if rng.Float64() < p.Density/3 {
							connect(u, v)
						}
					}
				}
			}
		}
	},
}
