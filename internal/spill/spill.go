// Package spill inserts spill code at the data dependence graph level — the
// future work the paper's conclusion calls for ("the minimal spill code
// insertion in data dependence graphs … must be taken into account at the
// data dependence graph level in order to break this iterative problem").
//
// When RS reduction reports that no serialization can bring the saturation
// below the register budget, a value is chosen and split through memory: a
// store ends its register lifetime early and a reload re-materializes it
// for its consumers. The transformed DDG is then re-analyzed; the loop runs
// at the DDG level only — no schedule is ever patched, which is exactly the
// iterative scheduling-then-spilling problem the paper wants broken.
package spill

import (
	"context"
	"fmt"
	"sort"

	"regsat/internal/ddg"
	"regsat/internal/reduce"
	"regsat/internal/rs"
)

// Latencies of the inserted memory operations (match the kernel suite).
const (
	StoreLatency  = 1
	ReloadLatency = 4
)

// Site records one inserted spill.
type Site struct {
	// Value is the name of the spilled value's defining node.
	Value string
	// Store and Reload are the names of the inserted operations.
	Store, Reload string
}

// Result is the outcome of UntilFits.
type Result struct {
	// Graph is the transformed DDG (spill code inserted), reduced to the
	// budget when Failed is false.
	Graph *ddg.Graph
	// Sites lists the inserted spills in order.
	Sites []Site
	// RS is the saturation of the final graph (Greedy-k estimate).
	RS int
	// Arcs counts serialization arcs added by the final reduction.
	Arcs int
	// Failed is true when even spilling cannot reach the budget (e.g. an
	// operation's operands alone exceed it).
	Failed bool
}

// UntilFits alternates RS reduction and spill insertion until the
// saturation fits the budget or no further spill helps. maxSpills bounds
// the number of inserted store/reload pairs (0 = number of values).
func UntilFits(ctx context.Context, g *ddg.Graph, t ddg.RegType, available int, maxSpills int) (*Result, error) {
	if maxSpills == 0 {
		maxSpills = len(g.Values(t))
	}
	res := &Result{Graph: g}
	spilled := map[string]bool{}
	var sat *rs.Result
	for {
		// One Greedy-k result of the current graph seeds the reduction and,
		// when that fails, picks the spill candidate among its saturating
		// values.
		var err error
		sat, err = rs.Compute(ctx, res.Graph, t, rs.Options{Method: rs.MethodGreedy, SkipWitness: true})
		if err != nil {
			return nil, err
		}
		red, err := reduce.HeuristicFrom(ctx, res.Graph, sat, t, available)
		if err != nil {
			return nil, err
		}
		if !red.Spill {
			res.Graph = red.Graph
			res.RS = red.RS
			res.Arcs = len(red.Arcs)
			return res, nil
		}
		if len(res.Sites) == maxSpills {
			break
		}
		cand := chooseCandidate(res.Graph, t, sat.Antichain, spilled)
		if cand < 0 {
			break // nothing spillable remains
		}
		name := res.Graph.Node(cand).Name
		next, site, err := insertSpill(res.Graph, t, cand, len(res.Sites))
		if err != nil {
			return nil, err
		}
		spilled[name] = true
		spilled[site.Reload] = true // never re-spill a reload
		res.Graph = next
		res.Sites = append(res.Sites, site)
	}
	// Out of spill budget: report the best we know.
	res.RS = sat.RS
	res.Failed = true
	return res, nil
}

// chooseCandidate picks the value whose spilling frees the most pressure.
// Three candidate pools are tried in order:
//
//  1. computed (non-load) values inside the saturating antichain,
//  2. computed values anywhere in the graph — the pressure bottleneck of
//     the *minimum* schedule need not sit inside the saturating antichain
//     (e.g. reduction trees, whose Sethi–Ullman need comes from inner
//     nodes while the saturating set is all leaves),
//  3. loads in the antichain as a last resort (a reload is just the same
//     load again, so this almost never helps).
//
// Within a pool: most real consumers first, then the longest-latency
// definition, then node order. Already-spilled values and exit-only values
// are excluded.
func chooseCandidate(g *ddg.Graph, t ddg.RegType, antichain []int, spilled map[string]bool) int {
	inAntichain := map[int]bool{}
	for _, u := range antichain {
		inAntichain[u] = true
	}
	allValues := g.Values(t)
	sort.Ints(allValues)
	pools := []func(u int) bool{
		func(u int) bool { return inAntichain[u] && !rematerializable(g, u) },
		func(u int) bool { return !rematerializable(g, u) },
		func(u int) bool { return inAntichain[u] },
	}
	for _, pool := range pools {
		best, bestCons, bestLat := -1, -1, int64(-1)
		for _, u := range allValues {
			n := g.Node(u)
			if spilled[n.Name] || !pool(u) {
				continue
			}
			realCons := 0
			for _, c := range g.Cons(u, t) {
				if c != g.Bottom() {
					realCons++
				}
			}
			if realCons == 0 {
				continue // exit value: a spill would not shorten anything local
			}
			if realCons > bestCons || (realCons == bestCons && n.Latency > bestLat) {
				best, bestCons, bestLat = u, realCons, n.Latency
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

func rematerializable(g *ddg.Graph, u int) bool {
	op := g.Node(u).Op
	return op == "load" || op == "entry"
}

// insertSpill rebuilds the graph with value u split through memory:
//
//	u → store;   store →(serial, store+reload delay) reload;
//	reload → every original consumer of u.
func insertSpill(g *ddg.Graph, t ddg.RegType, u int, seq int) (*ddg.Graph, Site, error) {
	bottom := g.Bottom()
	out := ddg.New(g.Name, g.Machine)
	// Copy every node except ⊥, preserving IDs (⊥ is always last).
	for i := 0; i < g.NumNodes(); i++ {
		if i == bottom {
			continue
		}
		n := g.Node(i)
		id := out.AddNode(n.Name, n.Op, n.Latency)
		if n.DelayR != 0 {
			out.SetReadDelay(id, n.DelayR)
		}
		for _, w := range n.Writes {
			out.SetWrites(id, w.Type, w.DelayW)
		}
	}
	site := Site{
		Value:  g.Node(u).Name,
		Store:  fmt.Sprintf("spst%d.%s", seq, g.Node(u).Name),
		Reload: fmt.Sprintf("spld%d.%s", seq, g.Node(u).Name),
	}
	st := out.AddNode(site.Store, "store", StoreLatency)
	ld := out.AddNode(site.Reload, "load", ReloadLatency)
	var dwReload int64
	if g.Machine == ddg.VLIW {
		dwReload = ReloadLatency
	}
	out.SetWrites(ld, t, dwReload)

	// Copy edges, rerouting u's type-t flow edges through the reload.
	for _, e := range g.Edges() {
		if e.From == bottom || e.To == bottom {
			continue
		}
		if e.Kind == ddg.Flow && e.From == u && e.Type == t {
			out.AddFlowEdgeLatency(ld, e.To, t, ReloadLatency)
			continue
		}
		if e.Kind == ddg.Flow {
			out.AddFlowEdgeLatency(e.From, e.To, e.Type, e.Latency)
		} else {
			out.AddSerialEdge(e.From, e.To, e.Latency)
		}
	}
	// The value now flows only into its store; the reload waits for the
	// store to complete (memory round trip).
	out.AddFlowEdgeLatency(u, st, t, g.Node(u).Latency)
	out.AddSerialEdge(st, ld, StoreLatency)
	if err := out.Finalize(); err != nil {
		return nil, site, err
	}
	return out, site, nil
}
