package schedule

import (
	"fmt"
	"sort"

	"regsat/internal/ddg"
	"regsat/internal/ir"
)

// Resources describes the functional units of the target machine for the
// post-RS instruction scheduling pass. Operations are fully pipelined: each
// op occupies one unit of its class for one cycle at issue.
type Resources struct {
	// IssueWidth caps the number of operations issued per cycle (0 = no cap).
	IssueWidth int
	// Units maps a functional-unit class to its unit count. Classes absent
	// from the map are unlimited.
	Units map[string]int
	// ClassOf maps an op mnemonic to its unit class; nil uses DefaultClassOf.
	ClassOf func(op string) string
}

// DefaultClassOf maps the kernel-suite mnemonics onto four classic classes:
// mem, falu, fmul (mul/div), and ialu.
func DefaultClassOf(op string) string {
	switch op {
	case "load", "store":
		return "mem"
	case "fadd", "fsub", "copy", "fldc":
		return "falu"
	case "fmul", "fdiv":
		return "fmul"
	case "iadd", "isub", "imul", "ldc":
		return "ialu"
	default:
		return "other"
	}
}

// TypicalVLIW returns a 4-issue machine with 2 memory ports, 2 float ALUs,
// 1 multiplier and 2 integer ALUs.
func TypicalVLIW() Resources {
	return Resources{
		IssueWidth: 4,
		Units:      map[string]int{"mem": 2, "falu": 2, "fmul": 1, "ialu": 2},
	}
}

// List computes a resource-constrained list schedule of g using critical-
// path-to-⊥ priorities. The result is always valid w.r.t. dependences and
// resources; it is the schedule a compiler would run *after* the RS pass
// freed it from register constraints.
func List(g *ddg.Graph, res Resources) (*Schedule, error) {
	classOf := res.ClassOf
	if classOf == nil {
		classOf = DefaultClassOf
	}
	snap, err := ir.Build(g)
	if err != nil {
		return nil, err
	}
	order := snap.Topo
	// Priority: longest path from the node to anywhere (critical path tail).
	tail := make([]int64, g.NumNodes())
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		dst, wt := snap.Fwd.Row(u)
		for j, to := range dst {
			if t := tail[to] + wt[j]; t > tail[u] {
				tail[u] = t
			}
		}
	}

	times := make([]int64, g.NumNodes())
	scheduled := make([]bool, g.NumNodes())
	ready := make([]int64, g.NumNodes()) // earliest legal issue time
	remaining := g.NumNodes()
	used := map[int64]map[string]int{} // cycle → class → units used
	issued := map[int64]int{}          // cycle → ops issued

	for remaining > 0 {
		// Collect schedulable nodes (all predecessors scheduled).
		var candidates []int
		for _, u := range order {
			if scheduled[u] {
				continue
			}
			ok := true
			earliest := int64(0)
			dst, wt := snap.Rev.Row(u)
			for j, from := range dst {
				if !scheduled[from] {
					ok = false
					break
				}
				if t := times[from] + wt[j]; t > earliest {
					earliest = t
				}
			}
			if ok {
				if earliest < 0 {
					earliest = 0 // negative serialization latencies cannot pull before cycle 0
				}
				ready[u] = earliest
				candidates = append(candidates, u)
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("schedule: list scheduler stuck (cycle?) in %s", g.Name)
		}
		// Highest priority first; ties by ready time then index.
		sort.Slice(candidates, func(i, j int) bool {
			a, b := candidates[i], candidates[j]
			if tail[a] != tail[b] {
				return tail[a] > tail[b]
			}
			if ready[a] != ready[b] {
				return ready[a] < ready[b]
			}
			return a < b
		})
		u := candidates[0]
		class := classOf(g.Node(u).Op)
		t := ready[u]
		for {
			classOK := true
			if limit, bounded := res.Units[class]; bounded && used[t][class] >= limit {
				classOK = false
			}
			if res.IssueWidth > 0 && issued[t] >= res.IssueWidth {
				classOK = false
			}
			if classOK {
				break
			}
			t++
		}
		times[u] = t
		if used[t] == nil {
			used[t] = map[string]int{}
		}
		used[t][class]++
		issued[t]++
		scheduled[u] = true
		remaining--
	}
	s := New(g, times)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
