// Fixture for the irimmutable analyzer: writes to shared ir.Snapshot
// storage must be flagged; reads and writes to fresh local storage must not.
package irimmutable

import (
	"regsat/internal/graph"
	"regsat/internal/ir"
)

func mutate(s *ir.Snapshot) {
	s.N = 3                // want "write to interned ir.Snapshot storage \(field N\)"
	s.Topo[0] = 1          // want "element store"
	s.Reach[0].Set(2)      // want "BitSet.Set"
	s.AP.D[1][2] = 9       // want "element store"
	s.CP++                 // want "field CP"
	copy(s.Topo, []int{1}) // want "copy destination"
}

func mutateAliased(s *ir.Snapshot) {
	row := s.TopoPos
	row[0] = 5 // want "element store"
	dst, wt := s.Fwd.Row(0)
	dst[0] = 1 // want "element store"
	wt[0] = 2  // want "element store"
}

func mutateTable(s *ir.Snapshot, tt *ir.TypeTable) {
	tt.MultiKill = 1 // want "field MultiKill"
	tt.Values[0] = 7 // want "element store"
	_ = s
}

func readOnly(s *ir.Snapshot) []int {
	n := s.N
	topo := make([]int, n)
	copy(topo, s.Topo) // snapshot as copy source: fine
	topo[0] = 42       // fresh local storage: fine
	b := make(graph.BitSet, 4)
	b.Set(1) // fresh bitset: fine
	return topo
}
