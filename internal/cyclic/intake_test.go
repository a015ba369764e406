package cyclic

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"regsat/internal/ddg"
)

// chainText renders an n-node chain in the .ddg format, as a flat graph or
// (loop) as a kernel whose last node feeds the first one of the next
// iteration.
func chainText(n int, loop bool) string {
	var b strings.Builder
	if loop {
		b.WriteString("ddg \"chain\" machine=superscalar loop\n")
	} else {
		b.WriteString("ddg \"chain\" machine=superscalar\n")
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "node n%d op=add lat=%d writes=int\n", i, 1+i%3)
	}
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "edge n%d n%d flow int\n", i-1, i)
	}
	if loop {
		fmt.Fprintf(&b, "edge n%d n0 flow int dist=1\n", n-1)
	}
	return b.String()
}

// chainCriticalPath is the critical path of chainText(n, false) once
// finalized: every node's latency, the last one into ⊥ included.
func chainCriticalPath(n int) int64 {
	var cp int64
	for i := 0; i < n; i++ {
		cp += int64(1 + i%3)
	}
	return cp
}

// TestLinearIntake: request intake is linear in the graph size. A
// 100,000-node chain parses, finalizes and reports its critical path, and a
// 100,000-node loop kernel parses, validates and reports the critical path
// of its body, each within one second (a quadratic name lookup or exit scan
// took over a second at 8,000 nodes). The bound is not checked under -race.
func TestLinearIntake(t *testing.T) {
	const n = 100_000
	flat, loop := chainText(n, false), chainText(n, true)

	start := time.Now()
	g, err := ddg.ParseString(flat)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := g.CriticalPath(); got != chainCriticalPath(n) {
		t.Fatalf("chain critical path %d, want %d", got, chainCriticalPath(n))
	}
	flatTime := time.Since(start)

	start = time.Now()
	l, err := ParseString(loop)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	body := l.Body()
	if err := body.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := body.CriticalPath(); got != chainCriticalPath(n) {
		t.Fatalf("kernel body critical path %d, want %d", got, chainCriticalPath(n))
	}
	loopTime := time.Since(start)

	t.Logf("%d nodes: chain %v, kernel %v", n, flatTime, loopTime)
	if raceEnabled {
		return
	}
	for _, m := range []struct {
		what string
		d    time.Duration
	}{{"chain", flatTime}, {"kernel", loopTime}} {
		if m.d > time.Second {
			t.Errorf("%d-node %s took %v to parse, finalize and measure, bound 1s", n, m.what, m.d)
		}
	}
}

// BenchmarkParseChain parses a chain of n and of 4n nodes in both formats:
// linear intake shows as a flat ns/node across the two sizes.
func BenchmarkParseChain(b *testing.B) {
	for _, n := range []int{25_000, 100_000} {
		for _, loop := range []bool{false, true} {
			text := chainText(n, loop)
			format := "flat"
			if loop {
				format = "loop"
			}
			b.Run(fmt.Sprintf("%s/n=%d", format, n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(text)))
				for i := 0; i < b.N; i++ {
					var err error
					if loop {
						_, err = ParseString(text)
					} else {
						_, err = ddg.ParseString(text)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
			})
		}
	}
}
