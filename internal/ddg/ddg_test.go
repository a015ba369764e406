package ddg

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// buildSmall returns the 4-operation example used across tests:
// a (load, lat 2, float) feeds b and c (fmul, lat 3, float), both feed d.
func buildSmall(t *testing.T) *Graph {
	t.Helper()
	g := New("small", Superscalar)
	a := g.AddNode("a", "load", 2)
	b := g.AddNode("b", "fmul", 3)
	c := g.AddNode("c", "fmul", 3)
	d := g.AddNode("d", "fadd", 1)
	g.SetWrites(a, Float, 0)
	g.SetWrites(b, Float, 0)
	g.SetWrites(c, Float, 0)
	g.SetWrites(d, Float, 0)
	g.AddFlowEdge(a, b, Float)
	g.AddFlowEdge(a, c, Float)
	g.AddFlowEdge(b, d, Float)
	g.AddFlowEdge(c, d, Float)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildAndFinalize(t *testing.T) {
	g := buildSmall(t)
	if !g.Finalized() {
		t.Fatal("not finalized")
	}
	if g.NumNodes() != 5 { // 4 ops + ⊥
		t.Fatalf("NumNodes=%d, want 5", g.NumNodes())
	}
	bot := g.Bottom()
	if bot != 4 || g.Node(bot).Name != "_bot" {
		t.Fatalf("bottom=%d name=%s", bot, g.Node(bot).Name)
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	g := buildSmall(t)
	nodes, edges := g.NumNodes(), g.NumEdges()
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != nodes || g.NumEdges() != edges {
		t.Fatal("second Finalize changed the graph")
	}
}

func TestExitValueGetsFlowToBottom(t *testing.T) {
	g := buildSmall(t)
	d := g.NodeByName("d")
	cons := g.Cons(d, Float)
	if len(cons) != 1 || cons[0] != g.Bottom() {
		t.Fatalf("Cons(d)=%v, want [⊥]", cons)
	}
}

func TestEveryNodeReachesBottom(t *testing.T) {
	g := buildSmall(t)
	ap, err := g.ToDigraph().LongestAllPairs()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.Bottom(); u++ {
		if !ap.Reaches(u, g.Bottom()) {
			t.Fatalf("node %s does not reach ⊥", g.Node(u).Name)
		}
	}
}

func TestConsAndValues(t *testing.T) {
	g := buildSmall(t)
	a := g.NodeByName("a")
	cons := g.Cons(a, Float)
	if len(cons) != 2 {
		t.Fatalf("Cons(a)=%v, want 2 consumers", cons)
	}
	vals := g.Values(Float)
	if len(vals) != 4 {
		t.Fatalf("Values=%v, want 4", vals)
	}
	if len(g.Values(Int)) != 0 {
		t.Fatal("no int values expected")
	}
}

func TestTypes(t *testing.T) {
	g := New("two-types", Superscalar)
	a := g.AddNode("a", "load", 1)
	b := g.AddNode("b", "add", 1)
	g.SetWrites(a, Float, 0)
	g.SetWrites(b, Int, 0)
	g.AddSerialEdge(a, b, 1)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	types := g.Types()
	if len(types) != 2 || types[0] != Float || types[1] != Int {
		t.Fatalf("Types=%v, want [float int]", types)
	}
}

func TestMultiTypeNode(t *testing.T) {
	// One op defining both an int and a float value (allowed by the model
	// as long as at most one value per type).
	g := New("multi", Superscalar)
	a := g.AddNode("a", "divmod", 2)
	b := g.AddNode("b", "use", 1)
	g.SetWrites(a, Int, 0)
	g.SetWrites(a, Float, 0)
	g.SetWrites(b, Int, 0)
	g.AddFlowEdge(a, b, Int)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	// The float value of a is an exit value → flow edge to ⊥.
	if cons := g.Cons(a, Float); len(cons) != 1 || cons[0] != g.Bottom() {
		t.Fatalf("float Cons(a)=%v, want [⊥]", cons)
	}
	if cons := g.Cons(a, Int); len(cons) != 1 || cons[0] != 1 {
		t.Fatalf("int Cons(a)=%v, want [b]", cons)
	}
}

func TestFlowEdgeFromNonWriterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New("bad", Superscalar)
	a := g.AddNode("a", "nop", 1)
	b := g.AddNode("b", "nop", 1)
	g.AddFlowEdge(a, b, Float)
}

func TestSuperscalarOffsetsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New("bad", Superscalar)
	a := g.AddNode("a", "nop", 1)
	g.SetWrites(a, Float, 2) // δw ≠ 0 on superscalar
}

func TestVLIWOffsets(t *testing.T) {
	g := New("vliw", VLIW)
	a := g.AddNode("a", "fmul", 4)
	b := g.AddNode("b", "fadd", 2)
	g.SetWrites(a, Float, 3) // written at σ+3
	g.SetReadDelay(b, 1)     // reads at σ+1
	g.SetWrites(b, Float, 1)
	g.AddFlowEdge(a, b, Float)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if g.Node(a).DelayW(Float) != 3 || g.Node(b).DelayR != 1 {
		t.Fatal("offsets lost")
	}
	// Negative serial latency allowed on VLIW (used by RS reduction).
	ext := g.Extend([]SerialArc{{From: b, To: a, Latency: -2}})
	if ext.NumEdges() != g.NumEdges()+1 {
		t.Fatal("Extend did not add the arc")
	}
	if err := ext.Validate(); err == nil {
		t.Fatal("cycle a→b→a must be reported by Validate")
	}
}

func TestCycleDetected(t *testing.T) {
	g := New("cyclic", Superscalar)
	a := g.AddNode("a", "nop", 1)
	b := g.AddNode("b", "nop", 1)
	g.AddSerialEdge(a, b, 1)
	g.AddSerialEdge(b, a, 1)
	if err := g.Finalize(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestMutationAfterFinalizePanics(t *testing.T) {
	g := buildSmall(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddNode("late", "nop", 1)
}

func TestHorizonDominatesCriticalPath(t *testing.T) {
	g := buildSmall(t)
	if g.Horizon() < g.CriticalPath() {
		t.Fatalf("horizon %d < critical path %d", g.Horizon(), g.CriticalPath())
	}
}

func TestCriticalPathSmall(t *testing.T) {
	g := buildSmall(t)
	// a(2) → b(3) → d(1) → ⊥: 2+3+1 = 6.
	if cp := g.CriticalPath(); cp != 6 {
		t.Fatalf("critical path=%d, want 6", cp)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildSmall(t)
	c := g.Clone()
	c.Node(0).Writes[0].DelayW = 5 // write through the clone's window
	c.Node(0).Writes[0].Type = Int
	if g.Node(0).DelayW(Float) != 0 || !g.Node(0).WritesType(Float) || g.Node(0).WritesType(Int) {
		t.Fatalf("clone shares writes with the original: %v", g.Node(0).Writes)
	}
	ext := g.Extend(nil)
	ext.Node(1).Writes[0].DelayW = 7
	if g.Node(1).DelayW(Float) != 0 {
		t.Fatalf("extension shares writes with the original: %v", g.Node(1).Writes)
	}
	// And the other way: the source's writes do not reach its copies.
	g.Node(2).Writes[0].DelayW = 9
	if c.Node(2).DelayW(Float) != 0 || ext.Node(2).DelayW(Float) != 0 {
		t.Fatal("original shares writes with its clone or extension")
	}
}

// TestWritesKeepMapSemantics: a node's writes behave as a map from type to
// δw kept in type order — a repeated type keeps its last δw, whether it
// repeats in one writes= list or across SetWrites calls, on any node of a
// graph under construction; an unwritten type has δw 0.
func TestWritesKeepMapSemantics(t *testing.T) {
	g := New("w", VLIW)
	a := g.AddNode("a", "op", 1)
	b := g.AddNode("b", "op", 1)
	g.SetWrites(a, Int, 1)
	g.SetWrites(b, Float, 2)
	g.SetWrites(a, Float, 3) // a's window no longer ends the arena
	g.SetWrites(a, Int, 4)
	g.SetWrites(b, "acc", 5)
	g.SetWrites(b, Float, 6)
	want := map[int][]Write{
		a: {{Float, 3}, {Int, 4}},
		b: {{"acc", 5}, {Float, 6}},
	}
	for u, ws := range want {
		if got := g.Node(u).Writes; fmt.Sprint(got) != fmt.Sprint(ws) {
			t.Errorf("node %d writes %v, want %v", u, got, ws)
		}
		if cap(g.Node(u).Writes) != len(ws) {
			t.Errorf("node %d: window of capacity %d holds %d writes", u, cap(g.Node(u).Writes), len(ws))
		}
	}
	if dw := g.Node(a).DelayW("acc"); dw != 0 {
		t.Errorf("DelayW of an unwritten type = %d, want 0", dw)
	}
	if got := g.Types(); fmt.Sprint(got) != "[acc float int]" {
		t.Errorf("Types() = %v, want sorted [acc float int]", got)
	}

	p, err := ParseString("ddg \"p\" machine=vliw\nnode x writes=int:1,float,int:2 writes=float:3\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(p.Node(0).Writes); got != "[{float 3} {int 2}]" {
		t.Errorf("parsed writes %s, want [{float 3} {int 2}]", got)
	}
	if !strings.Contains(p.Format(), "writes=float:3,int:2\n") {
		t.Errorf("Format:\n%s", p.Format())
	}
}

func TestExtendKeepsOriginalIntact(t *testing.T) {
	g := buildSmall(t)
	before := g.NumEdges()
	b, c := g.NodeByName("b"), g.NodeByName("c")
	ext := g.Extend([]SerialArc{{From: b, To: c, Latency: 1}})
	if g.NumEdges() != before {
		t.Fatal("Extend mutated the original")
	}
	if !ext.Finalized() {
		t.Fatal("extension lost finalized state")
	}
	if err := ext.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	src := `
# a VLIW loop body
ddg "roundtrip" machine=vliw
node a op=load lat=4 writes=float:1 dr=0
node b op=fmul lat=3 writes=float
node c op=store lat=1 dr=2
edge a b flow float
edge b c flow float lat=5
edge a c serial lat=2
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "roundtrip" || g.Machine != VLIW {
		t.Fatalf("header wrong: %s %s", g.Name, g.Machine)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d, want 3, 3", g.NumNodes(), g.NumEdges())
	}
	if g.Node(0).DelayW(Float) != 1 {
		t.Fatal("δw lost in parse")
	}
	if g.Node(2).DelayR != 2 {
		t.Fatal("δr lost in parse")
	}
	// Round-trip: format, reparse, compare formats.
	f1 := g.Format()
	g2, err := ParseString(f1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, f1)
	}
	if f2 := g2.Format(); f1 != f2 {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", f1, f2)
	}
}

func TestFormatExcludesBottom(t *testing.T) {
	g := buildSmall(t)
	f := g.Format()
	if strings.Contains(f, "_bot") {
		t.Fatalf("Format leaked ⊥:\n%s", f)
	}
	g2, err := ParseString(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Finalize(); err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() {
		t.Fatal("re-finalized graph differs")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`node a op=x lat=1`, // node before ddg
		"ddg \"x\"\nnode a op=x lat=1\nnode a op=y lat=1",                  // duplicate node
		"ddg \"x\"\nedge a b flow float",                                   // unknown nodes
		"ddg \"x\" machine=weird",                                          // unknown machine
		"ddg \"x\"\nnode a lat=oops",                                       // bad integer
		"ddg \"x\"\nnode a op=x lat=1\nnode b op=y lat=1\nedge a b serial", // missing lat
		"",        // empty input
		"bogus x", // unknown directive
	} {
		if _, err := ParseString(src); err == nil {
			t.Fatalf("expected parse error for %q", src)
		}
	}
}

// TestParseRejectsModelViolations: inputs that used to reach the panicking
// graph builders (found by FuzzParseDDG) must come back as *ParseError.
func TestParseRejectsModelViolations(t *testing.T) {
	for _, src := range []string{
		"ddg \"x\"\nnode a op=x lat=-1",                                                   // negative latency
		"ddg \"x\"\nnode a op=x lat=1 dr=2",                                               // δr on superscalar
		"ddg \"x\"\nnode a op=x lat=1 writes=float:2",                                     // δw on superscalar
		"ddg \"x\"\nnode a op=x lat=1 writes=",                                            // empty type
		"ddg \"x\"\nnode a op=x lat=1\nnode b op=y lat=1\nedge a b flow float",            // non-writer flow source
		"ddg \"x\"\nnode a op=x lat=1 writes=int\nnode b op=y lat=1\nedge a b flow float", // wrong flow type
		"ddg \"x\"\nnode a op=x lat=1\nnode b op=y lat=1\nedge a b serial lat=-1",         // negative serial on superscalar
		"ddg \"x\"\nnode a op=x lat=1 writes=float\nedge a a flow float",                  // self-loop
	} {
		g, err := ParseString(src)
		if err == nil {
			t.Fatalf("expected parse error for %q, got graph %v", src, g.Name)
		}
		var perr *ParseError
		if !errors.As(err, &perr) {
			t.Fatalf("error for %q is not a *ParseError: %v", src, err)
		}
	}
	// The same violations stay legal where the model allows them.
	for _, src := range []string{
		"ddg \"x\" machine=vliw\nnode a op=x lat=1 dr=2 writes=float:1",
		"ddg \"x\" machine=vliw\nnode a op=x lat=1\nnode b op=y lat=1\nedge a b serial lat=-1",
	} {
		if _, err := ParseString(src); err != nil {
			t.Fatalf("unexpected error for %q: %v", src, err)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := buildSmall(t)
	dot := g.DOT()
	for _, want := range []string{"digraph", "style=bold", "shape=point", "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestRandomGraphAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := DefaultRandomParams(2 + rng.Intn(12))
		if rng.Intn(2) == 0 {
			p.Machine = VLIW
			p.Types = []RegType{Int, Float}
		}
		g := RandomGraph(rng, p)
		return g.Validate() == nil && g.Finalized()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeByName(t *testing.T) {
	g := buildSmall(t)
	if g.NodeByName("c") != 2 || g.NodeByName("zzz") != -1 {
		t.Fatal("NodeByName wrong")
	}
}

func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		src        string
		line, col  int
		wantSubstr string
	}{
		{"ddg \"x\"\nnode a op=y lat=oops", 2, 13, "bad lat"},
		{"ddg \"x\"\nnode a op=y lat=1\nnode a op=z lat=1", 3, 6, "duplicate node"},
		// The node name "e" occurs inside the word "node": the column must
		// come from the whole-field match, not the first substring hit.
		{"ddg \"x\"\nnode e op=y lat=1\nnode e op=z lat=1", 3, 6, "duplicate node"},
		{"ddg \"x\"\nedge a b flow float", 2, 6, "unknown node"},
		{"ddg \"x\" machine=weird", 1, 9, "unknown machine"},
		{"bogus x", 1, 1, "unknown directive"},
		{"ddg \"x\"\n  node a oops", 2, 10, "bad node attribute"},
	}
	for _, tc := range cases {
		_, err := ParseString(tc.src)
		if err == nil {
			t.Fatalf("no error for %q", tc.src)
		}
		var perr *ParseError
		if !errors.As(err, &perr) {
			t.Fatalf("%q: error %v is not a *ParseError", tc.src, err)
		}
		if perr.Line != tc.line || perr.Col != tc.col {
			t.Fatalf("%q: located at %d:%d, want %d:%d (%v)",
				tc.src, perr.Line, perr.Col, tc.line, tc.col, err)
		}
		if !strings.Contains(err.Error(), tc.wantSubstr) {
			t.Fatalf("%q: message %q lacks %q", tc.src, err.Error(), tc.wantSubstr)
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Fatalf("%q: message %q lacks position prefix", tc.src, err.Error())
		}
	}
}

// TestLongLines: lines over bufio.Scanner's 64 KiB token limit parse like
// any other. A 70 KB quoted graph name (spaces and quotes included)
// survives Format → ParseString, and a malformed 70 KB line fails with a
// located *ParseError instead of a bare "token too long".
func TestLongLines(t *testing.T) {
	name := strings.Repeat(`ab "c" d `, 70_000/9)
	g := New(name, VLIW)
	a := g.AddNode("a", "ld", 2)
	g.SetWrites(a, Float, 1)
	b := g.AddNode(strings.Repeat("b", 70_000), "st", 1)
	g.AddFlowEdge(a, b, Float)
	text := g.Format()
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("70 KB names do not parse back: %v", err)
	}
	if back.Name != name || back.Format() != text {
		t.Fatal("70 KB names changed across Format → ParseString")
	}

	bad := "ddg t\nnode a lat=1 " + strings.Repeat("x", 70_000) + "\n"
	_, err = ParseString(bad)
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("malformed long line: got %v, want a *ParseError", err)
	}
	if perr.Line != 2 || perr.Col != 14 || !strings.HasPrefix(perr.Msg, "bad node attribute") {
		t.Fatalf("malformed long line: got %+v, want line 2, column 14, bad node attribute", *perr)
	}
}

// TestSharedGraphConcurrentReads: a finalized graph is only read after
// Finalize — its critical path included — so workers may share it. Run
// under -race.
func TestSharedGraphConcurrentReads(t *testing.T) {
	g := buildSmall(t)
	want := g.CriticalPath()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := g.CriticalPath(); got != want {
					t.Errorf("critical path %d, want %d", got, want)
					return
				}
				if got := g.Clone().CriticalPath(); got != want {
					t.Errorf("clone's critical path %d, want %d", got, want)
					return
				}
				ext := g.Extend([]SerialArc{{From: 0, To: 3, Latency: 100}})
				if got := ext.CriticalPath(); got != 101 {
					t.Errorf("extended critical path %d, want 101", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExtendRecomputesCriticalPath: Extend measures the extended graph's
// critical path instead of copying the original's, and an extension that
// closes a cycle fails Validate and panics on CriticalPath as before.
func TestExtendRecomputesCriticalPath(t *testing.T) {
	g := buildSmall(t)
	ext := g.Extend([]SerialArc{{From: 1, To: 2, Latency: 3}})
	// a(2) → b(3) → c(3) → d(1) → ⊥.
	if cp := ext.CriticalPath(); cp != 9 || g.CriticalPath() != 6 {
		t.Fatalf("critical paths: extension %d (want 9), original %d (want 6)", cp, g.CriticalPath())
	}
	cyc := g.Extend([]SerialArc{{From: 3, To: 0, Latency: 1}})
	if err := cyc.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cyclic extension: Validate = %v, want a cycle error", err)
	}
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "cycle") {
			t.Fatalf("cyclic extension: CriticalPath panicked with %v, want a cycle", p)
		}
	}()
	cyc.CriticalPath()
}
