package cyclic

import (
	"errors"
	"strings"
	"testing"

	"regsat/internal/ddg"
)

// selfRec builds the canonical first-order recurrence: one op whose value
// feeds its own next iteration.
func selfRec(t *testing.T) *Loop {
	t.Helper()
	l := New("selfrec", ddg.Superscalar)
	a := l.AddNode("a", "add", 1)
	l.SetWrites(a, ddg.Float, 0)
	l.AddFlowEdge(a, a, ddg.Float, 1)
	if err := l.Validate(); err != nil {
		t.Fatalf("selfRec invalid: %v", err)
	}
	return l
}

func TestValidateRejectsZeroDistanceCycle(t *testing.T) {
	l := New("zcycle", ddg.Superscalar)
	a := l.AddNode("a", "op", 1)
	b := l.AddNode("b", "op", 1)
	l.SetWrites(a, ddg.Float, 0)
	l.SetWrites(b, ddg.Float, 0)
	l.AddFlowEdge(a, b, ddg.Float, 0)
	l.AddFlowEdge(b, a, ddg.Float, 0)
	err := l.Validate()
	if err == nil || !strings.Contains(err.Error(), "zero-distance cycle") {
		t.Fatalf("want zero-distance cycle rejection, got %v", err)
	}
}

func TestValidateRejectsZeroDistanceSelfEdge(t *testing.T) {
	l := New("zself", ddg.Superscalar)
	a := l.AddNode("a", "op", 1)
	l.SetWrites(a, ddg.Float, 0)
	l.edges = append(l.edges, Edge{From: a, To: a, Latency: 1, Kind: ddg.Flow, Type: ddg.Float, Dist: 0})
	if err := l.Validate(); err == nil {
		t.Fatal("want zero-distance self-edge rejection")
	}
}

func TestValidateRejectsOverflowDistance(t *testing.T) {
	l := selfRec(t)
	l.edges[0].Dist = MaxDist + 1
	err := l.Validate()
	if err == nil || !strings.Contains(err.Error(), "MaxDist") {
		t.Fatalf("want MaxDist rejection, got %v", err)
	}
}

func TestUnrollRejectsDeepWindows(t *testing.T) {
	l := selfRec(t)
	if _, err := l.Unroll(MaxUnrollNodes); err == nil {
		t.Fatal("want deep-unroll rejection")
	}
	if _, err := l.Unroll(0); err == nil {
		t.Fatal("want k<1 rejection")
	}
}

func TestFingerprintIncorporatesDistance(t *testing.T) {
	a := selfRec(t)
	b := a.Clone()
	b.edges[0].Dist = 2
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("two loops differing only in ω must not share a fingerprint")
	}
	// The cyclic fingerprint space must be disjoint from the acyclic one:
	// same byte shape can never collide thanks to the domain tag, and the
	// hex strings differ trivially here.
	if a.Fingerprint() == b.Clone().Fingerprint() {
		t.Fatal("clone of modified loop should match modified, not original")
	}
	if b.Fingerprint() != b.Clone().Fingerprint() {
		t.Fatal("fingerprint must be deterministic under Clone")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	l := New("mix", ddg.VLIW)
	a := l.AddNode("a", "mul", 3)
	b := l.AddNode("b", "add", 1)
	c := l.AddNode("c", "st", 2)
	l.SetWrites(a, ddg.Float, 1)
	l.SetWrites(b, ddg.Int, 0)
	l.SetReadDelay(c, 1)
	l.AddFlowEdge(a, b, ddg.Float, 0)
	l.AddFlowEdgeLatency(a, c, ddg.Float, 2, 2)
	l.AddFlowEdge(b, b, ddg.Int, 1)
	l.AddSerialEdge(c, a, -1, 1)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	text := l.Format()
	got, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if got.Fingerprint() != l.Fingerprint() {
		t.Fatalf("format round-trip changed fingerprint:\n%s\nvs reparsed\n%s", text, got.Format())
	}
	if !Detect(text) {
		t.Fatal("Detect must recognize formatted loops")
	}
}

func TestDetect(t *testing.T) {
	if Detect("ddg \"x\" machine=vliw\nnode a lat=1\n") {
		t.Fatal("flat ddg misdetected as loop")
	}
	if !Detect("# comment\n\nddg \"x\" machine=vliw loop\n") {
		t.Fatal("loop header not detected")
	}
	if Detect("node a lat=1\n") {
		t.Fatal("non-ddg text misdetected")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"ddg \"x\"\nnode a lat=1\n", "loop flag"},
		{"ddg \"x\" loop\nnode a lat=1 writes=float\nedge a a flow float\n", "zero-distance self-edge"},
		{"ddg \"x\" loop\nnode a lat=1 writes=float\nedge a a flow float dist=-1\n", "non-negative"},
		{"ddg \"x\" loop\nnode a lat=1 writes=float\nedge a a flow float dist=9999999999\n", "MaxDist"},
		{"ddg \"x\" loop\nnode a lat=1\nedge a b flow float dist=1\n", "unknown node"},
		{"ddg \"x\" loop\nnode a lat=1 writes=float\nedge a a flow float dist=one\n", "bad dist"},
		{"ddg \"x\" loop\nnode a lat=1 writes=float\nedge a a flow float wat=1\n", "bad flow edge attribute"},
	}
	for _, tc := range cases {
		_, err := ParseString(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseString(%q): want error containing %q, got %v", tc.src, tc.want, err)
		}
	}
	// Parse errors carry positions via *ddg.ParseError.
	_, err := ParseString("ddg \"x\" loop\nnode a lat=1 writes=float\nedge a a flow float dist=-1\n")
	var pe *ddg.ParseError
	if !errors.As(err, &pe) || pe.Line != 3 || pe.Col == 0 {
		t.Fatalf("want located *ddg.ParseError on line 3, got %#v", err)
	}
}

func TestUnrollStructure(t *testing.T) {
	l := selfRec(t)
	g, err := l.Unroll(3)
	if err != nil {
		t.Fatal(err)
	}
	// a@0, a@1, a@2, _out, plus ⊥ from Finalize.
	if got := g.NumNodes(); got != 5 {
		t.Fatalf("unroll(3) nodes = %d, want 5", got)
	}
	if g.NodeByName("a@2") < 0 || g.NodeByName(OutName) < 0 {
		t.Fatalf("unroll(3) missing instances: %s", g.Format())
	}
	// a@2's value escapes the window: it must flow into the sink.
	out := g.NodeByName(OutName)
	found := false
	for _, e := range g.Edges() {
		if e.From == g.NodeByName("a@2") && e.To == out && e.Kind == ddg.Flow {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaping value a@2 has no flow edge to %s:\n%s", OutName, g.Format())
	}
}

func TestZeroProjectionAndCarried(t *testing.T) {
	l := New("z", ddg.Superscalar)
	a := l.AddNode("a", "op", 1)
	b := l.AddNode("b", "op", 1)
	l.SetWrites(a, ddg.Float, 0)
	l.AddFlowEdge(a, b, ddg.Float, 0)
	if l.Carried() {
		t.Fatal("dist-0-only loop reported carried")
	}
	l.AddSerialEdge(b, a, 1, 1)
	if !l.Carried() {
		t.Fatal("carried edge not reported")
	}
	p := l.ZeroProjection()
	if p.Carried() || len(p.Edges()) != 1 {
		t.Fatalf("projection kept carried edges: %+v", p.Edges())
	}
}

// TestLongLines is the loop format's long-line regression: a 70 KB quoted
// name round-trips and a malformed 70 KB line fails with a located
// *ddg.ParseError.
func TestLongLines(t *testing.T) {
	name := strings.Repeat(`ab "c" d `, 70_000/9)
	l := New(name, ddg.Superscalar)
	a := l.AddNode(strings.Repeat("a", 70_000), "ld", 2)
	l.SetWrites(a, ddg.Float, 0)
	l.AddFlowEdge(a, a, ddg.Float, 1)
	text := l.Format()
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("70 KB names do not parse back: %v", err)
	}
	if back.Name != name || back.Format() != text || back.Fingerprint() != l.Fingerprint() {
		t.Fatal("70 KB names changed across Format → ParseString")
	}

	bad := "ddg t loop\nnode a lat=1 writes=float\nedge a a flow float " + strings.Repeat("y", 70_000) + "\n"
	_, err = ParseString(bad)
	var perr *ddg.ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("malformed long line: got %v, want a *ddg.ParseError", err)
	}
	if perr.Line != 3 || perr.Col != 21 || !strings.HasPrefix(perr.Msg, "bad flow edge attribute") {
		t.Fatalf("malformed long line: got %+v, want line 3, column 21, bad flow edge attribute", *perr)
	}
}
