package cyclic

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"regsat/internal/ddg"
)

// The textual loop format extends the flat .ddg format with a `loop` header
// flag and a per-edge iteration distance:
//
//	ddg "<name>" machine=<superscalar|vliw|epic> loop
//	node <name> op=<mnemonic> lat=<n> [writes=<type>[:<δw>]] [dr=<δr>]
//	edge <from> <to> flow <type> [lat=<n>] [dist=<ω>]
//	edge <from> <to> serial lat=<n> [dist=<ω>]
//	# comments and blank lines are ignored
//
// dist defaults to 0 (an ordinary intra-iteration dependence). Unlike the
// flat format, self-edges are legal — a first-order recurrence is
// `edge a a flow float dist=1` — provided the distance is positive.
// Syntax errors are reported as *ddg.ParseError with line/column positions,
// so tooling treats both formats uniformly.

// Detect reports whether the text is in the cyclic loop format: its first
// directive is a ddg header carrying the `loop` flag. Loaders use it to
// route a .ddg file to this parser or the flat one.
func Detect(text string) bool {
	var lx ddg.Lexer
	lx.Reset(text)
	if !lx.Next() || !strings.HasPrefix(lx.First(), "ddg") {
		return false
	}
	for f, rest := ddg.CutField(lx.Tail()); f != ""; f, rest = ddg.CutField(rest) {
		if f == "loop" {
			return true
		}
	}
	return false
}

func errTok(token, format string, args ...any) *ddg.ParseError {
	return &ddg.ParseError{Token: token, Msg: fmt.Sprintf(format, args...)}
}

func errLine(format string, args ...any) *ddg.ParseError {
	return &ddg.ParseError{Msg: fmt.Sprintf(format, args...)}
}

// Parse reads a loop in the textual format.
func Parse(r io.Reader) (*Loop, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(text))
}

// ParseString parses a loop in the textual format in one pass over s, with
// the flat parser's lexer; names and types are substrings of s. The result
// is not validated — call Validate (the analyses do).
func ParseString(s string) (*Loop, error) {
	p := parser{src: s}
	p.lx.Reset(s)
	for p.lx.Next() {
		if err := p.directive(p.lx.Fields()); err != nil {
			return nil, p.lx.Locate(err)
		}
	}
	if p.l == nil {
		return nil, fmt.Errorf("no ddg directive found")
	}
	return p.l, nil
}

// parser is the state of one ParseString call.
type parser struct {
	src   string
	lx    ddg.Lexer
	l     *Loop
	names ddg.NameIndex
}

func (p *parser) directive(fields []string) *ddg.ParseError {
	switch fields[0] {
	case "ddg":
		if p.l != nil {
			return errTok(fields[0], "duplicate ddg directive")
		}
		name, machine, loop, err := ddg.ParseHeader(p.lx.Tail(), true)
		if err != nil {
			return err
		}
		if !loop {
			return errLine("cyclic parser needs the loop flag on the ddg directive")
		}
		p.l = New(name, machine)
		nodes, edges := ddg.SizeHint(p.src)
		p.l.nodes = make([]ddg.Node, 0, nodes)
		p.l.edges = make([]Edge, 0, edges)
		p.l.writes = make([]ddg.Write, 0, nodes)
		p.names.Reserve(nodes)
		return nil
	case "node":
		if p.l == nil {
			return errTok(fields[0], "node before ddg directive")
		}
		fields = fields[1:]
		if len(fields) < 1 {
			return errLine("node needs a name")
		}
		l := p.l
		name := fields[0]
		if p.names.Find(l.nodes, name) >= 0 {
			return errTok(name, "duplicate node %q", name)
		}
		id := l.AddNode(name, "op", 0)
		p.names.Add(l.nodes, id)
		return ddg.ParseNodeAttrs(&l.nodes[id], &l.writes, fields[1:], l.Machine)
	case "edge":
		if p.l == nil {
			return errTok(fields[0], "edge before ddg directive")
		}
		return p.edge(fields[1:])
	default:
		return errTok(fields[0], "unknown directive %q", fields[0])
	}
}

func (p *parser) edge(fields []string) *ddg.ParseError {
	if len(fields) < 3 {
		return errLine("edge needs: from to kind …")
	}
	l := p.l
	from := p.names.Find(l.nodes, fields[0])
	to := p.names.Find(l.nodes, fields[1])
	if from < 0 {
		return errTok(fields[0], "edge references unknown node %q", fields[0])
	}
	if to < 0 {
		return errTok(fields[1], "edge references unknown node %q", fields[1])
	}
	parseDist := func(f, v string) (int64, *ddg.ParseError) {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, errTok(f, "bad dist %q", v)
		}
		if n < 0 {
			return 0, errTok(f, "iteration distance must be non-negative, got %d", n)
		}
		if n > MaxDist {
			return 0, errTok(f, "iteration distance %d exceeds MaxDist %d", n, MaxDist)
		}
		return n, nil
	}
	switch fields[2] {
	case "flow":
		if len(fields) < 4 {
			return errLine("flow edge needs a register type")
		}
		t := ddg.RegType(fields[3])
		if !l.Node(from).WritesType(t) {
			return errTok(fields[3], "flow edge from %q, which does not write type %q", fields[0], t)
		}
		lat := l.Node(from).Latency
		var dist int64
		for _, f := range fields[4:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return errTok(f, "bad flow edge attribute %q", f)
			}
			switch k {
			case "lat":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return errTok(f, "bad lat %q", v)
				}
				lat = n
			case "dist":
				var derr *ddg.ParseError
				if dist, derr = parseDist(f, v); derr != nil {
					return derr
				}
			default:
				return errTok(f, "bad flow edge attribute %q", f)
			}
		}
		if from == to && dist == 0 {
			return errTok(fields[1], "zero-distance self-edge on node %q", fields[0])
		}
		l.AddFlowEdgeLatency(from, to, t, lat, dist)
	case "serial":
		lat := int64(0)
		found := false
		var dist int64
		for _, f := range fields[3:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return errTok(f, "bad serial edge attribute %q", f)
			}
			switch k {
			case "lat":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return errTok(f, "bad lat %q", v)
				}
				lat, found = n, true
			case "dist":
				var derr *ddg.ParseError
				if dist, derr = parseDist(f, v); derr != nil {
					return derr
				}
			default:
				return errTok(f, "bad serial edge attribute %q", f)
			}
		}
		if !found {
			return errLine("serial edge needs lat=<n>")
		}
		if lat < 0 && !l.Machine.HasOffsets() {
			return errLine("negative serial latency on a superscalar machine")
		}
		if from == to && dist == 0 {
			return errTok(fields[1], "zero-distance self-edge on node %q", fields[0])
		}
		l.AddSerialEdge(from, to, lat, dist)
	default:
		return errTok(fields[2], "unknown edge kind %q", fields[2])
	}
	return nil
}

// Format renders the loop in the textual format; Parse(Format(l)) is the
// identity up to fingerprint.
func (l *Loop) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ddg %q machine=%s loop\n", l.Name, l.Machine)
	for i := range l.nodes {
		ddg.FormatNode(&b, &l.nodes[i])
	}
	for _, e := range l.edges {
		if e.Kind == ddg.Flow {
			fmt.Fprintf(&b, "edge %s %s flow %s", l.nodes[e.From].Name, l.nodes[e.To].Name, e.Type)
			if e.Latency != l.nodes[e.From].Latency {
				fmt.Fprintf(&b, " lat=%d", e.Latency)
			}
		} else {
			fmt.Fprintf(&b, "edge %s %s serial lat=%d", l.nodes[e.From].Name, l.nodes[e.To].Name, e.Latency)
		}
		if e.Dist != 0 {
			fmt.Fprintf(&b, " dist=%d", e.Dist)
		}
		b.WriteString("\n")
	}
	return b.String()
}
