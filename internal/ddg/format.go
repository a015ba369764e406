package ddg

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The textual DDG format, one directive per line:
//
//	ddg "<name>" machine=<superscalar|vliw|epic>
//	node <name> op=<mnemonic> lat=<n> [writes=<type>[:<δw>]] [dr=<δr>]
//	edge <from> <to> flow <type> [lat=<n>]
//	edge <from> <to> serial lat=<n>
//	# comments and blank lines are ignored
//
// Parse does not finalize the graph, so callers can keep extending it.

// ParseError locates a syntax error in the textual DDG format. Line is
// 1-based; Col is the 1-based byte column of the offending token in that
// line (0 when the error concerns the line as a whole). Parse failures
// unwrap to *ParseError via errors.As, so tools can point at the exact
// position of a bad directive or attribute.
type ParseError struct {
	Line  int
	Col   int
	Token string // the offending field, "" when the whole line is at fault
	Msg   string
}

func (e *ParseError) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// errTok marks an error at a specific field of the current line; Parse fills
// in the line number and column.
func errTok(token, format string, args ...any) *ParseError {
	return &ParseError{Token: token, Msg: fmt.Sprintf(format, args...)}
}

// errLine marks an error owned by the current line as a whole.
func errLine(format string, args ...any) *ParseError {
	return &ParseError{Msg: fmt.Sprintf(format, args...)}
}

// columnOf finds the token's 1-based byte column. Tokens are usually whole
// whitespace-delimited fields, so field-boundary matches win over bare
// substring hits (a node named "e" must not locate inside the word "node");
// the substring fallback covers tokens that are fragments of a field, like
// one spec of a writes=a,b list.
func columnOf(raw, token string) int {
	isSpace := func(b byte) bool { return b == ' ' || b == '\t' }
	for from := 0; from+len(token) <= len(raw); {
		i := strings.Index(raw[from:], token)
		if i < 0 {
			break
		}
		start := from + i
		end := start + len(token)
		if (start == 0 || isSpace(raw[start-1])) && (end == len(raw) || isSpace(raw[end])) {
			return start + 1
		}
		from = start + 1
	}
	if i := strings.Index(raw, token); i >= 0 {
		return i + 1
	}
	return 0
}

// Parse reads a DDG in the textual format.
func Parse(r io.Reader) (*Graph, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(text))
}

// ParseString parses a DDG in the textual format in one pass over s. Node
// names, mnemonics and register types are substrings of s.
func ParseString(s string) (*Graph, error) {
	var p parser
	p.lx.Reset(s)
	for p.lx.Next() {
		if err := p.directive(p.lx.Fields()); err != nil {
			return nil, p.lx.Locate(err)
		}
	}
	if p.g == nil {
		return nil, fmt.Errorf("no ddg directive found")
	}
	return p.g, nil
}

// parser is the state of one ParseString call.
type parser struct {
	lx    Lexer
	g     *Graph
	names NameIndex
}

func (p *parser) directive(fields []string) *ParseError {
	switch fields[0] {
	case "ddg":
		if p.g != nil {
			return errTok(fields[0], "duplicate ddg directive")
		}
		name, machine, _, err := ParseHeader(p.lx.Tail(), false)
		if err != nil {
			return err
		}
		p.g = New(name, machine)
		// Room for Finalize too: ⊥ and about one edge per node into it.
		nodes, edges := SizeHint(p.lx.src)
		p.g.nodes = make([]Node, 0, nodes+1)
		p.g.edges = make([]Edge, 0, edges+nodes+1)
		p.g.writes = make([]Write, 0, nodes)
		p.names.Reserve(nodes)
		return nil
	case "node":
		if p.g == nil {
			return errTok(fields[0], "node before ddg directive")
		}
		return p.node(fields[1:])
	case "edge":
		if p.g == nil {
			return errTok(fields[0], "edge before ddg directive")
		}
		return p.edge(fields[1:])
	default:
		return errTok(fields[0], "unknown directive %q", fields[0])
	}
}

func (p *parser) node(fields []string) *ParseError {
	if len(fields) < 1 {
		return errLine("node needs a name")
	}
	g := p.g
	name := fields[0]
	if p.names.Find(g.nodes, name) >= 0 {
		return errTok(name, "duplicate node %q", name)
	}
	id := g.AddNode(name, "op", 0)
	p.names.Add(g.nodes, id)
	return ParseNodeAttrs(&g.nodes[id], &g.writes, fields[1:], g.Machine)
}

func (p *parser) edge(fields []string) *ParseError {
	if len(fields) < 3 {
		return errLine("edge needs: from to kind …")
	}
	g := p.g
	from := p.names.Find(g.nodes, fields[0])
	to := p.names.Find(g.nodes, fields[1])
	if from < 0 {
		return errTok(fields[0], "edge references unknown node %q", fields[0])
	}
	if to < 0 {
		return errTok(fields[1], "edge references unknown node %q", fields[1])
	}
	if from == to {
		return errTok(fields[1], "self-loop edge on node %q", fields[0])
	}
	switch fields[2] {
	case "flow":
		if len(fields) < 4 {
			return errLine("flow edge needs a register type")
		}
		t := RegType(fields[3])
		if !g.Node(from).WritesType(t) {
			return errTok(fields[3], "flow edge from %q, which does not write type %q", fields[0], t)
		}
		lat := g.Node(from).Latency
		for _, f := range fields[4:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok || k != "lat" {
				return errTok(f, "bad flow edge attribute %q", f)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return errTok(f, "bad lat %q", v)
			}
			lat = n
		}
		g.AddFlowEdgeLatency(from, to, t, lat)
	case "serial":
		lat := int64(0)
		found := false
		for _, f := range fields[3:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok || k != "lat" {
				return errTok(f, "bad serial edge attribute %q", f)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return errTok(f, "bad lat %q", v)
			}
			lat, found = n, true
		}
		if !found {
			return errLine("serial edge needs lat=<n>")
		}
		if lat < 0 && !g.Machine.HasOffsets() {
			return errLine("negative serial latency on a superscalar machine")
		}
		g.AddSerialEdge(from, to, lat)
	default:
		return errTok(fields[2], "unknown edge kind %q", fields[2])
	}
	return nil
}

// Format renders the graph in the textual format (excluding the ⊥ node and
// its edges, so a finalized graph round-trips to its pre-Finalize form).
func (g *Graph) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ddg %q machine=%s\n", g.Name, g.Machine)
	limit := len(g.nodes)
	if g.finalized {
		limit = g.bottom
	}
	for i := 0; i < limit; i++ {
		FormatNode(&b, &g.nodes[i])
	}
	for _, e := range g.edges {
		if g.finalized && (e.From == g.bottom || e.To == g.bottom) {
			continue
		}
		if e.Kind == Flow {
			fmt.Fprintf(&b, "edge %s %s flow %s", g.nodes[e.From].Name, g.nodes[e.To].Name, e.Type)
			if e.Latency != g.nodes[e.From].Latency {
				fmt.Fprintf(&b, " lat=%d", e.Latency)
			}
			b.WriteString("\n")
		} else {
			fmt.Fprintf(&b, "edge %s %s serial lat=%d\n", g.nodes[e.From].Name, g.nodes[e.To].Name, e.Latency)
		}
	}
	return b.String()
}

// FormatNode writes n's node directive line, as Format renders it: its
// writes in type order, a δw only when non-zero.
func FormatNode(b *strings.Builder, n *Node) {
	fmt.Fprintf(b, "node %s op=%s lat=%d", n.Name, n.Op, n.Latency)
	for i, w := range n.Writes {
		if i == 0 {
			b.WriteString(" writes=")
		} else {
			b.WriteByte(',')
		}
		b.WriteString(string(w.Type))
		if w.DelayW != 0 {
			fmt.Fprintf(b, ":%d", w.DelayW)
		}
	}
	if n.DelayR != 0 {
		fmt.Fprintf(b, " dr=%d", n.DelayR)
	}
	b.WriteString("\n")
}

// DOT renders the DDG in Graphviz format following the paper's Figure 2
// style: values (register-writing nodes) are bold circles and flow edges are
// bold; serial edges are dashed.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	for i := range g.nodes {
		n := &g.nodes[i]
		style := ""
		if len(n.Writes) > 0 {
			style = `, style=bold`
		}
		if g.finalized && i == g.bottom {
			style = `, shape=point`
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", i, fmt.Sprintf("%s\\n%s/%d", n.Name, n.Op, n.Latency), style)
	}
	for _, e := range g.edges {
		if e.Kind == Flow {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q, style=bold];\n", e.From, e.To,
				fmt.Sprintf("%s/%d", e.Type, e.Latency))
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q, style=dashed];\n", e.From, e.To,
				fmt.Sprintf("%d", e.Latency))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
