// Package ddgtest holds the reference parsers the .ddg lexer's tests
// compare against: the line-at-a-time bufio.Scanner parsers of the flat and
// the cyclic format, kept as they were before the one-pass lexer replaced
// them. They build graphs only through the public ddg and cyclic APIs, so
// agreement with ddg.ParseString and cyclic.ParseString is evidence, not
// tautology. Like bufio.Scanner, they reject any line over 64 KiB. Only
// tests import this package.
package ddgtest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"regsat/internal/ddg"
)

// errTok marks an error at a specific field of the current line; Parse fills
// in the line number and column.
func errTok(token, format string, args ...any) *ddg.ParseError {
	return &ddg.ParseError{Token: token, Msg: fmt.Sprintf(format, args...)}
}

// errLine marks an error owned by the current line as a whole.
func errLine(format string, args ...any) *ddg.ParseError {
	return &ddg.ParseError{Msg: fmt.Sprintf(format, args...)}
}

// locate stamps the error with its line and, when the offending token is
// known, the token's 1-based column in the original (untrimmed) line.
func locate(err *ddg.ParseError, lineNo int, raw string) *ddg.ParseError {
	err.Line = lineNo
	if err.Token != "" {
		err.Col = columnOf(raw, err.Token)
	}
	return err
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

// Parse reads a DDG in the textual format, one bufio.Scanner line and one
// strings.Fields split at a time.
func Parse(r io.Reader) (*ddg.Graph, error) {
	sc := bufio.NewScanner(r)
	var g *ddg.Graph
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var err *ddg.ParseError
		switch fields[0] {
		case "ddg":
			if g != nil {
				err = errTok(fields[0], "duplicate ddg directive")
				break
			}
			var name string
			var machine ddg.MachineKind
			if name, machine, err = parseHeader(strings.TrimSpace(line[len("ddg"):])); err == nil {
				g = ddg.New(name, machine)
			}
		case "node":
			if g == nil {
				err = errTok(fields[0], "node before ddg directive")
				break
			}
			err = parseNode(g, fields[1:])
		case "edge":
			if g == nil {
				err = errTok(fields[0], "edge before ddg directive")
				break
			}
			err = parseEdge(g, fields[1:])
		default:
			err = errTok(fields[0], "unknown directive %q", fields[0])
		}
		if err != nil {
			return nil, locate(err, lineNo, raw)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("no ddg directive found")
	}
	return g, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*ddg.Graph, error) {
	return Parse(strings.NewReader(s))
}

// parseHeader parses the remainder of a ddg directive: a name — quoted (the
// form Format emits, losslessly unescaped, spaces and quotes included) or a
// bare field — followed by attributes.
func parseHeader(rest string) (string, ddg.MachineKind, *ddg.ParseError) {
	if rest == "" {
		return "", 0, errLine("ddg directive needs a name")
	}
	var name string
	var attrs []string
	if strings.HasPrefix(rest, `"`) {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return "", 0, errLine("bad quoted ddg name %s", rest)
		}
		name, err = strconv.Unquote(q)
		if err != nil {
			return "", 0, errLine("bad quoted ddg name %s", q)
		}
		attrs = strings.Fields(rest[len(q):])
	} else {
		fs := strings.Fields(rest)
		name = fs[0]
		attrs = fs[1:]
	}
	machine := ddg.Superscalar
	for _, f := range attrs {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k != "machine" {
			return "", 0, errTok(f, "bad ddg attribute %q", f)
		}
		switch v {
		case "superscalar":
			machine = ddg.Superscalar
		case "vliw":
			machine = ddg.VLIW
		case "epic":
			machine = ddg.EPIC
		default:
			return "", 0, errTok(f, "unknown machine %q", v)
		}
	}
	return name, machine, nil
}

func parseNode(g *ddg.Graph, fields []string) *ddg.ParseError {
	if len(fields) < 1 {
		return errLine("node needs a name")
	}
	name := fields[0]
	if g.NodeByName(name) >= 0 {
		return errTok(name, "duplicate node %q", name)
	}
	op := "op"
	var lat, dr int64
	type writeSpec struct {
		t  ddg.RegType
		dw int64
	}
	var writes []writeSpec
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return errTok(f, "bad node attribute %q", f)
		}
		switch k {
		case "op":
			op = v
		case "lat":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return errTok(f, "bad lat %q", v)
			}
			if n < 0 {
				return errTok(f, "node latency must be non-negative, got %d", n)
			}
			lat = n
		case "dr":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return errTok(f, "bad dr %q", v)
			}
			if n != 0 && !g.Machine.HasOffsets() {
				return errTok(f, "reading offset dr on a superscalar machine")
			}
			dr = n
		case "writes":
			for _, spec := range strings.Split(v, ",") {
				tname, dws, has := strings.Cut(spec, ":")
				if tname == "" {
					return errTok(f, "empty register type in %q", v)
				}
				var dw int64
				if has {
					n, err := strconv.ParseInt(dws, 10, 64)
					if err != nil {
						return errTok(spec, "bad δw in %q", spec)
					}
					if n != 0 && !g.Machine.HasOffsets() {
						return errTok(spec, "writing offset δw on a superscalar machine")
					}
					dw = n
				}
				writes = append(writes, writeSpec{ddg.RegType(tname), dw})
			}
		default:
			return errTok(f, "unknown node attribute %q", k)
		}
	}
	id := g.AddNode(name, op, lat)
	if dr != 0 {
		g.SetReadDelay(id, dr)
	}
	for _, w := range writes {
		g.SetWrites(id, w.t, w.dw)
	}
	return nil
}

func parseEdge(g *ddg.Graph, fields []string) *ddg.ParseError {
	if len(fields) < 3 {
		return errLine("edge needs: from to kind …")
	}
	from := g.NodeByName(fields[0])
	to := g.NodeByName(fields[1])
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
		t := ddg.RegType(fields[3])
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
