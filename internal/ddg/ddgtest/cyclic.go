package ddgtest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
)

// DetectCyclic reports whether the text is in the cyclic loop format: its first
// directive is a ddg header carrying the `loop` flag. Loaders use it to
// route a .ddg file to this parser or the flat one.
func DetectCyclic(text string) bool {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "ddg") {
			return false
		}
		fields := strings.Fields(line)
		for _, f := range fields[1:] {
			if f == "loop" {
				return true
			}
		}
		return false
	}
	return false
}

// ParseCyclic reads a loop in the textual format. The result is not validated —
// call Validate (the analyses do) — but structural panics of the builder API
// (unknown nodes, bad offsets) are caught and reported as parse errors.
func ParseCyclic(r io.Reader) (*cyclic.Loop, error) {
	sc := bufio.NewScanner(r)
	var l *cyclic.Loop
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
			if l != nil {
				err = errTok(fields[0], "duplicate ddg directive")
				break
			}
			l, err = parseCyclicHeader(strings.TrimSpace(line[len("ddg"):]))
		case "node":
			if l == nil {
				err = errTok(fields[0], "node before ddg directive")
				break
			}
			err = parseCyclicNode(l, fields[1:])
		case "edge":
			if l == nil {
				err = errTok(fields[0], "edge before ddg directive")
				break
			}
			err = parseCyclicEdge(l, fields[1:])
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
	if l == nil {
		return nil, fmt.Errorf("no ddg directive found")
	}
	return l, nil
}

// ParseCyclicString is ParseCyclic over a string.
func ParseCyclicString(s string) (*cyclic.Loop, error) {
	return ParseCyclic(strings.NewReader(s))
}

func parseCyclicHeader(rest string) (*cyclic.Loop, *ddg.ParseError) {
	if rest == "" {
		return nil, errLine("ddg directive needs a name")
	}
	var name string
	var attrs []string
	if strings.HasPrefix(rest, `"`) {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, errLine("bad quoted ddg name %s", rest)
		}
		name, err = strconv.Unquote(q)
		if err != nil {
			return nil, errLine("bad quoted ddg name %s", q)
		}
		attrs = strings.Fields(rest[len(q):])
	} else {
		fs := strings.Fields(rest)
		name = fs[0]
		attrs = fs[1:]
	}
	machine := ddg.Superscalar
	loop := false
	for _, f := range attrs {
		if f == "loop" {
			loop = true
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok || k != "machine" {
			return nil, errTok(f, "bad ddg attribute %q", f)
		}
		switch v {
		case "superscalar":
			machine = ddg.Superscalar
		case "vliw":
			machine = ddg.VLIW
		case "epic":
			machine = ddg.EPIC
		default:
			return nil, errTok(f, "unknown machine %q", v)
		}
	}
	if !loop {
		return nil, errLine("cyclic parser needs the loop flag on the ddg directive")
	}
	return cyclic.New(name, machine), nil
}

func parseCyclicNode(l *cyclic.Loop, fields []string) *ddg.ParseError {
	if len(fields) < 1 {
		return errLine("node needs a name")
	}
	name := fields[0]
	if l.NodeByName(name) >= 0 {
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
			if n != 0 && !l.Machine.HasOffsets() {
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
					if n != 0 && !l.Machine.HasOffsets() {
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
	id := l.AddNode(name, op, lat)
	if dr != 0 {
		l.SetReadDelay(id, dr)
	}
	for _, w := range writes {
		l.SetWrites(id, w.t, w.dw)
	}
	return nil
}

func parseCyclicEdge(l *cyclic.Loop, fields []string) *ddg.ParseError {
	if len(fields) < 3 {
		return errLine("edge needs: from to kind …")
	}
	from := l.NodeByName(fields[0])
	to := l.NodeByName(fields[1])
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
		if n > cyclic.MaxDist {
			return 0, errTok(f, "iteration distance %d exceeds MaxDist %d", n, cyclic.MaxDist)
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
