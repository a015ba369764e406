package ddg

import (
	"hash/maphash"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer splits .ddg text into directive lines and their whitespace-separated
// fields in one pass. Fields are substrings of the input, never copies, and
// the field slice is reused from line to line: a caller keeps a field's
// string, never the slice. Lines end at '\n' with one trailing '\r' dropped;
// whitespace is what unicode.IsSpace accepts. These are bufio.ScanLines' and
// strings.Fields' rules, without the Scanner's 64 KiB line limit. Both the
// flat and the cyclic parser read their input through a Lexer. A line is
// split into fields only when Fields asks for them, so a Lexer that reads
// just the header (cyclic.Detect) allocates nothing.
type Lexer struct {
	src   string
	pos   int    // offset of the next unread line
	line  int    // 1-based number of the current line
	raw   string // the current line, without its terminator
	first int    // offset in raw where the first field starts
	end   int    // offset in raw where the first field ends
	// fields holds the current line's fields once split is set.
	fields []string
	split  bool
}

// Reset starts lexing src from its first line, keeping the field buffer.
func (lx *Lexer) Reset(src string) {
	*lx = Lexer{src: src, fields: lx.fields[:0]}
}

// Next advances to the next directive line, skipping blank lines and
// comments (lines whose first field starts with '#'), and reports whether
// there is one.
func (lx *Lexer) Next() bool {
	for lx.pos < len(lx.src) {
		rest := lx.src[lx.pos:]
		end := strings.IndexByte(rest, '\n')
		if end < 0 {
			lx.raw = rest
			lx.pos = len(lx.src)
		} else {
			lx.raw = rest[:end]
			lx.pos += end + 1
		}
		if n := len(lx.raw); n > 0 && lx.raw[n-1] == '\r' {
			lx.raw = lx.raw[:n-1]
		}
		lx.line++
		lx.split = false
		lx.first, lx.end = nextField(lx.raw, 0)
		if lx.first < lx.end && lx.raw[lx.first] != '#' {
			return true
		}
	}
	return false
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the bounds of the first field of s at or after offset
// i, with strings.Fields' notion of whitespace; start == end == len(s) when
// there is none.
func nextField(s string, i int) (start, end int) {
	start = -1
	for i < len(s) {
		c := s[i]
		size := 1
		space := asciiSpace[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			return start, i
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start < 0 {
		return len(s), len(s)
	}
	return start, len(s)
}

// First returns the current line's first field.
func (lx *Lexer) First() string { return lx.raw[lx.first:lx.end] }

// Fields returns the current line's fields, splitting the line on first
// use. The slice is valid until the next call to Next.
func (lx *Lexer) Fields() []string {
	if !lx.split {
		lx.split = true
		if lx.fields == nil {
			lx.fields = make([]string, 0, 16) // room for any line Format writes
		}
		lx.fields = append(lx.fields[:0], lx.First())
		for i := lx.end; ; {
			start, end := nextField(lx.raw, i)
			if start == end {
				break
			}
			lx.fields = append(lx.fields, lx.raw[start:end])
			i = end
		}
	}
	return lx.fields
}

// Tail returns the current line after its first field, with surrounding
// whitespace trimmed: the raw remainder a header directive parses itself,
// since a quoted name may contain spaces.
func (lx *Lexer) Tail() string {
	return strings.TrimSpace(lx.raw[lx.end:])
}

// Locate stamps err with the current line number and, when the offending
// token is known, the token's 1-based column in the line.
func (lx *Lexer) Locate(err *ParseError) *ParseError {
	err.Line = lx.line
	if err.Token != "" {
		err.Col = columnOf(lx.raw, err.Token)
	}
	return err
}

// NameIndex resolves node names to IDs while a parser appends nodes: an
// open-addressing hash table over the node slice, so a name lookup costs
// O(1) instead of a scan of every node so far. The zero value is empty.
type NameIndex struct {
	// slots hold the high 32 bits of a name's hash above its node ID + 1;
	// 0 marks an empty slot. A probe compares names only on equal hashes,
	// so it rarely touches the node slice for a name that is not there.
	slots []uint64
	n     int
}

var nameSeed = maphash.MakeSeed()

// Find returns the ID of the node of nodes named name, or -1. Every node of
// nodes that can match must have been added with Add.
func (ix *NameIndex) Find(nodes []Node, name string) int {
	if ix.n == 0 {
		return -1
	}
	h := maphash.String(nameSeed, name)
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return -1
		}
		if id := int(uint32(s)) - 1; s>>32 == h>>32 && nodes[id].Name == name {
			return id
		}
	}
}

// Reserve sizes an empty index for n names, so adding them never regrows
// it.
func (ix *NameIndex) Reserve(n int) {
	if ix.n == 0 {
		size := 16
		for size < 2*n {
			size *= 2
		}
		ix.slots = make([]uint64, size)
	}
}

// Add registers node id of nodes under its name. The caller checks with Find
// first: names are unique.
func (ix *NameIndex) Add(nodes []Node, id int) {
	if 2*(ix.n+1) > len(ix.slots) {
		old := ix.slots
		ix.slots = make([]uint64, max(16, 2*len(old)))
		for _, s := range old {
			if s != 0 {
				ix.insert(nodes, int(uint32(s))-1)
			}
		}
	}
	ix.insert(nodes, id)
	ix.n++
}

func (ix *NameIndex) insert(nodes []Node, id int) {
	h := maphash.String(nameSeed, nodes[id].Name)
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = h>>32<<32 | uint64(id+1)
}

// ParseHeader parses the remainder of a ddg directive (Lexer.Tail): a name —
// quoted (the form Format emits, losslessly unescaped, spaces and quotes
// included) or a bare field — followed by attributes. A `loop` attribute is
// accepted, and reported, only when loopFlag is set (the cyclic format);
// otherwise it is a bad attribute like any other.
func ParseHeader(rest string, loopFlag bool) (name string, machine MachineKind, loop bool, perr *ParseError) {
	if rest == "" {
		return "", 0, false, errLine("ddg directive needs a name")
	}
	var attrs string
	if strings.HasPrefix(rest, `"`) {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return "", 0, false, errLine("bad quoted ddg name %s", rest)
		}
		name, err = strconv.Unquote(q)
		if err != nil {
			return "", 0, false, errLine("bad quoted ddg name %s", q)
		}
		attrs = rest[len(q):]
	} else {
		name, attrs = CutField(rest)
	}
	machine = Superscalar
	for f, more := CutField(attrs); f != ""; f, more = CutField(more) {
		if loopFlag && f == "loop" {
			loop = true
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok || k != "machine" {
			return "", 0, false, errTok(f, "bad ddg attribute %q", f)
		}
		switch v {
		case "superscalar":
			machine = Superscalar
		case "vliw":
			machine = VLIW
		case "epic":
			machine = EPIC
		default:
			return "", 0, false, errTok(f, "unknown machine %q", v)
		}
	}
	return name, machine, loop, nil
}

// CutField returns the first whitespace-separated field of s and the rest
// of s after it; the field is "" when s holds only whitespace.
func CutField(s string) (field, rest string) {
	start, end := nextField(s, 0)
	return s[start:end], s[end:]
}

// ParseNodeAttrs applies a node directive's attributes (the fields after its
// name) to n, in order: op=, lat=, dr= and writes=<type>[:<δw>],…, a type
// written twice keeping its last δw. n starts as AddNode leaves it, and its
// writes go to arena as PutWrite puts them; machine decides whether offsets
// are allowed. On error n is partly updated and the caller discards the
// graph.
func ParseNodeAttrs(n *Node, arena *[]Write, attrs []string, machine MachineKind) *ParseError {
	for _, f := range attrs {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return errTok(f, "bad node attribute %q", f)
		}
		switch k {
		case "op":
			n.Op = v
		case "lat":
			x, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return errTok(f, "bad lat %q", v)
			}
			if x < 0 {
				return errTok(f, "node latency must be non-negative, got %d", x)
			}
			n.Latency = x
		case "dr":
			x, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return errTok(f, "bad dr %q", v)
			}
			if x != 0 && !machine.HasOffsets() {
				return errTok(f, "reading offset dr on a superscalar machine")
			}
			n.DelayR = x
		case "writes":
			for rest, more := v, true; more; {
				var spec string
				spec, rest, more = strings.Cut(rest, ",")
				tname, dws, has := strings.Cut(spec, ":")
				if tname == "" {
					return errTok(f, "empty register type in %q", v)
				}
				var dw int64
				if has {
					x, err := strconv.ParseInt(dws, 10, 64)
					if err != nil {
						return errTok(spec, "bad δw in %q", spec)
					}
					if x != 0 && !machine.HasOffsets() {
						return errTok(spec, "writing offset δw on a superscalar machine")
					}
					dw = x
				}
				n.Writes = PutWrite(arena, n.Writes, RegType(tname), dw)
			}
		default:
			return errTok(f, "unknown node attribute %q", k)
		}
	}
	return nil
}

// SizeHint counts the node and edge directives of a graph's text — lines
// whose first field is "node" or "edge" — in one pass, so a parser can
// presize its slices. It only looks past leading spaces and tabs: a
// directive led by other whitespace is missed, and the slices then grow as
// usual.
func SizeHint(src string) (nodes, edges int) {
	for len(src) > 0 {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		for len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
			line = line[1:]
		}
		if len(line) > 4 && (line[4] == ' ' || line[4] == '\t') {
			switch line[:4] {
			case "node":
				nodes++
			case "edge":
				edges++
			}
		}
	}
	return nodes, edges
}
