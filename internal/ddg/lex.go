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
// flat and the cyclic parser read their input through a Lexer.
type Lexer struct {
	src    string
	pos    int    // offset of the next unread line
	line   int    // 1-based number of the current line
	raw    string // the current line, without its terminator
	first  int    // offset in raw where the first field starts
	fields []string
}

// Reset starts lexing src from its first line.
func (lx *Lexer) Reset(src string) {
	fields := lx.fields[:0]
	if fields == nil {
		fields = make([]string, 0, 16) // room for any line Format writes
	}
	*lx = Lexer{src: src, fields: fields}
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
		lx.split()
		if len(lx.fields) > 0 && lx.fields[0][0] != '#' {
			return true
		}
	}
	return false
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split cuts the current line into fields exactly as strings.Fields does.
func (lx *Lexer) split() {
	lx.fields = lx.fields[:0]
	raw := lx.raw
	start := -1
	for i := 0; i < len(raw); {
		c := raw[i]
		size := 1
		space := asciiSpace[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(raw[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			lx.fields = append(lx.fields, raw[start:i])
			start = -1
		case !space && start < 0:
			if len(lx.fields) == 0 {
				lx.first = i
			}
			start = i
		}
		i += size
	}
	if start >= 0 {
		lx.fields = append(lx.fields, raw[start:])
	}
}

// Fields returns the current line's fields. The slice is valid until the
// next call to Next.
func (lx *Lexer) Fields() []string { return lx.fields }

// Tail returns the current line after its first field, with surrounding
// whitespace trimmed: the raw remainder a header directive parses itself,
// since a quoted name may contain spaces.
func (lx *Lexer) Tail() string {
	return strings.TrimSpace(lx.raw[lx.first+len(lx.fields[0]):])
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
		name, attrs = cutField(rest)
	}
	machine = Superscalar
	for f, more := cutField(attrs); f != ""; f, more = cutField(more) {
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

// cutField returns the first whitespace-separated field of s and the rest of
// s after it; the field is "" when s holds only whitespace.
func cutField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// ParseNodeAttrs applies a node directive's attributes (the fields after its
// name) to n, in order: op=, lat=, dr= and writes=<type>[:<δw>],…. n starts
// as AddNode leaves it; machine decides whether offsets are allowed. On
// error n is partly updated and the caller discards the graph.
func ParseNodeAttrs(n *Node, attrs []string, machine MachineKind) *ParseError {
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
				if n.Writes == nil {
					n.Writes = make(map[RegType]int64, 1)
				}
				n.Writes[RegType(tname)] = dw
			}
		default:
			return errTok(f, "unknown node attribute %q", k)
		}
	}
	return nil
}

// SizeHint estimates the node and edge counts of a graph from its text by
// counting "node " and "edge ", so a parser can presize its slices. A name
// containing either word, or a tab after the directive, makes it a little
// off; the slices then grow as usual. Each count is capped by the line
// count, since every directive takes a line of its own: text that repeats
// the words on one line cannot make a parser reserve more than it would
// build from real directives.
func SizeHint(src string) (nodes, edges int) {
	lines := strings.Count(src, "\n") + 1
	return min(strings.Count(src, "node "), lines), min(strings.Count(src, "edge "), lines)
}
