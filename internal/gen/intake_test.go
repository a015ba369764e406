package gen

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/ddg/ddgtest"
	"regsat/internal/ir"
)

// corpusTexts returns every committed .ddg file under the repository's
// testdata/ (flat graphs and loops, regressions included), sorted by path.
func corpusTexts(t testing.TB) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir("../../testdata", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".ddg") {
			return err
		}
		raw, err := os.ReadFile(path)
		out[path] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no .ddg files under testdata/")
	}
	return out
}

// pinnedFingerprints is the SHA-256 of the fingerprint list
// TestFingerprintsPinned builds. Fingerprints key the on-disk result store
// and the cluster ring, so a change of encoding, of Finalize's edge order or
// of the parser must not move it.
const pinnedFingerprints = "6b8538858c9318544f0ba4e50ecfad2379fd67a6b468bd23d625db27c555bb84"

// TestFingerprintsPinned hashes the fingerprints of the committed corpus and
// of 1,000 generated graphs and 200 generated loops (each as generated and
// again parsed from its Format text) and compares the result with the
// recorded value.
func TestFingerprintsPinned(t *testing.T) {
	var list strings.Builder
	texts := corpusTexts(t)
	paths := make([]string, 0, len(texts))
	for p := range texts {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(&list, "%s %s\n", filepath.ToSlash(p), textFingerprint(t, texts[p]))
	}
	for _, f := range Families() {
		for i := 0; i < 200; i++ {
			g, err := f.Generate(sweepParams(f, i))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&list, "%s %s %s\n", g.Name, ir.Fingerprint(g), textFingerprint(t, g.Format()))
		}
	}
	for _, f := range CyclicFamilies() {
		for i := 0; i < 100; i++ {
			l, err := f.Generate(cyclicSweepParams(f, i))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&list, "%s %s %s\n", l.Name, l.Fingerprint(), textFingerprint(t, l.Format()))
		}
	}
	sum := sha256.Sum256([]byte(list.String()))
	if got := hex.EncodeToString(sum[:]); got != pinnedFingerprints {
		t.Fatalf("fingerprint list hash %s, want %s", got, pinnedFingerprints)
	}
}

// textFingerprint parses a .ddg text of either format and returns the
// fingerprint of the finalized graph or of the loop.
func textFingerprint(t testing.TB, text string) string {
	t.Helper()
	if cyclic.Detect(text) {
		l, err := cyclic.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		return l.Fingerprint()
	}
	g, err := ddg.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ir.Fingerprint(g)
}

// overlongLine reports whether text has a line longer than bufio.Scanner's
// 64 KiB token limit: the reference parsers reject such text by design, the
// lexer does not.
func overlongLine(text string) bool {
	for _, line := range strings.Split(text, "\n") {
		if len(line) > bufio.MaxScanTokenSize {
			return true
		}
	}
	return false
}

// sameError requires two parse outcomes to fail alike: both or neither, with
// the same message and, for a *ddg.ParseError, the same position and token.
func sameError(t *testing.T, label string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: error %v, reference %v", label, got, want)
	}
	if got == nil {
		return
	}
	if got.Error() != want.Error() {
		t.Fatalf("%s: error %q, reference %q", label, got, want)
	}
	var pg, pw *ddg.ParseError
	if errors.As(got, &pg) != errors.As(want, &pw) {
		t.Fatalf("%s: error %T, reference %T", label, got, want)
	}
	if pg != nil && *pg != *pw {
		t.Fatalf("%s: parse error %+v, reference %+v", label, *pg, *pw)
	}
}

// checkFlatParse runs text through ddg.ParseString and the reference
// parser and requires the same error, or the same graph: Format, Finalize's
// outcome, fingerprint and critical path (which must also equal the digraph
// longest path measured independently of Finalize).
func checkFlatParse(t *testing.T, label, text string) {
	t.Helper()
	got, gerr := ddg.ParseString(text)
	if overlongLine(text) {
		return
	}
	want, werr := ddgtest.ParseString(text)
	sameError(t, label, gerr, werr)
	if gerr != nil {
		return
	}
	if got.Format() != want.Format() {
		t.Fatalf("%s: Format differs:\n%s\nreference:\n%s", label, got.Format(), want.Format())
	}
	sameError(t, label+" (Finalize)", got.Finalize(), want.Finalize())
	if !got.Finalized() {
		return
	}
	if a, b := ir.Fingerprint(got), ir.Fingerprint(want); a != b {
		t.Fatalf("%s: fingerprint %s, reference %s", label, a, b)
	}
	cp, _, _, err := want.ToDigraph().CriticalPath()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.CriticalPath() != cp || want.CriticalPath() != cp {
		t.Fatalf("%s: critical path %d (reference graph %d), digraph %d", label, got.CriticalPath(), want.CriticalPath(), cp)
	}
}

// checkCyclicParse is checkFlatParse for the loop format: Detect, the parse
// error or Format, fingerprint, Validate's outcome and the critical path of
// the loop body.
func checkCyclicParse(t *testing.T, label, text string) {
	t.Helper()
	got, gerr := cyclic.ParseString(text)
	if overlongLine(text) {
		return
	}
	if a, b := cyclic.Detect(text), ddgtest.DetectCyclic(text); a != b {
		t.Fatalf("%s: Detect %t, reference %t", label, a, b)
	}
	want, werr := ddgtest.ParseCyclicString(text)
	sameError(t, label, gerr, werr)
	if gerr != nil {
		return
	}
	if got.Format() != want.Format() {
		t.Fatalf("%s: Format differs:\n%s\nreference:\n%s", label, got.Format(), want.Format())
	}
	if a, b := got.Fingerprint(), want.Fingerprint(); a != b {
		t.Fatalf("%s: fingerprint %s, reference %s", label, a, b)
	}
	sameError(t, label+" (Validate)", got.Validate(), want.Validate())
	if got.Validate() != nil {
		return
	}
	gb, wb := got.Body(), want.Body()
	sameError(t, label+" (body Finalize)", gb.Finalize(), wb.Finalize())
	if gb.Finalized() && gb.CriticalPath() != wb.CriticalPath() {
		t.Fatalf("%s: body critical path %d, reference %d", label, gb.CriticalPath(), wb.CriticalPath())
	}
}

// checkBothParsers runs text through both formats' parser pairs: a loop text
// is an error case of the flat parser and vice versa.
func checkBothParsers(t *testing.T, label, text string) {
	t.Helper()
	checkFlatParse(t, label, text)
	checkCyclicParse(t, label, text)
}

// lexerCases are hand-written inputs around the lexer's rules: line
// terminators, every whitespace strings.Fields accepts, comments, quoting,
// invalid UTF-8, and one input per parse error message.
var lexerCases = []string{
	"",
	"\n\n",
	"# only a comment\n",
	"node a\n",
	"edge a b flow int\n",
	"ddg\n",
	"ddg   \n",
	"ddg t\nddg u\n",
	"ddg t machine=vliw machine=epic\n",
	"ddg t machine=mips\n",
	"ddg t mach=vliw\n",
	"ddg t loop\n",
	"ddg t machine=epic loop\nnode a writes=float\n",
	"ddgx loop\nnode a\n",
	"ddg \"bad\\q\" machine=vliw\n",
	"ddg \"unterminated machine=vliw\n",
	"ddg \"quoted name\"machine=vliw\nnode a\n",
	"ddg \"a \\\"b\\\" c\" machine=epic\nnode a lat=2 writes=int\n",
	"ddg t\r\nnode a lat=1 writes=int\r\nnode b lat=2 writes=int\r\nedge a b flow int\r\n",
	"ddg t\r\nnode fla lat=1 writes=int\r\nnode b\r\nedge fla b flow fl\r\n",
	"ddg t\rnode a\n",
	"ddg t\nnode a\r\r\n",
	"ddg t\n\tnode\ta\tlat=1\twrites=int\nnode\vb\flat=1\nedge a\tb serial lat=1\n",
	"ddg t\nnode a lat=1\nnode b lat=1\u0085writes=int\nedge a b serial lat=1　\n",
	"ddg t\nnode a b lat=1\nnode c\xff lat=1 writes=int\nedge a b c\xff serial lat=1\n",
	"ddg t\nnode \xc2 lat=1\n",
	"  # indented comment\nddg t\n   node a lat=3 writes=float   \n#node b\nedge a a serial lat=1\n",
	"ddg t\nnode a lat=1 # trailing\n",
	"ddg t\nnode a\nnode a\n",
	"ddg t\nnode\n",
	"ddg t\nnode a bogus\n",
	"ddg t\nnode a color=red\n",
	"ddg t\nnode a lat=x\n",
	"ddg t\nnode a lat=-1\n",
	"ddg t\nnode a dr=1\n",
	"ddg t machine=vliw\nnode a dr=z\n",
	"ddg t\nnode a writes=\n",
	"ddg t\nnode a writes=int,\n",
	"ddg t\nnode a writes=,int\n",
	"ddg t\nnode a writes=int:x\n",
	"ddg t\nnode a writes=int:1\n",
	"ddg t machine=vliw\nnode a writes=int:1,float:2,int:3 dr=2 op=ld lat=4 op=st\n",
	"ddg t\nnode a writes=int,float,int\nnode b\n",
	"ddg t\nnode a lat=1 writes=int\nedge a\n",
	"ddg t\nnode a lat=1 writes=int\nedge a b flow int\n",
	"ddg t\nnode a lat=1 writes=int\nedge b a flow int\n",
	"ddg t\nnode a lat=1 writes=int\nedge a a flow int\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b flow\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b flow float\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b flow int lat\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b flow int lat=q\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b flow int lat=0\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b flow int dist=1\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b serial\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b serial lat=-2\n",
	"ddg t machine=vliw\nnode a lat=1 writes=int\nnode b\nedge a b serial lat=-2\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b serial cost=1\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b serial lat=1 lat=2\n",
	"ddg t\nnode a lat=1 writes=int\nnode b\nedge a b anti\n",
	"ddg t\nnode a lat=1 writes=int\nnode b lat=1 writes=int\nedge a b flow int\nedge b a flow int\n",
	"ddg t\nnode e lat=1 writes=int\nnode node lat=1\nedge node e serial lat=1\nedge e node flow int\n",
	"ddg t\nnode a lat=2 writes=int,float\nnode b lat=1\nedge a b flow float\n",
	"ddg t\nnode a lat=2 writes=int,float,vec\n",
	"ddg t\nnode a lat=5\nnode b lat=0\nedge a b serial lat=0\n",
	"ddg t loop\nnode a lat=1 writes=float\nedge a a flow float dist=1\n",
	"ddg t loop\nnode a lat=1 writes=float\nedge a a flow float\n",
	"ddg t loop\nnode a lat=1 writes=float\nedge a a serial lat=1 dist=0\n",
	"ddg t loop\nnode a lat=1 writes=float\nnode b\nedge a b flow float dist=-1\n",
	"ddg t loop\nnode a lat=1 writes=float\nnode b\nedge a b flow float dist=x\n",
	"ddg t loop\nnode a lat=1 writes=float\nnode b\nedge a b flow float dist=1048577\n",
	"ddg t loop\nnode a lat=1 writes=float\nnode b\nedge a b flow float speed=1\n",
	"ddg t loop\nnode a lat=1 writes=float\nnode b\nedge a b serial lat=1 dist=2 dist=3\n",
	"ddg t loop\nnode a lat=1 writes=float\nnode b\nedge a b serial dist=2\n",
	"ddg t loop\nnode a lat=1 writes=float\nnode b lat=1 writes=float\nedge a b flow float\nedge b a flow float\n",
	"ddg t loop machine=vliw\nnode a lat=1 writes=float:1 dr=1\nnode b lat=1\nedge a b serial lat=-1 dist=1\n",
}

// TestParserMatchesReference is the lexer's differential test: the corpus,
// every acyclic and cyclic generator family, the hand-written lexer cases
// and seeded byte mutations of all of them go through the one-pass parsers
// and the reference Scanner parsers (package ddgtest), which must agree on
// every outcome. The fuzz targets' seeds get the same check in
// FuzzParseDDG and FuzzParseCyclicDDG.
func TestParserMatchesReference(t *testing.T) {
	var inputs []string
	for _, text := range corpusTexts(t) {
		inputs = append(inputs, text)
	}
	for _, f := range Families() {
		for i := 0; i < 40; i++ {
			g, err := f.Generate(sweepParams(f, i))
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, g.Format())
		}
	}
	for _, f := range CyclicFamilies() {
		for i := 0; i < 40; i++ {
			l, err := f.Generate(cyclicSweepParams(f, i))
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, l.Format())
		}
	}
	inputs = append(inputs, lexerCases...)
	sort.Strings(inputs) // the corpus map iterates in random order
	for i, text := range inputs {
		checkBothParsers(t, fmt.Sprintf("input %d", i), text)
	}
	// Mutations reach the error paths with realistic surroundings.
	rng := rand.New(rand.NewSource(21))
	alphabet := []byte(" \t\r\n=,:#\"-0a\xa0")
	for i, text := range inputs {
		for k := 0; k < 20 && len(text) > 0; k++ {
			b := []byte(text)
			switch pos := rng.Intn(len(b)); rng.Intn(4) {
			case 0:
				b = append(b[:pos], b[pos+1:]...)
			case 1:
				b = append(b[:pos], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[pos:]...)...)
			case 2:
				b[pos] = alphabet[rng.Intn(len(alphabet))]
			default:
				b = b[:pos]
			}
			checkBothParsers(t, fmt.Sprintf("input %d mutation %d", i, k), string(b))
		}
	}
}

// TestRepeatedWritesKeepLastDelay: a type written twice by one node — in one
// writes= list or across two of them — keeps its last δw, in both formats,
// through the lexer and the reference parsers alike (which set the writes
// through SetWrites), and the writes come out in type order.
func TestRepeatedWritesKeepLastDelay(t *testing.T) {
	const body = "node a lat=2 writes=int:1,float:2,int:3 writes=float:4,acc\n" +
		"node b lat=1 writes=float:5,float\n" +
		"edge a b flow int\n"
	const wantA = "node a op=op lat=2 writes=acc,float:4,int:3\n"
	const wantB = "node b op=op lat=1 writes=float\n"
	for _, text := range []string{
		"ddg \"flat\" machine=vliw\n" + body,
		"ddg \"loop\" machine=vliw loop\n" + body + "edge b a flow float dist=1\n",
	} {
		checkBothParsers(t, text, text)
		var formats []string
		if cyclic.Detect(text) {
			got, err := cyclic.ParseString(text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ddgtest.ParseCyclicString(text)
			if err != nil {
				t.Fatal(err)
			}
			formats = []string{got.Format(), want.Format()}
		} else {
			got, err := ddg.ParseString(text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ddgtest.ParseString(text)
			if err != nil {
				t.Fatal(err)
			}
			formats = []string{got.Format(), want.Format()}
		}
		for _, f := range formats {
			if !strings.Contains(f, wantA) || !strings.Contains(f, wantB) {
				t.Errorf("Format of %q:\n%s\nwant lines %q and %q", text, f, wantA, wantB)
			}
		}
	}
}
