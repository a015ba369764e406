package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/kernels"
	"regsat/internal/rs"
	"regsat/internal/schedule"
	"regsat/internal/solver"
)

// filledStats sets every field of a solver.Stats, found by reflection, to a
// distinct non-zero value starting at base.
func filledStats(base int64) *solver.Stats {
	var s solver.Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(base + int64(i))
	}
	return &s
}

// requireAllSet fails when any field of the struct v points to is zero,
// apart from the named ones: a field added to a persisted type later must
// be set here, and so round-tripped, before this test passes again.
func requireAllSet(t *testing.T, v any, skip ...string) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
next:
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		for _, s := range skip {
			if s == name {
				continue next
			}
		}
		if rv.Field(i).IsZero() {
			t.Fatalf("%s.%s is not set by the round-trip fixture", rv.Type(), name)
		}
	}
}

// TestRecordRoundTripEveryField: every persisted field of an RS result and
// of a cyclic result, each set to a distinct non-zero value, survives
// Put/Get exactly.
func TestRecordRoundTripEveryField(t *testing.T) {
	g, rt, fp := testGraph(t)
	times := make([]int64, g.NumNodes())
	for i := range times {
		times[i] = int64(100 + 3*i)
	}
	want := &rs.Result{
		Type:          rt,
		RS:            7,
		Antichain:     []int{2, 1, g.NumNodes() - 1},
		Exact:         true,
		Witness:       schedule.New(g, times),
		ILP:           &rs.ILPInfo{Vars: 31, IntVars: 32, Constrs: 33, RedundantArcs: 34, NeverAlivePairs: 35},
		ILPUpperBound: 9,
		SolverStats:   filledStats(1 << 40),
		BBStats:       &rs.ExactStats{Leaves: 41, Pruned: -42, Capped: true, UpperBound: 43},
	}
	// Killing aliases a live analysis and is never persisted.
	requireAllSet(t, want, "Killing")
	requireAllSet(t, want.ILP)
	requireAllSet(t, want.SolverStats)
	requireAllSet(t, want.BBStats)

	wantCy := &cyclic.Result{
		Type:      ddg.Float,
		Windows:   []int{3, 5, 8},
		PerIter:   2,
		Converged: true,
		Window:    3,
		Slope:     1.625,
		Exact:     true,
		Periodic: &cyclic.Periodic{II: 4, RS: 5, Exact: true, UpperBound: 6, Jmax: 2,
			Stats: filledStats(-500)},
	}
	requireAllSet(t, wantCy)
	requireAllSet(t, wantCy.Periodic)
	requireAllSet(t, wantCy.Periodic.Stats)

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(fp, rt, "k", want)
	got, ok := s.Get(fp, g, rt, "k")
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RS round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	s.PutCyclic("cyclic-fp", ddg.Float, "k", wantCy)
	gotCy, ok := s.GetCyclic("cyclic-fp", ddg.Float, "k")
	if !ok {
		t.Fatal("GetCyclic after PutCyclic missed")
	}
	if !reflect.DeepEqual(gotCy, wantCy) {
		t.Fatalf("cyclic round trip changed the result:\n got %+v\nwant %+v", gotCy, wantCy)
	}
}

// certifiedLoop is a two-node recurrence small enough for the periodic MILP.
func certifiedLoop(t testing.TB) (*cyclic.Loop, *cyclic.Result) {
	l, err := cyclic.ParseString(`ddg "rt" loop
node a op=mul lat=2 writes=float
node b op=add lat=1 writes=float
edge a b flow float
edge b a flow float dist=1
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cyclic.Analyze(context.Background(), l, ddg.Float, cyclic.Options{
		Certify: true,
		RS:      rs.Options{Method: rs.MethodExactBB, SkipWitness: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Periodic == nil || res.Periodic.Stats == nil {
		t.Fatal("small kernel did not certify")
	}
	return l, res
}

// TestStoreBitFlipIsMiss: a record with any single bit, or any whole byte,
// flipped anywhere — header, key, fields or checksum — is a counted miss,
// never a hit with different contents. Both record kinds are checked.
func TestStoreBitFlipIsMiss(t *testing.T) {
	g, rt, fp := testGraph(t)
	res := computeResult(t, g, rt, rs.Options{Method: rs.MethodExactBB})
	l, cres := certifiedLoop(t)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(fp, rt, "k", res)
	s.PutCyclic(l.Fingerprint(), ddg.Float, "k", cres)

	for _, c := range []struct {
		name string
		path string
		get  func() bool
	}{
		{"rs", s.path(fp, rt, "k"), func() bool { _, ok := s.Get(fp, g, rt, "k"); return ok }},
		{"cyclic", s.path(l.Fingerprint(), ddg.Float, "k"), func() bool {
			_, ok := s.GetCyclic(l.Fingerprint(), ddg.Float, "k")
			return ok
		}},
	} {
		whole, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range whole {
			for _, mask := range []byte{1, 2, 4, 8, 16, 32, 64, 128, 0xff} {
				flipped := bytes.Clone(whole)
				flipped[i] ^= mask
				if err := os.WriteFile(c.path, flipped, 0o644); err != nil {
					t.Fatal(err)
				}
				before := s.Stats()
				if c.get() {
					t.Fatalf("%s record with byte %d/%d flipped by %#x served as a hit", c.name, i, len(whole), mask)
				}
				after := s.Stats()
				if after.Misses != before.Misses+1 || after.Errors != before.Errors+1 {
					t.Fatalf("%s flip of byte %d by %#x not counted: %+v → %+v", c.name, i, mask, before, after)
				}
			}
		}
		if err := os.WriteFile(c.path, whole, 0o644); err != nil {
			t.Fatal(err)
		}
		if !c.get() {
			t.Fatalf("restored %s record does not serve", c.name)
		}
	}
}

// TestStoreV1TreeIgnored: a store written by the JSON (schema 1) build is
// left exactly as it is — its records are never read, so every lookup is a
// miss — and the new build writes beside it in objects-v2.
func TestStoreV1TreeIgnored(t *testing.T) {
	dir := t.TempDir()
	g, rt, fp := testGraph(t)
	sum := sha256.Sum256([]byte(fp + "\x00" + string(rt) + "\x00k"))
	name := hex.EncodeToString(sum[:])
	v1 := map[string]string{
		"VERSION": "regsat-store v1\n",
		filepath.Join("objects", name[:2], name+".json"): `{"schema":1,"fingerprint":"` + fp +
			`","type":"` + string(rt) + `","optionsKey":"k","rs":2,"exact":true,"savedAtUnixNs":0}`,
	}
	for rel, body := range v1 {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tree := func() map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(dir, path)
			if err != nil || strings.HasPrefix(rel, "objects-v2") {
				return err
			}
			raw, err := os.ReadFile(path)
			files[rel] = string(raw)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(fp, g, rt, "k"); ok {
		t.Fatal("v1 record served by the v2 store")
	}
	if st := s.Stats(); st.Misses != 1 || st.Errors != 0 {
		t.Fatalf("v1 lookup should be a plain miss: %+v", st)
	}
	s.Put(fp, rt, "k", computeResult(t, g, rt, rs.Options{SkipWitness: true}))
	if _, ok := s.Get(fp, g, rt, "k"); !ok {
		t.Fatal("v2 record written beside the v1 tree does not serve")
	}
	if s.objects != filepath.Join(dir, "objects-v2") {
		t.Fatalf("v2 records written to %s", s.objects)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("objects-v2 holds %d records (%v), want 1", n, err)
	}
	if got := tree(); !reflect.DeepEqual(got, v1) {
		t.Fatalf("v1 tree changed:\n got %v\nwant %v", got, v1)
	}
}

// reseal fixes a record's length header and checksum after a mutation, so
// the fuzzer's changes reach the key and field decoders behind them.
func reseal(data []byte) []byte {
	if len(data) < headerLen+trailerLen {
		return nil
	}
	b := bytes.Clone(data)
	binary.LittleEndian.PutUint32(b[lengthOff:], uint32(len(b)))
	end := len(b) - trailerLen
	binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[:end], castagnoli))
	return b
}

// requireMissOrCanonical decodes data as a record materialized against each
// graph in turn. Every decode must either fail or re-encode to exactly data.
func requireMissOrCanonical(t *testing.T, data []byte, graphs []*ddg.Graph) {
	fr, err := parseRecord(data)
	if err != nil {
		return
	}
	fp, typ, opts := string(fr.fp), ddg.RegType(fr.typ), string(fr.opts)
	var again [][]byte
	switch fr.kind {
	case kindRS:
		for _, g := range graphs {
			if res, err := decodeRS(fr.body, g, typ); err == nil {
				again = append(again, encodeRecord(nil, kindRS, fp, typ, opts,
					func(b []byte) []byte { return appendRS(b, res) }))
			}
		}
	case kindCyclic:
		if res, err := decodeCyclic(fr.body, typ); err == nil {
			again = append(again, encodeRecord(nil, kindCyclic, fp, typ, opts,
				func(b []byte) []byte { return appendCyclic(b, res) }))
		}
	}
	for _, b := range again {
		if !bytes.Equal(b, data) {
			t.Fatalf("decoded record re-encodes differently:\n in  %x\n out %x", data, b)
		}
	}
}

// FuzzRecordDecode: any byte string, as read and as resealed with a valid
// length and checksum, is either rejected or a canonical record — decoding
// and re-encoding it gives the same bytes — and nothing panics. Seeds are
// real records of each kind: BB with a witness, ILP with solver stats, and
// cyclic with a periodic certificate.
func FuzzRecordDecode(f *testing.F) {
	var graphs []*ddg.Graph
	seed := func(name string, opts rs.Options) {
		g := kernels.ByNameMust(name).Build(ddg.Superscalar)
		if err := g.Finalize(); err != nil {
			f.Fatal(err)
		}
		graphs = append(graphs, g)
		rt := g.Types()[0]
		res, err := rs.Compute(context.Background(), g, rt, opts)
		if err != nil {
			f.Fatal(err)
		}
		if opts.Method == rs.MethodExactILP && (res.ILP == nil || res.SolverStats == nil) {
			f.Fatal("ILP seed carries no model info or solver stats")
		}
		f.Add(encodeRecord(nil, kindRS, ir.Fingerprint(g), rt, "k",
			func(b []byte) []byte { return appendRS(b, res) }))
	}
	seed("lin-daxpy", rs.Options{Method: rs.MethodExactBB})
	seed("fig2", rs.Options{Method: rs.MethodExactILP})
	l, cres := certifiedLoop(f)
	f.Add(encodeRecord(nil, kindCyclic, l.Fingerprint(), ddg.Float, "k",
		func(b []byte) []byte { return appendCyclic(b, cres) }))

	f.Fuzz(func(t *testing.T, data []byte) {
		requireMissOrCanonical(t, data, graphs)
		requireMissOrCanonical(t, reseal(data), graphs)
	})
}

// TestStoreConcurrentGetPut: goroutines reading and rewriting the same
// records at once, through the shared buffer pool, only ever see whole,
// correct results — nothing a decoded result holds aliases a pooled buffer
// another call reuses.
func TestStoreConcurrentGetPut(t *testing.T) {
	recs := genRecords(t, 5)
	s := primedStore(t, recs)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held []*rs.Result
			for i := 0; i < 50; i++ {
				r := &recs[(w+i)%len(recs)]
				if i%5 == 0 {
					s.Put(r.fp, r.t, benchOptsKey, r.res)
				}
				got, ok := s.Get(r.fp, r.g, r.t, benchOptsKey)
				if !ok {
					t.Errorf("record %d missed", (w+i)%len(recs))
					return
				}
				held = append(held, got)
			}
			for i, got := range held {
				want := recs[(w+i)%len(recs)].res
				if got.RS != want.RS || !reflect.DeepEqual(got.Antichain, want.Antichain) ||
					!reflect.DeepEqual(got.Witness.Times, want.Witness.Times) {
					t.Errorf("worker %d read %d: result changed after later reads", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
