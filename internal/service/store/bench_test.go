package store

import (
	"context"
	"math/rand"
	"testing"

	"regsat/internal/ddg"
	"regsat/internal/gen"
	"regsat/internal/ir"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// benchRecord is one BB result of a generated graph with its store key.
type benchRecord struct {
	g   *ddg.Graph
	t   ddg.RegType
	fp  string
	res *rs.Result
}

// benchOptsKey has the shape and length of the batch engine's key for bb
// requests, so path hashing costs what it costs in the daemon.
var benchOptsKey = "m1|l0|rfalse|wfalse|s" + (solver.Options{}).Key()

// genRecords computes exact BB results, witnesses included, for every
// register type of the first n graphs of the five generator families at
// their default parameters on the superscalar machine (int and float
// values, seeds drawn from seed 2004).
func genRecords(tb testing.TB, n int) []benchRecord {
	tb.Helper()
	rng := rand.New(rand.NewSource(2004))
	fams := gen.Families()
	var recs []benchRecord
	for k := 0; k < n; k++ {
		f := fams[k%len(fams)]
		d := f.Defaults
		g, err := f.Generate(gen.Params{Seed: rng.Int63(), Machine: ddg.Superscalar,
			Size: d.Size, Width: d.Width, Density: d.Density, Types: []ddg.RegType{ddg.Int, ddg.Float}})
		if err != nil {
			tb.Fatal(err)
		}
		fp := ir.Fingerprint(g)
		for _, t := range g.Types() {
			res, err := rs.Compute(context.Background(), g, t, rs.Options{Method: rs.MethodExactBB})
			if err != nil {
				tb.Fatal(err)
			}
			recs = append(recs, benchRecord{g: g, t: t, fp: fp, res: res})
		}
	}
	return recs
}

// primedStore opens a store in a fresh directory holding every record.
func primedStore(tb testing.TB, recs []benchRecord) *Store {
	tb.Helper()
	s, err := Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		s.Put(r.fp, r.t, benchOptsKey, r.res)
	}
	if st := s.Stats(); st.Puts != int64(len(recs)) {
		tb.Fatalf("priming wrote %d of %d records", st.Puts, len(recs))
	}
	return s
}

const benchGraphs = 20

// BenchmarkStoreGet is the store layer's read benchmark: one op is one hit
// on a BB record of a generated graph, cycling through the records.
func BenchmarkStoreGet(b *testing.B) {
	recs := genRecords(b, benchGraphs)
	s := primedStore(b, recs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &recs[i%len(recs)]
		if _, ok := s.Get(r.fp, r.g, r.t, benchOptsKey); !ok {
			b.Fatal("record missing")
		}
	}
}

// BenchmarkStorePut is the store layer's write benchmark: one op writes
// one BB record of a generated graph, cycling through the records (the
// fan-out directories exist after the first pass, as in a long-lived
// store).
func BenchmarkStorePut(b *testing.B) {
	recs := genRecords(b, benchGraphs)
	s := primedStore(b, recs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &recs[i%len(recs)]
		s.Put(r.fp, r.t, benchOptsKey, r.res)
	}
	b.StopTimer()
	if st := s.Stats(); st.Errors != 0 {
		b.Fatalf("%d failed writes", st.Errors)
	}
}

// TestStoreGetAllocs bounds a hit's allocations: the path, the file, the
// result with its BB stats and witness schedule, the antichain and the
// witness times — about seven.
func TestStoreGetAllocs(t *testing.T) {
	recs := genRecords(t, 5)
	s := primedStore(t, recs)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		r := &recs[i%len(recs)]
		i++
		if _, ok := s.Get(r.fp, r.g, r.t, benchOptsKey); !ok {
			t.Fatal("record missing")
		}
	})
	t.Logf("%.1f allocations per hit", allocs)
	if allocs > 8 {
		t.Fatalf("a store hit makes %.1f allocations, bound 8", allocs)
	}
}
