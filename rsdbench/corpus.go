package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"

	"regsat/client"
	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/gen"
	"regsat/internal/ir"
	"regsat/internal/rs"
)

// item is one generated input: a basic block (graph) or a loop kernel, the
// .ddg text the daemon receives, and the reference answer per register type.
type item struct {
	name  string
	text  string
	graph *ddg.Graph   // acyclic input, nil for a loop
	loop  *cyclic.Loop // loop input, nil for a graph
	ref   map[ddg.RegType]answer
}

// answer is one register type's reference result.
type answer struct {
	rs      int // graphs only
	exact   bool
	windows []int // loops only: RS of each unrolled window
	perIter int   // loops only
}

// corpus is a deterministic, duplicate-free stream of generated inputs. The
// same seed and stream name always yield the same items in the same order.
// Acyclic items cycle through the five gen families at their default
// parameters on the default (superscalar) machine model with int and float
// values; when loops are enabled every eighth item is a loop kernel from
// the cyclic families. Inputs that are structurally identical to an earlier
// one (same fingerprint) are skipped, so no item can hit a cache that an
// earlier distinct item filled.
type corpus struct {
	stream string
	loops  bool
	rng    *rand.Rand
	seen   map[string]bool
	k      int // candidates drawn, duplicates included
	n      int // items kept
	h      hash.Hash
}

var benchTypes = []ddg.RegType{ddg.Int, ddg.Float}

func newCorpus(seed int64, stream string, loops bool) *corpus {
	f := fnv.New64a()
	f.Write([]byte(stream))
	return &corpus{
		stream: stream,
		loops:  loops,
		rng:    rand.New(rand.NewSource(seed ^ int64(f.Sum64()))),
		seen:   map[string]bool{},
		h:      sha256.New(),
	}
}

// take generates the next n items of the stream.
func (c *corpus) take(n int) ([]*item, error) {
	out := make([]*item, 0, n)
	for len(out) < n {
		it, err := c.next()
		if err != nil {
			return nil, err
		}
		if it != nil {
			out = append(out, it)
		}
	}
	return out, nil
}

// next generates one candidate; it returns nil for a structural duplicate.
func (c *corpus) next() (*item, error) {
	p := gen.Params{Seed: c.rng.Int63(), Types: benchTypes}
	k := c.k
	c.k++
	var it *item
	var fp string
	if c.loops && k%8 == 7 {
		fams := gen.CyclicFamilies()
		f := fams[(k/8)%len(fams)]
		d := f.Defaults
		p.Size, p.Width, p.Density = d.Size, d.Width, d.Density
		l, err := f.Generate(p)
		if err != nil {
			return nil, err
		}
		it = &item{name: l.Name, text: l.Format(), loop: l}
		fp = l.Fingerprint()
	} else {
		fams := gen.Families()
		f := fams[k%len(fams)]
		d := f.Defaults
		p.Size, p.Width, p.Density = d.Size, d.Width, d.Density
		g, err := f.Generate(p)
		if err != nil {
			return nil, err
		}
		it = &item{name: g.Name, text: g.Format(), graph: g}
		fp = ir.Fingerprint(g)
	}
	if c.seen[fp] {
		return nil, nil
	}
	c.seen[fp] = true
	c.n++
	c.h.Write([]byte(it.text))
	return it, nil
}

// sum is the hex SHA-256 of every item text generated so far, in order.
func (c *corpus) sum() string { return hex.EncodeToString(c.h.Sum(nil)) }

// bbOptions are the exact-BB options the daemon applies to a "bb" request
// without witnesses (and, inherited, to every window of a loop).
var bbOptions = rs.Options{Method: rs.MethodExactBB, SkipWitness: true}

// computeRefs fills the reference answers of items in-process, straight on
// the generated graphs: acyclic items with exact BB, loops with
// cyclic.Analyze. This path shares no daemon, memo, store, wire or cluster
// code with the answers it checks.
func computeRefs(ctx context.Context, items []*item) error {
	for _, it := range items {
		if it.ref != nil {
			continue
		}
		ref := map[ddg.RegType]answer{}
		if it.loop != nil {
			for _, t := range it.loop.Types() {
				r, err := cyclic.Analyze(ctx, it.loop, t, cyclic.Options{RS: bbOptions})
				if err != nil {
					return fmt.Errorf("reference for %s/%s: %w", it.name, t, err)
				}
				ref[t] = answer{exact: r.Exact, windows: r.Windows, perIter: r.PerIter}
			}
		} else {
			for _, t := range it.graph.Types() {
				r, err := rs.Compute(ctx, it.graph, t, bbOptions)
				if err != nil {
					return fmt.Errorf("reference for %s/%s: %w", it.name, t, err)
				}
				ref[t] = answer{rs: r.RS, exact: r.Exact}
			}
		}
		it.ref = ref
	}
	return nil
}

// check compares one served item with the reference. It returns whether
// every type came back proven exact, and an error naming the first
// disagreement.
func check(it *item, got *client.Item) (exact bool, err error) {
	if got.Error != "" {
		return false, fmt.Errorf("%s: served error %q", it.name, got.Error)
	}
	exact = true
	for t, want := range it.ref {
		if it.loop != nil {
			c := got.Cyclic[string(t)]
			if c == nil {
				return false, fmt.Errorf("%s: no periodic result for type %s", it.name, t)
			}
			if !slices.Equal(c.Windows, want.windows) || c.PerIter != want.perIter || c.Exact != want.exact {
				return false, fmt.Errorf("%s/%s: served windows %v Δ=%d exact=%t, reference %v Δ=%d exact=%t",
					it.name, t, c.Windows, c.PerIter, c.Exact, want.windows, want.perIter, want.exact)
			}
			exact = exact && c.Exact
			continue
		}
		r := got.RS[string(t)]
		if r == nil {
			return false, fmt.Errorf("%s: no result for type %s", it.name, t)
		}
		// A capped answer is an interval [RS, UpperBound] (the bound is
		// omitted when it equals RS); it is right when it contains the exact
		// reference. An exact one must equal it.
		ub := max(r.UpperBound, r.RS)
		switch {
		case r.Exact && want.exact && r.RS != want.rs,
			!r.Exact && want.exact && (r.RS > want.rs || ub < want.rs):
			return false, fmt.Errorf("%s/%s: served RS %d (exact=%t, ub %d), reference %d",
				it.name, t, r.RS, r.Exact, r.UpperBound, want.rs)
		case !want.exact:
			return false, fmt.Errorf("%s/%s: reference search was capped; the answer cannot be verified", it.name, t)
		}
		exact = exact && r.Exact
	}
	if len(got.RS)+len(got.Cyclic) != len(it.ref) {
		return false, fmt.Errorf("%s: served %d types, reference has %d", it.name, len(got.RS)+len(got.Cyclic), len(it.ref))
	}
	return exact, nil
}
