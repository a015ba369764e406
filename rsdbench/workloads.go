package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"regsat/client"
)

// workload is one traffic mix. Its timed phase is a fixed number of passes,
// each a fixed list of requests, so two commits given the same seed and
// --seconds do exactly the same work; --seconds only sets how many passes
// (seconds × rate items, rounded up to whole passes).
type workload struct {
	name string
	// conns is the number of closed-loop client connections (at most nproc).
	conns int
	// setups is how many times a run sets up from scratch; setup_s is the
	// median and the last set-up serves the timed phase.
	setups int
	// rate is the nominal items/s that sizes the timed phase.
	rate float64
	// newScenario builds the workload's inputs for one run.
	newScenario func(b *bench, w workload) (scenario, error)
	// purpose checks, from the /metrics deltas of the timed phase, that the
	// workload exercised the layer it exists for.
	purpose func(p phaseCounters) error
}

// scenario is one run of a workload: inputs and references are built before
// any timing starts (newScenario), setup is timed as setup_s, and pass
// returns the i-th pass's requests.
type scenario interface {
	setup(b *bench, i int) (*fleet, error)
	pass(i int) []request
	passItems() int
}

// fleet is the set of daemons serving one set-up; the client talks to entry.
type fleet struct {
	entry *daemon
	all   []*daemon
}

func (f *fleet) stop() {
	for _, d := range f.all {
		d.stop()
	}
}

// workloads are the traffic mixes; README.md records why each exists.
var workloads = []workload{
	{
		name: "warm-memo", conns: 1, setups: 9, rate: 6000,
		newScenario: newWarmSet,
		purpose: func(p phaseCounters) error {
			return atLeast("memo hit share", p.memoHitShare(), 0.99)
		},
	},
	{
		name: "store-spill", conns: 1, setups: 3, rate: 4000,
		newScenario: newStoreSpill,
		purpose: func(p phaseCounters) error {
			if err := atMost("memo hit share", p.memoHitShare(), 0.01); err != nil {
				return err
			}
			return atLeast("store hit share", p.storeHitShare(), 0.8)
		},
	},
	{
		name: "cold-ilp", conns: 2, setups: 21, rate: 400,
		newScenario: newColdILP,
		purpose: func(p phaseCounters) error {
			if p.memoHits+p.l2Hits != 0 {
				return fmt.Errorf("%v cache hits on unique inputs", p.memoHits+p.l2Hits)
			}
			return atMost("solver fallbacks", p.get("regsat_solver_fallbacks_total"), 0)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// passes is the number of passes of the timed phase, at least two so that
// the traced run has an untraced and a traced one.
func (w workload) passes(seconds int, passItems int) int {
	return max(2, int(math.Ceil(float64(seconds)*w.rate/float64(passItems))))
}

func atLeast(what string, got, want float64) error {
	if got < want {
		return fmt.Errorf("%s %.4f, want at least %g", what, got, want)
	}
	return nil
}

func atMost(what string, got, want float64) error {
	if got > want {
		return fmt.Errorf("%s %.4f, want at most %g", what, got, want)
	}
	return nil
}

// bbRequest asks for exact BB saturation, the daemon's combinatorial engine.
var bbRequest = client.AnalyzeOptions{Method: "bb"}

// ilpRequest asks for the MILP engine with each solve capped at
// ilpMaxNodes branch-and-bound nodes. The solver's run time is heavy-tailed:
// about one default-size graph in 6,000 needs tens of thousands of nodes
// (one layered graph took 92,410 nodes and 30 s), and at the default
// 200,000-node cap such a solve can outlast the daemon's 60 s request
// deadline. Typical graphs need fewer than a hundred nodes. A capped answer
// is a proven interval: the oracle accepts it when it contains the
// reference, and it counts against exact_share.
var ilpRequest = client.AnalyzeOptions{Method: "ilp", Solver: client.SolverOptions{MaxNodes: ilpMaxNodes}}

const ilpMaxNodes = 10000

// batchSize is the number of items per request on the batched workloads
// (warm-memo, store-spill, priming and the cluster probe). It is the size of
// the one multi-item request the repository's own daemon checks send: the
// committed corpus, the 26 top-level .ddg files of testdata/ (a directory
// reference does not recurse), which the CI jobs rsd-e2e and cluster-smoke
// submit as {"corpus": ["."]}. rsload, the repository's load harness, sends
// one graph per request instead; README.md reports how warm-memo moves
// between the two.
const batchSize = 26

// shuffled returns a deterministic permutation of items.
func shuffled(items []*item, rng *rand.Rand) []*item {
	out := append([]*item(nil), items...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmSet is the warm-memo workload: a fixed working set well under the
// memo, with about one loop in eight, primed during set-up and then
// re-requested in shuffled batches.
type warmSet struct {
	set  []*item
	seed int64
}

const (
	warmSetSize = 256
	warmRounds  = 16 // working-set rounds per pass
)

func newWarmSet(b *bench, _ workload) (scenario, error) {
	c := newCorpus(b.seed, "working-set", true)
	b.corpora = append(b.corpora, c)
	set, err := c.take(warmSetSize)
	if err != nil {
		return nil, err
	}
	if err := computeRefs(b.ctx, set); err != nil {
		return nil, err
	}
	return &warmSet{set: set, seed: b.seed}, nil
}

func (s *warmSet) passItems() int { return warmRounds * len(s.set) }

func (s *warmSet) pass(i int) []request {
	return rounds(s.set, warmRounds, rand.New(rand.NewSource(s.seed*7919+int64(i))))
}

// rounds is n shuffled rounds of items, in "bb" batches.
func rounds(items []*item, n int, rng *rand.Rand) []request {
	var reqs []request
	for r := 0; r < n; r++ {
		reqs = append(reqs, batches(shuffled(items, rng), batchSize, bbRequest)...)
	}
	return reqs
}

func (s *warmSet) setup(b *bench, i int) (*fleet, error) {
	f, err := b.startSingle(fmt.Sprintf("rsd-%d", i), "")
	if err != nil {
		return nil, err
	}
	return f, b.prime(f, s.set, 1)
}

// storeSpill is the store-spill workload: a working set four times the
// daemon's default 1,024-entry memo, cycled in a fixed order so the LRU
// memo never hits. A first daemon populates a fresh store; the timed phase
// runs on a restarted daemon over the same store. One item in eight of each
// pass has never been seen and is computed and written through.
type storeSpill struct {
	set   []*item
	novel [][]*item // per pass
}

const (
	storeSetSize   = 4096
	storePassItems = 4096
)

func newStoreSpill(b *bench, w workload) (scenario, error) {
	c := newCorpus(b.seed, "working-set", true)
	b.corpora = append(b.corpora, c)
	set, err := c.take(storeSetSize)
	if err != nil {
		return nil, err
	}
	// Novel items are drawn from the working-set stream after the set, so
	// they are guaranteed distinct from it.
	n := w.passes(b.seconds, storePassItems)
	s := &storeSpill{set: set}
	for i := 0; i < n; i++ {
		nv, err := c.take(storePassItems / 8)
		if err != nil {
			return nil, err
		}
		s.novel = append(s.novel, nv)
	}
	all := append([]*item(nil), set...)
	for _, nv := range s.novel {
		all = append(all, nv...)
	}
	return s, computeRefs(b.ctx, all)
}

func (s *storeSpill) passItems() int { return storePassItems }

func (s *storeSpill) pass(i int) []request {
	items := make([]*item, 0, storePassItems)
	known := i * (storePassItems - len(s.novel[i]))
	for k := 0; k < storePassItems; k++ {
		if k%8 == 7 {
			items = append(items, s.novel[i][k/8])
			continue
		}
		items = append(items, s.set[known%len(s.set)])
		known++
	}
	return batches(items, batchSize, bbRequest)
}

func (s *storeSpill) setup(b *bench, i int) (*fleet, error) {
	dir := filepath.Join(b.setupDir(i), "store")
	first, err := b.startSingle(fmt.Sprintf("rsd-populate-%d", i), dir)
	if err != nil {
		return nil, err
	}
	if err := b.prime(first, s.set, 1); err != nil {
		return nil, fmt.Errorf("populating the store: %w", err)
	}
	first.stop()
	return b.startSingle(fmt.Sprintf("rsd-restarted-%d", i), dir)
}

// coldILP is the cold-ilp workload: unique acyclic graphs, one per request,
// solved with method "ilp" by a fresh daemon without a store.
type coldILP struct {
	passes [][]*item
}

const coldPassItems = 128

func newColdILP(b *bench, w workload) (scenario, error) {
	c := newCorpus(b.seed, "unique-acyclic", false)
	b.corpora = append(b.corpora, c)
	s := &coldILP{}
	for i := 0; i < w.passes(b.seconds, coldPassItems); i++ {
		items, err := c.take(coldPassItems)
		if err != nil {
			return nil, err
		}
		if err := computeRefs(b.ctx, items); err != nil {
			return nil, err
		}
		s.passes = append(s.passes, items)
	}
	return s, nil
}

func (s *coldILP) passItems() int { return coldPassItems }

func (s *coldILP) pass(i int) []request { return batches(s.passes[i], 1, ilpRequest) }

func (s *coldILP) setup(b *bench, i int) (*fleet, error) {
	return b.startSingle(fmt.Sprintf("rsd-%d", i), "")
}

// startSingle starts one daemon on an OS-assigned port, with a store when
// storeDir is set.
func (b *bench) startSingle(name, storeDir string) (*fleet, error) {
	d, err := b.startDaemon(name, daemonArgs("127.0.0.1:0", storeDir)...)
	if err != nil {
		return nil, err
	}
	return &fleet{entry: d, all: []*daemon{d}}, nil
}

// startFleet starts n clustered replicas. Membership is fixed at boot, so
// each replica's port is chosen up front; the listening lines confirm them.
func (b *bench) startFleet(n int) (*fleet, error) {
	var addrs, peers []string
	for r := 0; r < n; r++ {
		a, err := fleetPort(r)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, a)
		peers = append(peers, "http://"+a)
	}
	f := &fleet{}
	for r, a := range addrs {
		args := append(daemonArgs(a, ""), "-peers", strings.Join(peers, ","), "-self", peers[r])
		d, err := b.startDaemon(fmt.Sprintf("rsd-replica%d", r), args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		if d.base != peers[r] {
			f.stop()
			return nil, fmt.Errorf("replica %d listens on %s, expected %s", r, d.base, peers[r])
		}
		f.all = append(f.all, d)
	}
	f.entry = f.all[0]
	return f, nil
}

func daemonArgs(addr, storeDir string) []string {
	return []string{"-addr", addr, "-store", storeDir, "-pprof", "-log-level", "warn", "-drain-notice", "0"}
}

// prime sends items once, batched, and verifies every answer. It is part of
// set-up.
func (b *bench) prime(f *fleet, items []*item, conns int) error {
	hc := newHTTPClient(conns)
	defer hc.CloseIdleConnections()
	reqs := batches(items, batchSize, bbRequest)
	wall, outs := runPass(b.ctx, hc, f.entry.base, reqs, conns)
	var t tally
	t.add(reqs, outs, wall)
	if t.failed > 0 {
		return fmt.Errorf("%d of %d priming items failed; first: %v", t.failed, t.attempted, t.firstErr)
	}
	return nil
}

// phaseCounters is the /metrics movement of a timed phase, summed over every
// daemon of the fleet, with the entry daemon's item count kept apart.
type phaseCounters struct {
	sum        counters
	entryItems float64
	memoHits   float64
	l2Hits     float64
	computed   float64
}

func (p phaseCounters) get(name string) float64 { return p.sum[name] }

func (p phaseCounters) memoHitShare() float64 {
	return share(p.memoHits, p.memoHits+p.l2Hits+p.computed)
}

func (p phaseCounters) storeHitShare() float64 {
	return share(p.get("regsat_store_hits_total"), p.get("regsat_store_hits_total")+p.get("regsat_store_misses_total"))
}

// forwardedShare is the share of items the non-entry replicas of a fleet
// served; the client talks only to the entry, so each of those crossed one
// hop.
func (p phaseCounters) forwardedShare() float64 {
	all := p.get("regsat_items_total")
	return share(all-p.entryItems, all)
}

func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func newPhaseCounters(before, after []counters) phaseCounters {
	p := phaseCounters{sum: counters{}}
	for i := range after {
		d := after[i].delta(before[i])
		for k, v := range d {
			p.sum[k] += v
		}
		if i == 0 {
			p.entryItems = d["regsat_items_total"]
		}
	}
	p.memoHits = p.get("regsat_memo_hits_total")
	p.l2Hits = p.get("regsat_memo_l2_hits_total")
	p.computed = p.get("regsat_rs_computed_total")
	return p
}

// scrapeAll scrapes every daemon of the fleet, entry first.
func scrapeAll(ctx context.Context, f *fleet) ([]counters, error) {
	var out []counters
	for _, d := range f.all {
		c, err := d.scrape(ctx)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", d.name, err)
		}
		out = append(out, c)
	}
	return out, nil
}

func sampleAll(ctx context.Context, f *fleet) ([]procSample, error) {
	var out []procSample
	for _, d := range f.all {
		s, err := d.sample(ctx)
		if err != nil {
			return nil, fmt.Errorf("sampling %s: %w", d.name, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// setUp runs the workload's set-up the configured number of times and
// returns the last fleet with every set-up's duration, in seconds.
func (b *bench) setUp(w workload, sc scenario, times int) (*fleet, []float64, error) {
	var f *fleet
	var durs []float64
	for i := 0; i < times; i++ {
		if f != nil {
			// The previous set-up's daemons and files go before the clock
			// starts, so its disk writeback does not land in this one.
			f.stop()
			if err := os.RemoveAll(b.setupDir(i - 1)); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		f, err = sc.setup(b, i)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	b.logf("set-up times %.4v s", durs)
	return f, durs, nil
}

// setupDir is the scratch directory of the i-th set-up of a run.
func (b *bench) setupDir(i int) string {
	return filepath.Join(b.workDir, fmt.Sprintf("setup-%d", i))
}
