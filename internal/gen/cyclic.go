package gen

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/rs"
)

// Cyclic families generate *loop* DDGs — bodies with loop-carried flow
// dependences at iteration distances ω ≥ 0 — for the periodic-saturation
// engine (internal/cyclic). They mirror the acyclic Family registry: stable
// names, validated knob ranges, deterministic seeds, and a metamorphic
// invariant catalog (CheckCyclic) with delta-minimized regression repros.
//
// The cyclic catalog, per register type of the loop:
//
//	cyclic-format-roundtrip   parse(format(l)) reproduces the loop fingerprint
//	                          and Format is a fixpoint
//	cyclic-fingerprint-dist   bumping one carried edge's ω changes the
//	                          fingerprint (distances are part of identity)
//	dist0-projection-acyclic  the ω=0 projection of a valid loop is a valid,
//	                          cycle-free loop
//	unroll-monotone           RS(k) is non-decreasing and subadditive in the
//	                          window size k
//	dist0-degenerate          a loop with no carried edges has RS(1) equal to
//	                          the plain acyclic saturation of its body
//	periodic-le-window        the exact periodic MILP at the minimum initiation
//	                          interval never exceeds the Jmax-window RS, and at
//	                          a period beyond the one-iteration horizon it
//	                          reaches at least RS(1) (the differential's two
//	                          sandwich containments)

// CyclicFamily is one registered loop-shape generator.
type CyclicFamily struct {
	Name        string
	Description string
	// SizeName and WidthName document what Size and Width mean here.
	SizeName, WidthName string
	// SizeRange and WidthRange are the inclusive valid ranges.
	SizeRange, WidthRange [2]int
	// Defaults are the parameters used when the caller leaves them zero.
	Defaults Params

	// build emits the loop body into l.
	build func(l *cyclic.Loop, p Params, rng *rand.Rand)
}

// Validate checks p against the family's ranges, with the same actionable
// error shape as the acyclic registry.
func (f *CyclicFamily) Validate(p Params) error {
	p = p.withDefaults()
	if p.Size < f.SizeRange[0] || p.Size > f.SizeRange[1] {
		return fmt.Errorf("gen: cyclic family %q: size=%d out of range [%d, %d] (size = %s)",
			f.Name, p.Size, f.SizeRange[0], f.SizeRange[1], f.SizeName)
	}
	if p.Width < f.WidthRange[0] || p.Width > f.WidthRange[1] {
		return fmt.Errorf("gen: cyclic family %q: width=%d out of range [%d, %d] (width = %s)",
			f.Name, p.Width, f.WidthRange[0], f.WidthRange[1], f.WidthName)
	}
	if p.Density < 0 || p.Density > 1 {
		return fmt.Errorf("gen: cyclic family %q: density=%g out of range [0, 1]", f.Name, p.Density)
	}
	if n := p.Size * p.Width * 2; n > MaxNodes {
		return fmt.Errorf("gen: cyclic family %q: size=%d width=%d would generate ~%d body nodes (limit %d)",
			f.Name, p.Size, p.Width, n, MaxNodes)
	}
	for _, t := range p.Types {
		if t == "" {
			return fmt.Errorf("gen: cyclic family %q: empty register type in types list", f.Name)
		}
	}
	return nil
}

// Generate builds the family's loop for p: deterministic in p, validated, and
// guaranteed to define at least one register value.
func (f *CyclicFamily) Generate(p Params) (*cyclic.Loop, error) {
	p = p.withDefaults()
	if err := f.Validate(p); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	name := fmt.Sprintf("%s-%s-z%dw%d-s%d", f.Name, p.Machine, p.Size, p.Width, p.Seed)
	l := cyclic.New(name, p.Machine)
	f.build(l, p, rng)
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("gen: cyclic family %q produced an invalid loop (seed %d): %w", f.Name, p.Seed, err)
	}
	if len(l.Types()) == 0 {
		return nil, fmt.Errorf("gen: cyclic family %q produced a loop with no register values (seed %d)", f.Name, p.Seed)
	}
	return l, nil
}

// addCyclicValue appends a writer to the loop body, drawing machine offsets
// exactly like the acyclic addValueNode.
func addCyclicValue(l *cyclic.Loop, p Params, rng *rand.Rand, name, op string, lat int64, t ddg.RegType) int {
	id := l.AddNode(name, op, lat)
	if p.Machine.HasOffsets() {
		l.SetReadDelay(id, rng.Int63n(3))
	}
	var dw int64
	if p.Machine == ddg.VLIW {
		dw = rng.Int63n(3)
	}
	l.SetWrites(id, t, dw)
	return id
}

// cyclicTypeOf returns the single register type body node u writes.
func cyclicTypeOf(l *cyclic.Loop, u int) ddg.RegType {
	for _, w := range l.Node(u).Writes {
		return w.Type
	}
	panic(fmt.Sprintf("gen: loop node %d writes no value", u))
}

// recurrenceFamily models loop-carried recurrence chains (linear recurrences,
// reductions, induction updates): Size chains of Width ops linked by ω=0 flow
// within an iteration, the chain tail feeding its own head at distance 1 or 2,
// and (with probability Density) an ω=0 coupling edge from the previous chain.
// Dist-0 edges only ever point forward in node-ID order, so the ω=0 subgraph
// is acyclic by construction — the validity invariant of the model.
var recurrenceFamily = &CyclicFamily{
	Name:        "recurrence",
	Description: "loop-carried recurrence chains with cross-chain coupling",
	SizeName:    "independent recurrence chains",
	WidthName:   "operations per chain",
	SizeRange:   [2]int{1, 32},
	WidthRange:  [2]int{1, 16},
	Defaults:    Params{Size: 2, Width: 2, Density: 0.3},
	build: func(l *cyclic.Loop, p Params, rng *rand.Rand) {
		ids := make([][]int, p.Size)
		for c := 0; c < p.Size; c++ {
			ids[c] = make([]int, p.Width)
			for j := 0; j < p.Width; j++ {
				t := p.Types[(c*p.Width+j)%len(p.Types)]
				id := addCyclicValue(l, p, rng, fmt.Sprintf("c%d_op%d", c, j), "body", latIn(rng, 4), t)
				ids[c][j] = id
				if j > 0 {
					l.AddFlowEdge(ids[c][j-1], id, cyclicTypeOf(l, ids[c][j-1]), 0)
				}
			}
			// The recurrence: the chain tail feeds its own head next iteration
			// (or the one after — mixed distances exercise the unroll windows).
			tail := ids[c][p.Width-1]
			l.AddFlowEdge(tail, ids[c][0], cyclicTypeOf(l, tail), 1+rng.Int63n(2))
			// Cross-chain coupling, ω=0, forward in ID order only.
			if c > 0 && rng.Float64() < p.Density {
				u := ids[c-1][rng.Intn(p.Width)]
				l.AddFlowEdge(u, ids[c][rng.Intn(p.Width)], cyclicTypeOf(l, u), 0)
			}
		}
	},
}

// stencilFamily models software-pipelined stencil streams: each stream is a
// load feeding an accumulator at every reuse distance 0..Width−1 (the taps of
// the stencil window — one loaded value stays live across Width iterations),
// plus the accumulator's own ω=1 recurrence. Mixed distances on one value are
// exactly what distinguishes periodic from acyclic saturation. With
// probability Density the previous stream's accumulator couples into the
// current one at ω=0 (forward in ID order, so the ω=0 subgraph stays acyclic).
var stencilFamily = &CyclicFamily{
	Name:        "stencil",
	Description: "stencil streams: multi-distance reuse taps plus accumulator recurrences",
	SizeName:    "stencil streams",
	WidthName:   "taps (reuse window length in iterations)",
	SizeRange:   [2]int{1, 32},
	WidthRange:  [2]int{1, 8},
	Defaults:    Params{Size: 2, Width: 3, Density: 0.25},
	build: func(l *cyclic.Loop, p Params, rng *rand.Rand) {
		prevAcc := -1
		for s := 0; s < p.Size; s++ {
			t := p.Types[s%len(p.Types)]
			ld := addCyclicValue(l, p, rng, fmt.Sprintf("s%d_ld", s), "load", latIn(rng, 4), t)
			acc := addCyclicValue(l, p, rng, fmt.Sprintf("s%d_acc", s), "acc", latIn(rng, 3), t)
			for d := 0; d < p.Width; d++ {
				l.AddFlowEdge(ld, acc, t, int64(d))
			}
			l.AddFlowEdge(acc, acc, t, 1)
			if prevAcc >= 0 && rng.Float64() < p.Density {
				l.AddFlowEdge(prevAcc, acc, cyclicTypeOf(l, prevAcc), 0)
			}
			prevAcc = acc
		}
	},
}

// cyclicFamilies is the loop registry, in listing order.
var cyclicFamilies = []*CyclicFamily{recurrenceFamily, stencilFamily}

// CyclicFamilies returns all registered cyclic families in stable order.
func CyclicFamilies() []*CyclicFamily {
	out := make([]*CyclicFamily, len(cyclicFamilies))
	copy(out, cyclicFamilies)
	return out
}

// CyclicByName looks a cyclic family up by its registry name.
func CyclicByName(name string) (*CyclicFamily, bool) {
	for _, f := range cyclicFamilies {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// CyclicNames returns the registered cyclic family names.
func CyclicNames() []string {
	out := make([]string, len(cyclicFamilies))
	for i, f := range cyclicFamilies {
		out[i] = f.Name
	}
	return out
}

// CyclicCheckOptions tunes how much of the cyclic catalog CheckCyclic runs.
type CyclicCheckOptions struct {
	// MaxWindow caps the unrolled-window sweep (0 = 4). Every window is solved
	// with the exact combinatorial search — greedy estimates are lower bounds
	// and would raise false monotonicity alarms.
	MaxWindow int
	// MaxExactLeaves caps each window's exact search (0 = the rs default).
	MaxExactLeaves int64
	// Certify runs the periodic-MILP sandwich on kernels small enough for it.
	Certify bool
}

func (o CyclicCheckOptions) withDefaults() CyclicCheckOptions {
	if o.MaxWindow <= 0 {
		o.MaxWindow = 4
	}
	return o
}

// CheckCyclic runs the cyclic invariant catalog on the validated loop l and
// returns the first *Violation found (or a plain error if an analysis itself
// fails, which is also a bug: every valid loop must analyze).
func CheckCyclic(ctx context.Context, l *cyclic.Loop, opt CyclicCheckOptions) error {
	opt = opt.withDefaults()
	if err := l.Validate(); err != nil {
		return fmt.Errorf("gen: CheckCyclic needs a valid loop: %w", err)
	}
	if err := checkCyclicRoundTrip(l); err != nil {
		return err
	}
	if err := checkCyclicFingerprint(l); err != nil {
		return err
	}
	if err := checkZeroProjection(l); err != nil {
		return err
	}
	for _, t := range l.Types() {
		if err := checkCyclicType(ctx, l, t, opt); err != nil {
			return err
		}
	}
	return nil
}

func checkCyclicRoundTrip(l *cyclic.Loop) error {
	text := l.Format()
	parsed, err := cyclic.ParseString(text)
	if err != nil {
		return &Violation{Invariant: "cyclic-format-roundtrip", Graph: l.Name,
			Detail: fmt.Sprintf("formatted output failed to parse: %v\n%s", err, text)}
	}
	if got := parsed.Format(); got != text {
		return &Violation{Invariant: "cyclic-format-roundtrip", Graph: l.Name,
			Detail: fmt.Sprintf("Format not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, got)}
	}
	if parsed.Fingerprint() != l.Fingerprint() {
		return &Violation{Invariant: "cyclic-format-roundtrip", Graph: l.Name,
			Detail: "fingerprint changed across parse(format(l))"}
	}
	return nil
}

// checkCyclicFingerprint: iteration distances are part of a loop's identity —
// bumping one carried edge's ω must change the fingerprint, or the daemon's
// memo and store would collide two different loops.
func checkCyclicFingerprint(l *cyclic.Loop) error {
	edges := l.Edges()
	for i := range edges {
		if edges[i].Dist == 0 {
			continue
		}
		bumped := l.Clone()
		bumped.Edges()[i].Dist++
		if bumped.Fingerprint() == l.Fingerprint() {
			return &Violation{Invariant: "cyclic-fingerprint-dist", Graph: l.Name,
				Detail: fmt.Sprintf("edge %d→%d: ω %d and %d fingerprint identically",
					edges[i].From, edges[i].To, edges[i].Dist, edges[i].Dist+1)}
		}
		return nil
	}
	return nil
}

func checkZeroProjection(l *cyclic.Loop) error {
	p := l.ZeroProjection()
	if p.Carried() {
		return &Violation{Invariant: "dist0-projection-acyclic", Graph: l.Name,
			Detail: "ω=0 projection still reports carried edges"}
	}
	if err := p.Validate(); err != nil {
		return &Violation{Invariant: "dist0-projection-acyclic", Graph: l.Name,
			Detail: fmt.Sprintf("ω=0 projection of a valid loop is invalid: %v", err)}
	}
	return nil
}

func checkCyclicType(ctx context.Context, l *cyclic.Loop, t ddg.RegType, opt CyclicCheckOptions) error {
	copt := cyclic.Options{
		MaxWindow: opt.MaxWindow,
		Certify:   opt.Certify,
		RS:        rs.Options{Method: rs.MethodExactBB, MaxLeaves: opt.MaxExactLeaves, SkipWitness: true},
	}
	res, err := cyclic.Analyze(ctx, l, t, copt)
	if err != nil {
		// The engine itself hard-errors on the two differential invariants;
		// map those onto catalog names so they shrink and file like any other.
		msg := err.Error()
		switch {
		case strings.Contains(msg, "monotonicity"):
			return &Violation{Invariant: "unroll-monotone", Graph: l.Name, Type: t, Detail: msg}
		case strings.Contains(msg, "disagreement"):
			return &Violation{Invariant: "periodic-le-window", Graph: l.Name, Type: t, Detail: msg}
		}
		return fmt.Errorf("gen: %s/%s: cyclic analysis failed: %w", l.Name, t, err)
	}
	// Subadditivity: RS(i+j) ≤ RS(i) + RS(j). Capped windows make RS(i)
	// best-found lower bounds, so only check when every window proved exact.
	if res.Exact {
		w := res.Windows
		for i := 1; i < len(w); i++ {
			for j := 1; i+j <= len(w); j++ {
				if w[i+j-1] > w[i-1]+w[j-1] {
					return &Violation{Invariant: "unroll-monotone", Graph: l.Name, Type: t,
						Detail: fmt.Sprintf("subadditivity violated: RS(%d)=%d > RS(%d)+RS(%d)=%d",
							i+j, w[i+j-1], i, j, w[i-1]+w[j-1])}
				}
			}
		}
	}
	// A loop with no carried edges is k independent body copies: RS(1) must
	// equal the plain acyclic saturation of the body.
	if !l.Carried() && res.Exact {
		body := l.Body()
		if err := body.Finalize(); err != nil {
			return fmt.Errorf("gen: %s: body finalize failed: %w", l.Name, err)
		}
		bres, err := rs.Compute(ctx, body, t, rs.Options{
			Method: rs.MethodExactBB, MaxLeaves: opt.MaxExactLeaves, SkipWitness: true})
		if err != nil {
			return fmt.Errorf("gen: %s/%s: body RS failed: %w", l.Name, t, err)
		}
		if bres.Exact && res.Windows[0] != bres.RS {
			return &Violation{Invariant: "dist0-degenerate", Graph: l.Name, Type: t,
				Detail: fmt.Sprintf("carried-free loop has RS(1)=%d but body RS=%d", res.Windows[0], bres.RS)}
		}
	}
	// The lower sandwich: at a period beyond the one-iteration horizon the
	// periodic schedule embeds any single window, so PRS(BigII) ≥ RS(1).
	if opt.Certify && res.Periodic != nil && res.Exact {
		big, err := cyclic.PeriodicRS(ctx, l, t, cyclic.PeriodicOptions{II: l.BigII()})
		if err != nil {
			return fmt.Errorf("gen: %s/%s: big-II periodic solve failed: %w", l.Name, t, err)
		}
		if big.Exact && big.RS < res.Windows[0] {
			return &Violation{Invariant: "periodic-le-window", Graph: l.Name, Type: t,
				Detail: fmt.Sprintf("PRS(II=%d)=%d below RS(1)=%d", big.II, big.RS, res.Windows[0])}
		}
	}
	return nil
}

// ShrinkCyclic delta-minimizes a failing loop, mirroring Shrink for graphs:
// drop a node, drop an edge, shrink a distance, flatten a latency or offset —
// keeping any change under which fails still returns true. Candidates that do
// not validate are discarded, not reported.
func ShrinkCyclic(l *cyclic.Loop, fails func(*cyclic.Loop) bool) *cyclic.Loop {
	cur := cyclicSpecOf(l)
	for {
		improved := false
		for i := 0; i < len(cur.nodes); i++ {
			if cand := cur.withoutNode(i); cand.accept(fails) {
				cur, improved = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.edges); i++ {
			if cand := cur.withoutEdge(i); cand.accept(fails) {
				cur, improved = cand, true
				i--
			}
		}
		for i := range cur.edges {
			e := cur.edges[i]
			if e.dist > 1 || (e.dist == 1 && e.from != e.to) {
				cand := cur.clone()
				if e.from == e.to {
					cand.edges[i].dist = 1
				} else {
					cand.edges[i].dist = 0
				}
				if cand.edges[i].dist != e.dist && cand.accept(fails) {
					cur, improved = cand, true
				}
			}
			if e.lat > 1 {
				cand := cur.clone()
				cand.edges[i].lat = 1
				if cand.accept(fails) {
					cur, improved = cand, true
				}
			}
		}
		for i := range cur.nodes {
			if cur.nodes[i].lat > 1 {
				cand := cur.clone()
				cand.nodes[i].lat = 1
				if cand.accept(fails) {
					cur, improved = cand, true
				}
			}
			if cur.nodes[i].dr != 0 {
				cand := cur.clone()
				cand.nodes[i].dr = 0
				if cand.accept(fails) {
					cur, improved = cand, true
				}
			}
			for k, w := range cur.nodes[i].writes {
				if w.DelayW != 0 {
					cand := cur.clone()
					cand.nodes[i].writes[k].DelayW = 0
					if cand.accept(fails) {
						cur, improved = cand, true
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	out, err := cur.loop()
	if err != nil {
		return l
	}
	return out
}

// FailsCyclicInvariant returns a ShrinkCyclic predicate that holds when
// CheckCyclic reports a violation of the named invariant (any if empty).
func FailsCyclicInvariant(ctx context.Context, name string, opt CyclicCheckOptions) func(*cyclic.Loop) bool {
	return func(l *cyclic.Loop) bool {
		err := CheckCyclic(ctx, l, opt)
		if err == nil {
			return false
		}
		v, ok := err.(*Violation)
		if !ok {
			return false
		}
		return name == "" || v.Invariant == name
	}
}

// WriteCyclicRepro persists a (typically shrunk) failing loop as a .ddg repro
// in dir — same naming scheme as WriteRepro, keyed by the loop fingerprint.
// The regression replay dispatches on the `loop` header flag, so cyclic and
// acyclic repros share one corpus directory.
func WriteCyclicRepro(dir string, v *Violation, l *cyclic.Loop) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	fp := l.Fingerprint()
	if len(fp) > 12 {
		fp = fp[:12]
	}
	name := fmt.Sprintf("%s-%s.ddg", v.Invariant, fp)
	path := filepath.Join(dir, name)
	var b strings.Builder
	fmt.Fprintf(&b, "# regression repro: invariant %s\n", v.Invariant)
	for _, line := range strings.Split(strings.TrimSpace(v.Error()), "\n") {
		fmt.Fprintf(&b, "# %s\n", line)
	}
	b.WriteString(l.Format())
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// cyclicSpec is the mutable representation ShrinkCyclic edits.
type cyclicSpec struct {
	machine ddg.MachineKind
	nodes   []nodeSpec
	edges   []cyclicEdgeSpec
}

type cyclicEdgeSpec struct {
	from, to int
	lat      int64
	flow     bool
	t        ddg.RegType
	dist     int64
}

func cyclicSpecOf(l *cyclic.Loop) *cyclicSpec {
	s := &cyclicSpec{machine: l.Machine}
	for _, n := range l.Nodes() {
		s.nodes = append(s.nodes, nodeSpec{name: n.Name, op: n.Op, lat: n.Latency, dr: n.DelayR, writes: slices.Clone(n.Writes)})
	}
	for _, e := range l.Edges() {
		s.edges = append(s.edges, cyclicEdgeSpec{
			from: e.From, to: e.To, lat: e.Latency, flow: e.Kind == ddg.Flow, t: e.Type, dist: e.Dist})
	}
	return s
}

func (s *cyclicSpec) clone() *cyclicSpec {
	c := &cyclicSpec{machine: s.machine, nodes: make([]nodeSpec, len(s.nodes)), edges: append([]cyclicEdgeSpec(nil), s.edges...)}
	for i, n := range s.nodes {
		c.nodes[i] = n
		c.nodes[i].writes = slices.Clone(n.writes)
	}
	return c
}

func (s *cyclicSpec) withoutNode(i int) *cyclicSpec {
	c := &cyclicSpec{machine: s.machine}
	for j, n := range s.nodes {
		if j == i {
			continue
		}
		n.writes = slices.Clone(n.writes)
		c.nodes = append(c.nodes, n)
	}
	remap := func(id int) int {
		if id > i {
			return id - 1
		}
		return id
	}
	for _, e := range s.edges {
		if e.from == i || e.to == i {
			continue
		}
		e.from, e.to = remap(e.from), remap(e.to)
		c.edges = append(c.edges, e)
	}
	return c
}

func (s *cyclicSpec) withoutEdge(i int) *cyclicSpec {
	c := s.clone()
	c.edges = append(c.edges[:i], c.edges[i+1:]...)
	return c
}

// loop materializes the spec as a validated Loop.
func (s *cyclicSpec) loop() (*cyclic.Loop, error) {
	if len(s.nodes) == 0 {
		return nil, fmt.Errorf("gen: empty cyclic spec")
	}
	l := cyclic.New("shrunk", s.machine)
	for _, n := range s.nodes {
		id := l.AddNode(n.name, n.op, n.lat)
		if n.dr != 0 {
			l.SetReadDelay(id, n.dr)
		}
		for _, w := range n.writes {
			l.SetWrites(id, w.Type, w.DelayW)
		}
	}
	for _, e := range s.edges {
		if e.flow {
			if !l.Node(e.from).WritesType(e.t) || e.lat < 1 {
				return nil, fmt.Errorf("gen: shrunk flow edge invalid")
			}
			l.AddFlowEdgeLatency(e.from, e.to, e.t, e.lat, e.dist)
		} else {
			if e.lat < 0 && !s.machine.HasOffsets() {
				return nil, fmt.Errorf("gen: negative serial latency on superscalar")
			}
			l.AddSerialEdge(e.from, e.to, e.lat, e.dist)
		}
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

func (s *cyclicSpec) accept(fails func(*cyclic.Loop) bool) bool {
	l, err := s.loop()
	if err != nil {
		return false
	}
	return fails(l)
}
