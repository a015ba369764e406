package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"time"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/rs"
	"regsat/internal/schedule"
	"regsat/internal/solver"
)

// A record is one cached result in a small binary form shared by both
// result kinds:
//
//	magic "rsst" | kind (1 byte) | schema (1 byte) | length (uint32 LE)
//	fingerprint | type | options key      (each: uvarint length + bytes)
//	body                                  (per kind, see below)
//	CRC-32C of every byte above           (uint32 LE)
//
// length counts the whole record, trailer included. Integers in the body
// are zigzag varints in their minimal encoding, counts are uvarints, and
// flag bytes carry the booleans and which optional parts follow; a decoder
// rejects anything else, so every record it accepts re-encodes to the same
// bytes.
//
// Antichains and witness times are stored in node-ID space: the
// fingerprint excludes names, so a record written for one graph is valid
// for every structural twin, and the witness schedule is rebuilt over
// whichever graph asks. The in-memory killing-function view
// (rs.Result.Killing) is not persisted — it aliases a live rs.Analysis, and
// everything it proves (the saturation, the antichain, the witness) is
// already here — so store-served results carry Killing == nil, which every
// consumer treats as "not available" (exactly like intLP-method results).
const (
	recordMagic = "rsst"
	kindRS      = 1
	kindCyclic  = 2

	lengthOff  = len(recordMagic) + 2
	headerLen  = lengthOff + 4
	trailerLen = 4
	// maxRecord bounds the length a header may declare, so a corrupt header
	// cannot make a reader allocate without limit.
	maxRecord = 64 << 20
)

// RS body: flags, RS, ILPUpperBound, the antichain (count + node IDs), then
// the parts the flags announce, in this order: witness times (count + one
// per node), BB stats (leaves, pruned, upper bound), ILP model info (vars,
// int vars, constraints, redundant arcs, never-alive pairs), solver stats.
const (
	rsExact = 1 << iota
	rsWitness
	rsBB
	rsBBCapped
	rsILP
	rsSolverStats
	rsFlags = 1<<iota - 1
)

// Cyclic body: flags, PerIter, Window, Slope (IEEE-754 bits, uint64 LE),
// the windows (count ≥ 1 + values), then the periodic certificate when the
// flags announce one (II, RS, upper bound, Jmax, then its solver stats).
const (
	cyConverged = 1 << iota
	cyExact
	cyPeriodic
	cyPeriodicExact
	cyPeriodicStats
	cyFlags = 1<<iota - 1
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	errCorrupt = errors.New("store: corrupt record")
	errKey     = errors.New("store: record of another kind or key")
)

// encodeRecord writes one whole record for the key into b[:0]: the header,
// the echoed key, the body appendBody adds, and the checksum.
func encodeRecord(b []byte, kind byte, fp string, t ddg.RegType, optsKey string, appendBody func([]byte) []byte) []byte {
	b = append(b[:0], recordMagic...)
	b = append(b, kind, SchemaVersion, 0, 0, 0, 0)
	b = appendString(b, fp)
	b = appendString(b, string(t))
	b = appendString(b, optsKey)
	b = appendBody(b)
	binary.LittleEndian.PutUint32(b[lengthOff:], uint32(len(b)+trailerLen))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// frame is a parsed record; its key and body alias the record's bytes.
type frame struct {
	kind          byte
	fp, typ, opts []byte
	body          []byte
}

// parseRecord checks a whole record's framing, schema and checksum and
// splits it into key and body.
func parseRecord(data []byte) (frame, error) {
	if len(data) < headerLen+trailerLen || string(data[:len(recordMagic)]) != recordMagic ||
		data[len(recordMagic)+1] != SchemaVersion ||
		binary.LittleEndian.Uint32(data[lengthOff:]) != uint32(len(data)) {
		return frame{}, errCorrupt
	}
	end := len(data) - trailerLen
	if crc32.Checksum(data[:end], castagnoli) != binary.LittleEndian.Uint32(data[end:]) {
		return frame{}, errCorrupt
	}
	d := decoder{b: data[headerLen:end]}
	fr := frame{kind: data[len(recordMagic)], fp: d.bytes(), typ: d.bytes(), opts: d.bytes()}
	fr.body = d.b
	return fr, d.err
}

// check reports whether the frame is a record of kind for exactly this key.
// The comparisons convert without allocating.
func (fr *frame) check(kind byte, fp string, t ddg.RegType, optsKey string) error {
	if fr.kind != kind || string(fr.fp) != fp || string(fr.typ) != string(t) || string(fr.opts) != optsKey {
		return errKey
	}
	return nil
}

// appendRS appends the body of an RS record.
func appendRS(b []byte, res *rs.Result) []byte {
	var flags byte
	if res.Exact {
		flags |= rsExact
	}
	if res.Witness != nil {
		flags |= rsWitness
	}
	if res.BBStats != nil {
		flags |= rsBB
		if res.BBStats.Capped {
			flags |= rsBBCapped
		}
	}
	if res.ILP != nil {
		flags |= rsILP
	}
	if res.SolverStats != nil {
		flags |= rsSolverStats
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(res.RS))
	b = binary.AppendVarint(b, int64(res.ILPUpperBound))
	b = binary.AppendUvarint(b, uint64(len(res.Antichain)))
	for _, id := range res.Antichain {
		b = binary.AppendVarint(b, int64(id))
	}
	if w := res.Witness; w != nil {
		b = binary.AppendUvarint(b, uint64(len(w.Times)))
		for _, at := range w.Times {
			b = binary.AppendVarint(b, at)
		}
	}
	if bb := res.BBStats; bb != nil {
		b = binary.AppendVarint(b, bb.Leaves)
		b = binary.AppendVarint(b, bb.Pruned)
		b = binary.AppendVarint(b, int64(bb.UpperBound))
	}
	if ilp := res.ILP; ilp != nil {
		for _, v := range [...]int{ilp.Vars, ilp.IntVars, ilp.Constrs, ilp.RedundantArcs, ilp.NeverAlivePairs} {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	if st := res.SolverStats; st != nil {
		b = appendStats(b, st)
	}
	return b
}

// rsHit co-allocates a decoded RS result with the BB stats and witness
// schedule a BB record carries, so those three cost one allocation.
type rsHit struct {
	res   rs.Result
	bb    rs.ExactStats
	sched schedule.Schedule
}

// decodeRS materializes an RS record body against g. Antichain nodes
// outside g and a witness that does not fit g are errors.
func decodeRS(body []byte, g *ddg.Graph, t ddg.RegType) (*rs.Result, error) {
	d := decoder{b: body}
	flags := d.byte()
	if flags&^rsFlags != 0 || (flags&rsBBCapped != 0 && flags&rsBB == 0) {
		return nil, errCorrupt
	}
	n := g.NumNodes()
	h := new(rsHit)
	res := &h.res
	res.Type = t
	res.Exact = flags&rsExact != 0
	res.RS = d.int()
	res.ILPUpperBound = d.int()
	if k := d.count(); k > 0 {
		res.Antichain = make([]int, k)
		for i := range res.Antichain {
			id := d.int()
			if id < 0 || id >= n {
				return nil, errCorrupt
			}
			res.Antichain[i] = id
		}
	}
	if flags&rsWitness != 0 {
		if d.count() != n || d.err != nil {
			return nil, errCorrupt
		}
		times := make([]int64, n)
		for i := range times {
			times[i] = d.int64()
		}
		h.sched = schedule.Schedule{G: g, Times: times}
		res.Witness = &h.sched
	}
	if flags&rsBB != 0 {
		h.bb = rs.ExactStats{Leaves: d.int64(), Pruned: d.int64(), Capped: flags&rsBBCapped != 0, UpperBound: d.int()}
		res.BBStats = &h.bb
	}
	if flags&rsILP != 0 {
		res.ILP = &rs.ILPInfo{Vars: d.int(), IntVars: d.int(), Constrs: d.int(), RedundantArcs: d.int(), NeverAlivePairs: d.int()}
	}
	if flags&rsSolverStats != 0 {
		res.SolverStats = d.stats()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return res, nil
}

// appendCyclic appends the body of a cyclic record.
func appendCyclic(b []byte, res *cyclic.Result) []byte {
	var flags byte
	if res.Converged {
		flags |= cyConverged
	}
	if res.Exact {
		flags |= cyExact
	}
	p := res.Periodic
	if p != nil {
		flags |= cyPeriodic
		if p.Exact {
			flags |= cyPeriodicExact
		}
		if p.Stats != nil {
			flags |= cyPeriodicStats
		}
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(res.PerIter))
	b = binary.AppendVarint(b, int64(res.Window))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.Slope))
	b = binary.AppendUvarint(b, uint64(len(res.Windows)))
	for _, w := range res.Windows {
		b = binary.AppendVarint(b, int64(w))
	}
	if p != nil {
		b = binary.AppendVarint(b, p.II)
		b = binary.AppendVarint(b, int64(p.RS))
		b = binary.AppendVarint(b, int64(p.UpperBound))
		b = binary.AppendVarint(b, int64(p.Jmax))
		if p.Stats != nil {
			b = appendStats(b, p.Stats)
		}
	}
	return b
}

// cyclicHit co-allocates a decoded cyclic result with its certificate.
type cyclicHit struct {
	res cyclic.Result
	per cyclic.Periodic
}

// decodeCyclic materializes a cyclic record body. A result without windows
// is an error: every analysis runs at least one.
func decodeCyclic(body []byte, t ddg.RegType) (*cyclic.Result, error) {
	d := decoder{b: body}
	flags := d.byte()
	if flags&^cyFlags != 0 || (flags&cyPeriodic == 0 && flags&(cyPeriodicExact|cyPeriodicStats) != 0) {
		return nil, errCorrupt
	}
	h := new(cyclicHit)
	res := &h.res
	res.Type = t
	res.Converged = flags&cyConverged != 0
	res.Exact = flags&cyExact != 0
	res.PerIter = d.int()
	res.Window = d.int()
	res.Slope = math.Float64frombits(d.uint64())
	k := d.count()
	if k == 0 {
		return nil, errCorrupt
	}
	res.Windows = make([]int, k)
	for i := range res.Windows {
		res.Windows[i] = d.int()
	}
	if flags&cyPeriodic != 0 {
		h.per = cyclic.Periodic{II: d.int64(), RS: d.int(), Exact: flags&cyPeriodicExact != 0, UpperBound: d.int(), Jmax: d.int()}
		if flags&cyPeriodicStats != 0 {
			h.per.Stats = d.stats()
		}
		res.Periodic = &h.per
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return res, nil
}

// appendStats appends a solver.Stats field by field, in declaration order.
func appendStats(b []byte, s *solver.Stats) []byte {
	for _, v := range [...]int64{
		s.Nodes, s.SimplexIters, s.WarmStarts, s.ColdStarts, s.Fallbacks, s.Incumbents,
		int64(s.Duration), s.PresolveRows, s.PresolveCols, s.PresolveTightenings,
		s.CutsAdded, s.CutsActive, s.BranchProbes, s.ReliableVars, s.BlandIters,
	} {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// appendString appends a uvarint length and the bytes of s.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// decoder reads the fields of a record. The first malformed field sets err;
// every read after it returns zero, so a decode checks err once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	d.err, d.b = errCorrupt, nil
}

// done reports the first decode error, or trailing bytes after the body.
func (d *decoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	return d.err
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// int64 reads a zigzag varint, rejecting non-minimal encodings.
func (d *decoder) int64() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int { return int(d.int64()) }

func (d *decoder) uint64() uint64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// count reads an element count. Every element takes at least one byte, so
// a count above the bytes left is corrupt — which also bounds what a
// corrupt count can make the caller allocate.
func (d *decoder) count() int {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) || v > uint64(len(d.b)-n) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) bytes() []byte {
	k := d.count()
	v := d.b[:k:k]
	d.b = d.b[k:]
	return v
}

func (d *decoder) stats() *solver.Stats {
	return &solver.Stats{
		Nodes: d.int64(), SimplexIters: d.int64(), WarmStarts: d.int64(), ColdStarts: d.int64(),
		Fallbacks: d.int64(), Incumbents: d.int64(), Duration: time.Duration(d.int64()),
		PresolveRows: d.int64(), PresolveCols: d.int64(), PresolveTightenings: d.int64(),
		CutsAdded: d.int64(), CutsActive: d.int64(), BranchProbes: d.int64(),
		ReliableVars: d.int64(), BlandIters: d.int64(),
	}
}
