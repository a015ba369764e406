// Package store is the analysis daemon's persistent, content-addressed
// result store: a second-level cache under the batch engine's in-memory
// memo (it implements batch.ResultCache and batch.CyclicCache), keyed
// exactly like the memo — the ir structural fingerprint of the graph, the
// register type, and the canonicalized options key — so RS results survive
// process restarts and are shared across processes pointing at the same
// directory.
//
// Layout:
//
//	<root>/VERSION            "regsat-store v<schema>\n"
//	<root>/objects/ab/<key>.rec
//
// where <key> is the hex SHA-256 of "fingerprint\x00type\x00optionsKey" and
// "ab" its first byte — a fan-out that keeps directories small on large
// corpora. A record is one small binary file (see encodeRecord): a header
// with its kind, schema and length, the echoed key, the result's fields,
// and a CRC-32C trailer. A hit costs one open, one read into a pooled
// buffer and a close, and decodes straight into the result.
//
// The store is crash-safe and corruption-tolerant by construction:
//
//   - writes go to a temp file in the record's directory and are renamed
//     into place, so readers never observe a partial record;
//   - a record that fails to read, fails its checksum, or does not match
//     its schema, kind or key is treated as a miss (and counted in
//     Stats.Errors), never as an error the analysis pipeline sees — a
//     corrupted record is recomputed, never served as a wrong answer;
//   - a VERSION file from a different schema makes Open start over in a
//     fresh objects tree (objects-v<schema>), leaving the old one alone.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"regsat/internal/ddg"
	"regsat/internal/rs"
)

// SchemaVersion is the record schema this build reads and writes. Bump it
// whenever the record format changes incompatibly: old stores are then
// ignored (not deleted) and a fresh objects tree is started. Version 1 was
// JSON; version 2 is the checksummed binary record.
const SchemaVersion = 2

// Store is a persistent result cache rooted at a directory. All methods are
// safe for concurrent use by multiple goroutines — and, thanks to the
// atomic rename protocol, by multiple processes sharing the directory.
type Store struct {
	root    string
	objects string

	hits, misses, puts, errors atomic.Int64
}

// Open opens (creating if necessary) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	objects := "objects"
	versionPath := filepath.Join(dir, "VERSION")
	want := fmt.Sprintf("regsat-store v%d\n", SchemaVersion)
	raw, err := os.ReadFile(versionPath)
	switch {
	case os.IsNotExist(err):
		if err := os.WriteFile(versionPath, []byte(want), 0o644); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("store: %w", err)
	case string(raw) != want:
		// A different (older or newer) schema owns the default tree; keep
		// our records in a schema-suffixed tree beside it.
		objects = fmt.Sprintf("objects-v%d", SchemaVersion)
	}
	s := &Store{root: dir, objects: filepath.Join(dir, objects)}
	if err := os.MkdirAll(s.objects, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// path maps a cache key to its record file. The hash input and the hex name
// live on the stack; the returned path is the only allocation (the hash
// input spills to the heap only for keys over 256 bytes).
func (s *Store) path(fp string, t ddg.RegType, optsKey string) string {
	var in [256]byte
	key := append(in[:0], fp...)
	key = append(append(key, 0), t...)
	key = append(append(key, 0), optsKey...)
	sum := sha256.Sum256(key)
	var name [2 * sha256.Size]byte
	hex.Encode(name[:], sum[:])
	var b strings.Builder
	b.Grow(len(s.objects) + len(name) + 8)
	b.WriteString(s.objects)
	b.WriteByte(filepath.Separator)
	b.Write(name[:2])
	b.WriteByte(filepath.Separator)
	b.Write(name[:])
	b.WriteString(".rec")
	return b.String()
}

// Get implements batch.ResultCache: it returns the stored result for
// (fp, t, optsKey) materialized against g, or a miss. Every failure mode —
// missing file, torn or corrupt record, schema, kind or key mismatch, a
// witness that does not fit g — is a miss.
func (s *Store) Get(fp string, g *ddg.Graph, t ddg.RegType, optsKey string) (*rs.Result, bool) {
	var res *rs.Result
	ok := s.get(kindRS, fp, t, optsKey, func(body []byte) (err error) {
		res, err = decodeRS(body, g, t)
		return err
	})
	return res, ok
}

// Put implements batch.ResultCache: it persists res under (fp, t, optsKey)
// with an atomic write. Failures are counted and dropped — a full disk must
// not fail an analysis that already succeeded.
func (s *Store) Put(fp string, t ddg.RegType, optsKey string, res *rs.Result) {
	s.put(kindRS, fp, t, optsKey, func(b []byte) []byte { return appendRS(b, res) })
}

// recordBuf is a pooled record buffer. Buffers grown past maxPooled for an
// unusually large record (a long witness) are dropped, not pooled.
type recordBuf struct{ b []byte }

const (
	readSize  = 4 << 10
	maxPooled = 64 << 10
)

var bufPool = sync.Pool{New: func() any { return &recordBuf{b: make([]byte, readSize)} }}

func releaseBuf(rb *recordBuf) {
	if cap(rb.b) <= maxPooled {
		bufPool.Put(rb)
	}
}

// get reads the record for the key and hands its body to decode. A missing
// file is a plain miss; any other failure — unreadable, torn, corrupt,
// another kind or key, a body decode rejects — is a miss counted as an
// error.
func (s *Store) get(kind byte, fp string, t ddg.RegType, optsKey string, decode func(body []byte) error) bool {
	f, err := os.Open(s.path(fp, t, optsKey))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.errors.Add(1)
		}
		s.misses.Add(1)
		return false
	}
	rb := bufPool.Get().(*recordBuf)
	data, err := readRecord(f, rb)
	f.Close()
	var fr frame
	if err == nil {
		fr, err = parseRecord(data)
	}
	if err == nil {
		err = fr.check(kind, fp, t, optsKey)
	}
	if err == nil {
		err = decode(fr.body)
	}
	releaseBuf(rb)
	if err != nil {
		s.errors.Add(1)
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// readRecord reads one record from f into rb with a single Read when it
// fits the buffer; a longer record's header says how much more to read.
// The file must hold exactly the record the header declares: a short file
// is an error, and so is one with bytes past the record when they arrive in
// the same Read.
func readRecord(f *os.File, rb *recordBuf) ([]byte, error) {
	buf := rb.b[:cap(rb.b)]
	n, err := f.Read(buf)
	if n < headerLen {
		if err == nil || err == io.EOF {
			err = errCorrupt
		}
		return nil, err
	}
	size := int(binary.LittleEndian.Uint32(buf[lengthOff:]))
	switch {
	case size < headerLen+trailerLen || size > maxRecord || size < n:
		return nil, errCorrupt
	case size > n:
		if size > len(buf) {
			grown := make([]byte, size)
			copy(grown, buf[:n])
			rb.b, buf = grown, grown
		}
		if _, err := io.ReadFull(f, buf[n:size]); err != nil {
			return nil, err
		}
	}
	return buf[:size], nil
}

// put encodes a record into a pooled buffer and writes it atomically.
func (s *Store) put(kind byte, fp string, t ddg.RegType, optsKey string, appendBody func([]byte) []byte) {
	rb := bufPool.Get().(*recordBuf)
	rb.b = encodeRecord(rb.b, kind, fp, t, optsKey, appendBody)
	err := writeAtomic(s.path(fp, t, optsKey), rb.b)
	releaseBuf(rb)
	if err != nil {
		s.errors.Add(1)
		return
	}
	s.puts.Add(1)
}

// writeAtomic writes data to path via a temp file in the same directory and
// an atomic rename. The fan-out directory is created only when the temp
// file cannot be, and the temp file is removed only when the write fails.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tmp, err = os.CreateTemp(dir, ".tmp-*")
	}
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Len walks the store and returns the number of resident records — an
// O(records) maintenance helper for tests and the ops runbook, not a hot
// path.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.objects, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".rec") {
			n++
		}
		return nil
	})
	return n, err
}

// Stats is the store's cumulative behavior since Open.
type Stats struct {
	// Hits and Misses count Get outcomes; Puts counts records persisted.
	Hits, Misses, Puts int64
	// Errors counts corrupt/unreadable records tolerated on Get and failed
	// writes dropped on Put.
	Errors int64
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Puts:   s.puts.Load(),
		Errors: s.errors.Load(),
	}
}
