package ddg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// The structural fingerprints of ir.Fingerprint and cyclic.Loop.Fingerprint
// are SHA-256 sums over one byte encoding of the graph, built in one buffer
// with these helpers. The encoding keys the on-disk store and the cluster
// ring, so it must not change.

// AppendInt appends v as 8 little-endian bytes.
func AppendInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendNodeKey appends a node's fingerprint encoding: latency, δr, the
// number of written types, then each written type in sorted order as its
// bytes, a NUL and its δw.
func AppendNodeKey(b []byte, n *Node) []byte {
	b = AppendInt(b, n.Latency)
	b = AppendInt(b, n.DelayR)
	b = AppendInt(b, int64(len(n.Writes)))
	for _, w := range n.Writes {
		b = append(b, w.Type...)
		b = append(b, 0)
		b = AppendInt(b, w.DelayW)
	}
	return b
}

// HexSum returns the lowercase hex SHA-256 of b.
func HexSum(b []byte) string {
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}
