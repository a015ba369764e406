package store

import (
	"regsat/internal/cyclic"
	"regsat/internal/ddg"
)

// Cyclic records share the objects tree, the key scheme and the record
// format with RS records: loop fingerprints live in their own domain (the
// "cyclic" prefix inside the hash input), and the record kind keeps each
// reader from decoding the other's records. Results carry no witness or
// graph-indexed data, so a record materializes without the loop in hand —
// GetCyclic needs only the key.

// GetCyclic implements batch.CyclicCache. Every failure mode — missing
// file, torn or corrupt record, schema, kind or key mismatch, an empty
// window sweep — is a miss.
func (s *Store) GetCyclic(fp string, t ddg.RegType, optsKey string) (*cyclic.Result, bool) {
	var res *cyclic.Result
	ok := s.get(kindCyclic, fp, t, optsKey, func(body []byte) (err error) {
		res, err = decodeCyclic(body, t)
		return err
	})
	return res, ok
}

// PutCyclic implements batch.CyclicCache with the same atomic-write,
// failures-are-dropped protocol as Put.
func (s *Store) PutCyclic(fp string, t ddg.RegType, optsKey string, res *cyclic.Result) {
	s.put(kindCyclic, fp, t, optsKey, func(b []byte) []byte { return appendCyclic(b, res) })
}
