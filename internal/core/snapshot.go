package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"hexastore/internal/rdf"
)

// Snapshot format: a small header, the dictionary (term keys in id
// order), then the triple set as varint-delta-encoded (s,p,o) ids in spo
// order. Restore rebuilds all six indices with the bulk Builder, so a
// snapshot is a compact logical image, not a byte copy of the in-memory
// structures. This implements a simplified version of the paper's
// "fully operational disk-based Hexastore" future-work item (§7).

const snapshotMagic = "HEXASTORE1\n"

// Snapshot writes the store (dictionary + triples) to w.
func (st *Store) Snapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}

	// Dictionary section: count, then (len, bytes) per term key in id order.
	nTerms := st.dict.Len()
	writeUvarint(bw, uint64(nTerms))
	for id := ID(1); id <= ID(nTerms); id++ {
		term, err := st.dict.Decode(id)
		if err != nil {
			return fmt.Errorf("core: snapshot: %w", err)
		}
		key := term.Key()
		writeUvarint(bw, uint64(len(key)))
		if _, err := bw.WriteString(key); err != nil {
			return err
		}
	}

	// Triple section: count, then delta-encoded spo-ordered triples.
	writeUvarint(bw, uint64(st.size))
	// Match's full scan ascends in (s, p, o) order: deterministic,
	// delta-friendly output.
	var prevS, prevP, prevO ID
	st.Match(None, None, None, func(s, p, o ID) bool {
		writeUvarint(bw, uint64(s-prevS))
		if s != prevS {
			prevP, prevO = 0, 0
		}
		writeUvarint(bw, uint64(p-prevP))
		if p != prevP {
			prevO = 0
		}
		writeUvarint(bw, uint64(o-prevO))
		prevS, prevP, prevO = s, p, o
		return true
	})
	return bw.Flush()
}

// Restore reads a snapshot produced by Snapshot and returns a new store
// with a fresh dictionary containing exactly the snapshot's terms. Each
// snapshot term must encode to the dense id it held when the snapshot
// was written; a duplicate term aborts the restore.
func Restore(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: restore: reading magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("core: restore: bad magic %q", magic)
	}

	b := NewBuilder(nil)
	dict := b.dict

	nTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: restore: term count: %w", err)
	}
	// A term's length is untrusted: the key grows only as its bytes
	// arrive, so a corrupt length ends in an error, not a huge allocation.
	var key bytes.Buffer
	for i := uint64(0); i < nTerms; i++ {
		klen, err := binary.ReadUvarint(br)
		if err == nil && int64(klen) < 0 {
			err = fmt.Errorf("length %d out of range", klen)
		}
		if err != nil {
			return nil, fmt.Errorf("core: restore: term %d length: %w", i, err)
		}
		key.Reset()
		if _, err := io.CopyN(&key, br, int64(klen)); err != nil {
			return nil, fmt.Errorf("core: restore: term %d: %w", i, err)
		}
		term, err := rdf.TermFromKey(key.String())
		if err != nil {
			return nil, fmt.Errorf("core: restore: term %d: %w", i, err)
		}
		if got := dict.Encode(term); got != ID(i+1) {
			return nil, fmt.Errorf("core: restore: term %d encoded as %d (duplicate in snapshot)", i+1, got)
		}
	}

	nTriples, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: restore: triple count: %w", err)
	}
	var prevS, prevP, prevO ID
	for i := uint64(0); i < nTriples; i++ {
		ds, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: restore: triple %d: %w", i, err)
		}
		dp, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: restore: triple %d: %w", i, err)
		}
		do, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: restore: triple %d: %w", i, err)
		}
		s := prevS + ID(ds)
		if s != prevS {
			prevP, prevO = 0, 0
		}
		p := prevP + ID(dp)
		if p != prevP {
			prevO = 0
		}
		o := prevO + ID(do)
		if s == None || p == None || o == None || s > ID(dict.Len()) ||
			p > ID(dict.Len()) || o > ID(dict.Len()) {
			return nil, fmt.Errorf("core: restore: triple %d has out-of-range id (%d,%d,%d)", i, s, p, o)
		}
		b.Add(s, p, o)
		prevS, prevP, prevO = s, p, o
	}
	return b.Build(), nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // flushed and checked at the end
}
