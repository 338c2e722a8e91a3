package idlist

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzBlockRoundTrip feeds arbitrary byte strings interpreted as id
// deltas through the block codec and asserts Compress → decode is the
// identity, Contains answers membership exactly, and SeekGE agrees
// with a linear scan — the invariants every merge-join over compressed
// storage depends on.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	seed := make([]byte, 300)
	for i := range seed {
		seed[i] = byte(i % 7)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Interpret the fuzz input as a uvarint delta stream, building a
		// strictly increasing id list (deltas forced >= 1).
		var ids []ID
		v := ID(0)
		for pos := 0; pos < len(raw); {
			d, k := binary.Uvarint(raw[pos:])
			if k <= 0 {
				break
			}
			pos += k
			v += ID(d%(1<<40)) + 1
			ids = append(ids, v)
			if len(ids) > 4096 {
				break
			}
		}

		c := Compress(ids)
		if c.Len() != len(ids) {
			t.Fatalf("Len = %d, want %d", c.Len(), len(ids))
		}
		got := c.AppendTo(nil)
		if !slices.Equal(got, ids) {
			t.Fatalf("round trip mismatch: %d vs %d values", len(got), len(ids))
		}
		// Membership probes: every present id, plus its neighbors.
		for _, id := range ids {
			if !c.Contains(id) {
				t.Fatalf("Contains(%d) = false for present id", id)
			}
			if _, found := slices.BinarySearch(ids, id+1); !found && c.Contains(id+1) {
				t.Fatalf("Contains(%d) = true for absent id", id+1)
			}
		}
		// SeekGE agrees with binary search.
		for _, id := range ids {
			for _, probe := range []ID{id - 1, id, id + 1} {
				it := c.Iter()
				g, ok := it.SeekGE(probe)
				i, _ := slices.BinarySearch(ids, probe)
				if i == len(ids) {
					if ok {
						t.Fatalf("SeekGE(%d) = %d, want none", probe, g)
					}
				} else if !ok || g != ids[i] {
					t.Fatalf("SeekGE(%d) = %d,%v, want %d", probe, g, ok, ids[i])
				}
			}
		}
	})
}
