package sparql

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hexastore/internal/core"
)

// checkIDTable inserts tuples into a fresh table of width w and checks
// every answer, the arena and the sorted order against a Go map.
func checkIDTable(t *testing.T, w int, tuples [][]core.ID) {
	t.Helper()
	tab := newIDTable(w)
	want := map[string]int{}
	var order [][]core.ID
	for _, key := range tuples {
		k := fmt.Sprint(key)
		num, ok := want[k]
		if !ok {
			num = len(want)
			want[k] = num
			order = append(order, slices.Clone(key))
		}
		got, added := tab.insert(key)
		if got != num || added != !ok {
			t.Fatalf("w=%d insert %v = (%d, %v), want (%d, %v)", w, key, got, added, num, !ok)
		}
	}
	if tab.n != len(order) {
		t.Fatalf("w=%d: %d tuples held, want %d", w, tab.n, len(order))
	}
	for i, key := range order {
		if !slices.Equal(tab.tuple(i), key) {
			t.Fatalf("w=%d: tuple %d = %v, want %v", w, i, tab.tuple(i), key)
		}
	}
	sorted := tab.sorted()
	for i := 1; i < len(sorted); i++ {
		if slices.Compare(order[sorted[i-1]], order[sorted[i]]) >= 0 {
			t.Fatalf("w=%d: sorted order has %v before %v", w, order[sorted[i-1]], order[sorted[i]])
		}
	}
	if want := int64(cap(tab.keys))*8 + int64(len(tab.slots))*idSlotBytes; tab.size() != want {
		t.Fatalf("w=%d: size %d, want %d", w, tab.size(), want)
	}
}

// TestIDTable runs the table over runs, repeats, unbound ids and enough
// distinct tuples to grow it many times, at widths 0 to 3.
func TestIDTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := 0; w <= 3; w++ {
		var tuples [][]core.ID
		for i := 0; i < 5000; i++ {
			key := make([]core.ID, w)
			for j := range key {
				switch rng.Intn(3) {
				case 0:
					key[j] = core.ID(rng.Intn(4)) // None among them
				case 1:
					key[j] = core.ID(i / 7) // runs
				default:
					key[j] = core.ID(rng.Int63())
				}
			}
			for r := rng.Intn(3); r >= 0; r-- {
				tuples = append(tuples, key)
			}
		}
		checkIDTable(t, w, tuples)
	}
}

// FuzzIDTable: the table numbers whatever tuples it is given as a Go map
// keyed on the tuple does. The first byte picks the width (0 to 3), the
// second how ids are spread; every further byte is one id.
func FuzzIDTable(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 1, 3, 0, 0, 2})
	f.Add([]byte{2, 1, 1, 2, 2, 1, 1, 2, 0, 0, 0, 0})
	f.Add([]byte{3, 2, 9, 9, 9, 9, 9, 9, 1, 2, 3})
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		w, spread := int(data[0]%4), data[1]%3
		data = data[2:]
		id := func(b byte) core.ID {
			switch spread {
			case 0:
				return core.ID(b)
			case 1:
				return core.ID(b) << 56 // only the top byte differs
			default:
				return core.ID(binary.LittleEndian.Uint64([]byte{b, b ^ 0x5a, 0, 0, 0, 0, b, 0}))
			}
		}
		var tuples [][]core.ID
		if w == 0 {
			tuples = make([][]core.ID, len(data))
		} else {
			for ; len(data) >= w; data = data[w:] {
				key := make([]core.ID, w)
				for j := range key {
					key[j] = id(data[j])
				}
				tuples = append(tuples, key)
			}
		}
		checkIDTable(t, w, tuples)
	})
}
