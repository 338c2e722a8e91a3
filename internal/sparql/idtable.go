package sparql

// Grouping on ids. DISTINCT and GROUP BY number the distinct tuples of
// dictionary ids their rows carry, and COUNT(DISTINCT) the distinct
// (group, value) pairs. None builds a key string or a map: the tuples
// live in one flat arena behind an open-addressed table.

import (
	"slices"

	"hexastore/internal/core"
)

// idTable numbers the distinct tuples of w ids it is given, 0, 1, 2, …
// in the order they first arrive. Tuple i lives at keys[i·w : (i+1)·w].
// The slot array is open-addressed with linear probing and at most half
// full; a slot holds its tuple's number and a tag — the id itself for
// w = 1, so a probe never leaves the slot array, and the tuple's hash
// otherwise, so a probe reads the arena only on a full hash match.
// Before it hashes, a lookup tries the previous lookup's tuple: rows
// arrive in runs on sorted columns.
type idTable struct {
	w     int
	n     int // tuples held
	keys  []core.ID
	slots []idSlot
	shift uint // 64 − log2(len(slots)): a hash's top bits pick the home slot
	last  int  // the previous lookup's tuple; -1 before the first
}

type idSlot struct {
	tag core.ID
	num int32 // tuple number + 1; 0 marks an empty slot
}

// idSlotBytes is what one slot occupies.
const idSlotBytes = 16

func newIDTable(w int) *idTable {
	return &idTable{w: w, last: -1}
}

// tuple returns tuple i.
func (t *idTable) tuple(i int) []core.ID { return t.keys[i*t.w : (i+1)*t.w] }

// holds reports whether tuple i is key.
func (t *idTable) holds(i int, key []core.ID) bool {
	if t.w == 1 {
		return t.keys[i] == key[0]
	}
	return slices.Equal(t.tuple(i), key)
}

// size is what the table holds: its arena at capacity and its slots.
func (t *idTable) size() int64 {
	return int64(cap(t.keys))*8 + int64(len(t.slots))*idSlotBytes
}

// hash mixes a tuple into 64 bits whose top bits are well spread, also
// for runs of consecutive ids (Fibonacci hashing per id).
func (t *idTable) hash(key []core.ID) uint64 {
	const golden = 0x9E3779B97F4A7C15
	if t.w == 1 {
		return uint64(key[0]) * golden
	}
	h := uint64(len(key))
	for _, id := range key {
		h = (h ^ uint64(id)) * golden
		h ^= h >> 32
	}
	return h * golden
}

// insert returns the number of key's tuple, adding a copy of key as the
// next number when it is new (added). The table grows only to add: a key
// it holds already costs no memory, so what a caller charges for an add
// (size before and after) is all the table ever takes.
func (t *idTable) insert(key []core.ID) (num int, added bool) {
	if t.last >= 0 && t.holds(t.last, key) {
		return t.last, false
	}
	if len(t.slots) == 0 {
		t.grow()
	}
	h := t.hash(key)
	tag := core.ID(h)
	if t.w == 1 {
		tag = key[0]
	}
	for {
		mask := len(t.slots) - 1
		i := int(h >> t.shift)
		for ; t.slots[i].num != 0; i = (i + 1) & mask {
			if s := &t.slots[i]; s.tag == tag && (t.w == 1 || t.holds(int(s.num)-1, key)) {
				t.last = int(s.num) - 1
				return t.last, false
			}
		}
		if 2*(t.n+1) > len(t.slots) {
			t.grow() // key is new: make room, and find its slot again
			continue
		}
		t.keys = append(t.keys, key...)
		t.n++
		t.slots[i] = idSlot{tag: tag, num: int32(t.n)}
		t.last = t.n - 1
		return t.last, true
	}
}

// grow doubles the slot array (16 slots at first) and places every
// tuple again.
func (t *idTable) grow() {
	size := max(16, 2*len(t.slots))
	t.slots = make([]idSlot, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	mask := size - 1
	for num := 1; num <= t.n; num++ {
		key := t.tuple(num - 1)
		h := t.hash(key)
		tag := core.ID(h)
		if t.w == 1 {
			tag = key[0]
		}
		i := int(h >> t.shift)
		for t.slots[i].num != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = idSlot{tag: tag, num: int32(num)}
	}
}

// sorted returns the tuple numbers in the order of their tuples,
// compared id by id: the order of their big-endian byte encodings, with
// an unbound id (None) first.
func (t *idTable) sorted() []int {
	perm := make([]int, t.n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int { return slices.Compare(t.tuple(a), t.tuple(b)) })
	return perm
}
