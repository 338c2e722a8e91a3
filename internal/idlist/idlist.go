// Package idlist implements sorted lists of dictionary IDs and the list
// algebra that Hexastore query processing is built on.
//
// The paper's central performance argument (§4.2) is that every vector and
// terminal list in a Hexastore is sorted, so all first-step pairwise joins
// are linear merge-joins. This package is that substrate, in two forms
// that do not mix:
//
//   - List and Vec are raw, mutable sorted slices. The COVP baselines and
//     the builders hold them, and Intersect, Union and MergeJoin merge them
//     slice against slice.
//   - Packed, Compressed and View are the immutable delta+varint bytes a
//     sealed store is made of, read in place. A Packed vector's KeyCursor
//     steps and seeks its keys, MergeKeys joins two of them, and a View is
//     a terminal list that Contains, Range and MergeFilterView probe or
//     merge without decoding it whole.
package idlist

import (
	"slices"

	"hexastore/internal/dictionary"
)

// ID re-exports the dictionary identifier type for brevity.
type ID = dictionary.ID

// List is a sorted set of IDs (ascending, no duplicates) held in one
// raw slice: the mutable form the COVP baseline and the builders use. The
// zero value is an empty list ready to use. Lists are NOT safe for
// concurrent mutation; stores provide their own synchronization.
type List struct {
	ids []ID
}

// View returns a read-only view of the list (zero copy).
func (l *List) View() View { return ViewOf(l.IDs()) }

// FromSorted wraps an already-sorted, duplicate-free slice. The slice is
// owned by the List afterwards. It panics if the input is not strictly
// increasing, since a silently unsorted list would corrupt every
// merge-join built on top of it.
func FromSorted(ids []ID) *List {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			panic("idlist: FromSorted input not strictly increasing")
		}
	}
	return &List{ids: ids}
}

// FromUnsorted builds a list from arbitrary input, sorting and
// deduplicating a copy.
func FromUnsorted(ids []ID) *List {
	cp := make([]ID, len(ids))
	copy(cp, ids)
	slices.Sort(cp)
	return &List{ids: dedupeSorted(cp)}
}

func dedupeSorted(ids []ID) []ID {
	if len(ids) < 2 {
		return ids
	}
	w := 1
	for r := 1; r < len(ids); r++ {
		if ids[r] != ids[w-1] {
			ids[w] = ids[r]
			w++
		}
	}
	return ids[:w]
}

// Len returns the number of IDs in the list.
func (l *List) Len() int {
	if l == nil {
		return 0
	}
	return len(l.ids)
}

// IDs exposes the sorted slice. It aliases internal storage; callers
// must not mutate it.
func (l *List) IDs() []ID {
	if l == nil {
		return nil
	}
	return l.ids
}

// AppendTo appends every ID in ascending order to dst.
func (l *List) AppendTo(dst []ID) []ID {
	if l == nil {
		return dst
	}
	return append(dst, l.ids...)
}

// Copy returns a deep copy of the list.
func (l *List) Copy() *List {
	return &List{ids: l.AppendTo(make([]ID, 0, l.Len()))}
}

// search returns the index at which id is or would be inserted.
func (l *List) search(id ID) int {
	ids := l.ids
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports whether id is in the list.
func (l *List) Contains(id ID) bool {
	if l == nil {
		return false
	}
	i := l.search(id)
	return i < len(l.ids) && l.ids[i] == id
}

// Insert adds id, keeping the list sorted. It reports whether the list
// changed (false if id was already present).
func (l *List) Insert(id ID) bool {
	i := l.search(id)
	if i < len(l.ids) && l.ids[i] == id {
		return false
	}
	l.ids = append(l.ids, 0)
	copy(l.ids[i+1:], l.ids[i:])
	l.ids[i] = id
	return true
}

// Remove deletes id. It reports whether the list changed.
func (l *List) Remove(id ID) bool {
	i := l.search(id)
	if i >= len(l.ids) || l.ids[i] != id {
		return false
	}
	copy(l.ids[i:], l.ids[i+1:])
	l.ids = l.ids[:len(l.ids)-1]
	return true
}

// Range calls fn for every ID in ascending order until fn returns false.
func (l *List) Range(fn func(ID) bool) {
	if l == nil {
		return
	}
	for _, id := range l.ids {
		if !fn(id) {
			return
		}
	}
}

// Intersect returns the sorted intersection of a and b using a linear
// merge-join, switching to a binary-probing gallop when the sizes are
// lopsided.
func Intersect(a, b *List) *List {
	la, lb := a.IDs(), b.IDs()
	if len(la) > len(lb) {
		la, lb = lb, la
	}
	if len(la) == 0 {
		return &List{}
	}
	// If the small side is much smaller, probe with binary search.
	if len(lb) > 16*len(la) {
		out := make([]ID, 0, len(la))
		big := &List{ids: lb}
		for _, id := range la {
			if big.Contains(id) {
				out = append(out, id)
			}
		}
		return &List{ids: out}
	}
	out := make([]ID, 0, len(la))
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i] < lb[j]:
			i++
		case la[i] > lb[j]:
			j++
		default:
			out = append(out, la[i])
			i++
			j++
		}
	}
	return &List{ids: out}
}

// MergeJoin performs a linear merge-join of a and b, invoking fn once per
// common ID in ascending order. It is the streaming form of Intersect.
func MergeJoin(a, b *List, fn func(ID)) {
	la, lb := a.IDs(), b.IDs()
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i] < lb[j]:
			i++
		case la[i] > lb[j]:
			j++
		default:
			fn(la[i])
			i++
			j++
		}
	}
}

// MergeJoinAdaptive is MergeJoin with galloping: when one input is much
// smaller than the other, each element of the small side is located in
// the large side by binary search over the remaining suffix instead of
// stepping linearly. Output order is unchanged (ascending). This is the
// join used where list sizes are routinely lopsided — e.g. intersecting
// a per-object subject list (often a handful of ids) with a large
// selection.
func MergeJoinAdaptive(a, b *List, fn func(ID)) {
	la, lb := a.IDs(), b.IDs()
	if len(la) > len(lb) {
		la, lb = lb, la
	}
	if len(la) == 0 {
		return
	}
	if len(lb) <= 16*len(la) {
		mergeJoinSlices(la, lb, fn)
		return
	}
	lo := 0
	for _, id := range la {
		i := lo + searchIDs(lb[lo:], id)
		if i >= len(lb) {
			return
		}
		if lb[i] == id {
			fn(id)
		}
		lo = i
	}
}

func mergeJoinSlices(la, lb []ID, fn func(ID)) {
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i] < lb[j]:
			i++
		case la[i] > lb[j]:
			j++
		default:
			fn(la[i])
			i++
			j++
		}
	}
}

func searchIDs(ids []ID, id ID) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Union returns the sorted union of a and b.
func Union(a, b *List) *List {
	la, lb := a.IDs(), b.IDs()
	out := make([]ID, 0, len(la)+len(lb))
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i] < lb[j]:
			out = append(out, la[i])
			i++
		case la[i] > lb[j]:
			out = append(out, lb[j])
			j++
		default:
			out = append(out, la[i])
			i++
			j++
		}
	}
	out = append(out, la[i:]...)
	out = append(out, lb[j:]...)
	return &List{ids: out}
}

// UnionAll returns the sorted union of any number of lists. It repeatedly
// merges pairs (a simple tournament), which is O(n log k) overall.
func UnionAll(lists []*List) *List {
	switch len(lists) {
	case 0:
		return &List{}
	case 1:
		return lists[0].Copy()
	}
	work := make([]*List, len(lists))
	copy(work, lists)
	for len(work) > 1 {
		var next []*List
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, Union(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// Builder accumulates IDs in arbitrary order and produces a sorted,
// deduplicated List. It is used by bulk loaders, which append everything
// and sort once instead of paying per-insert shifting costs.
type Builder struct {
	ids []ID
}

// Add appends an ID (duplicates allowed; removed at Finish).
func (b *Builder) Add(id ID) { b.ids = append(b.ids, id) }

// Len returns the number of IDs added so far (before deduplication).
func (b *Builder) Len() int { return len(b.ids) }

// Finish sorts, deduplicates, and returns the list. The builder must not
// be reused afterwards.
func (b *Builder) Finish() *List {
	slices.Sort(b.ids)
	return &List{ids: dedupeSorted(b.ids)}
}
