package idlist

// Vec is a sorted association vector: keys in ascending order, each
// paired with a pointer to a terminal List. It is the building block of
// every index in this repository (Figure 2 of the Hexastore paper: a
// head resource's vector of second-position keys, each carrying the list
// of third-position resources).
//
// The zero value is an empty vector ready to use. Vec is not safe for
// concurrent mutation.
//
// A Vec has two physical renderings: the raw form (sorted key slice
// plus a parallel slice of terminal-list pointers, mutable in place)
// and the packed form (one immutable delta+varint blob holding keys and
// lists together; see Packed). Bulk builders produce packed vectors
// when compression is on; every read accessor works on either form, and
// mutation paths unpack first (see Unpack).
type Vec struct {
	keys  []ID
	lists []*List
	pk    *Packed
}

// FromPacked wraps a packed vector; the Vec and its copy of the decoded
// header are one allocation.
func FromPacked(p Packed) *Vec {
	w := &struct {
		Vec
		p Packed
	}{p: p}
	w.pk = &w.p
	return &w.Vec
}

// Len returns the number of keys in the vector.
func (v *Vec) Len() int {
	if v == nil {
		return 0
	}
	if v.pk != nil {
		return v.pk.Len()
	}
	return len(v.keys)
}

// Key returns the i-th smallest key.
func (v *Vec) Key(i int) ID {
	if v.pk != nil {
		k, _ := v.pk.entry(i)
		return k
	}
	return v.keys[i]
}

// List returns the terminal list associated with the i-th key. The list
// may be shared storage; callers must not mutate it.
func (v *Vec) List(i int) *List {
	if v.pk != nil {
		_, view := v.pk.entry(i)
		return fromView(view)
	}
	return v.lists[i]
}

// Keys exposes the sorted key slice. Callers must not mutate it. For a
// packed vector the keys are materialized into a fresh slice.
func (v *Vec) Keys() []ID {
	if v == nil {
		return nil
	}
	if v.pk != nil {
		return v.pk.AppendKeys(make([]ID, 0, v.pk.Len()))
	}
	return v.keys
}

// KeyList wraps the sorted keys as a List so they can participate in
// merge-joins directly (e.g. merge-joining two subject vectors in osp
// indexing, paper §4.2). The result aliases the vector's keys in raw
// form and is a fresh copy for packed vectors.
func (v *Vec) KeyList() *List { return &List{ids: v.Keys()} }

// Find returns the terminal list for key, or (nil, false).
func (v *Vec) Find(key ID) (*List, bool) {
	if v == nil {
		return nil, false
	}
	if v.pk != nil {
		view, ok := v.pk.Find(key)
		if !ok {
			return nil, false
		}
		return fromView(view), true
	}
	i := v.search(key)
	if i < len(v.keys) && v.keys[i] == key {
		return v.lists[i], true
	}
	return nil, false
}

// FindView returns the terminal-list view for key without materializing
// a List — zero-copy on packed vectors.
func (v *Vec) FindView(key ID) (View, bool) {
	if v == nil {
		return View{}, false
	}
	if v.pk != nil {
		return v.pk.Find(key)
	}
	i := v.search(key)
	if i < len(v.keys) && v.keys[i] == key {
		return ViewOf(v.lists[i].IDs()), true
	}
	return View{}, false
}

// Range calls fn for each (key, list) pair in ascending key order until
// fn returns false. Over a packed vector every callback receives a
// freshly materialized (compressed-backed, zero-copy) List.
func (v *Vec) Range(fn func(key ID, list *List) bool) {
	if v == nil {
		return
	}
	if v.pk != nil {
		v.pk.Range(func(k ID, view View) bool {
			return fn(k, fromView(view))
		})
		return
	}
	for i, k := range v.keys {
		if !fn(k, v.lists[i]) {
			return
		}
	}
}

// RangeViews calls fn for each (key, list view) pair in ascending key
// order until fn returns false — the allocation-free walk the store's
// streaming paths use.
func (v *Vec) RangeViews(fn func(key ID, view View) bool) {
	if v == nil {
		return
	}
	if v.pk != nil {
		v.pk.Range(fn)
		return
	}
	for i, k := range v.keys {
		if !fn(k, ViewOf(v.lists[i].IDs())) {
			return
		}
	}
}

// Unpack converts a packed vector to raw form in place, materializing
// private terminal lists (decompress-on-write). Raw vectors are
// unchanged. The packed blob itself is never mutated, so views handed
// out earlier stay consistent.
func (v *Vec) Unpack() {
	if v == nil || v.pk == nil {
		return
	}
	pk := v.pk
	v.keys = make([]ID, 0, pk.Len())
	v.lists = make([]*List, 0, pk.Len())
	pk.Range(func(k ID, view View) bool {
		v.keys = append(v.keys, k)
		v.lists = append(v.lists, FromSorted(view.AppendTo(nil)))
		return true
	})
	v.pk = nil
}

func (v *Vec) search(key ID) int {
	lo, hi := 0, len(v.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds (key, list) keeping keys sorted; no-op if key is present.
// Packed vectors are unpacked first (decompress-on-write).
func (v *Vec) Insert(key ID, list *List) {
	v.Unpack()
	i := v.search(key)
	if i < len(v.keys) && v.keys[i] == key {
		return
	}
	v.keys = append(v.keys, 0)
	v.lists = append(v.lists, nil)
	copy(v.keys[i+1:], v.keys[i:])
	copy(v.lists[i+1:], v.lists[i:])
	v.keys[i] = key
	v.lists[i] = list
}

// Remove deletes key; no-op if absent. Packed vectors are unpacked
// first (decompress-on-write).
func (v *Vec) Remove(key ID) {
	v.Unpack()
	i := v.search(key)
	if i >= len(v.keys) || v.keys[i] != key {
		return
	}
	copy(v.keys[i:], v.keys[i+1:])
	copy(v.lists[i:], v.lists[i+1:])
	v.keys = v.keys[:len(v.keys)-1]
	v.lists = v.lists[:len(v.lists)-1]
}

// Append adds (key, list) at the end. It is the bulk-load fast path and
// panics if key is not strictly greater than the current last key, since
// an out-of-order append would silently corrupt every merge-join over
// the vector.
func (v *Vec) Append(key ID, list *List) {
	if n := len(v.keys); n > 0 && v.keys[n-1] >= key {
		panic("idlist: Vec.Append key out of order")
	}
	v.keys = append(v.keys, key)
	v.lists = append(v.lists, list)
}
