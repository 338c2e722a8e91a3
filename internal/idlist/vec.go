package idlist

// Vec is a sorted association vector: keys in ascending order, each
// paired with a pointer to a terminal List (Figure 2 of the Hexastore
// paper: a head resource's vector of second-position keys, each carrying
// the list of third-position resources). It is the raw, mutable form the
// COVP baselines index with; a sealed Hexastore's vectors are Packed.
//
// The zero value is an empty vector ready to use. Vec is not safe for
// concurrent mutation.
type Vec struct {
	keys  []ID
	lists []*List
}

// Len returns the number of keys in the vector.
func (v *Vec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.keys)
}

// Key returns the i-th smallest key.
func (v *Vec) Key(i int) ID { return v.keys[i] }

// List returns the terminal list associated with the i-th key. The list
// may be shared storage; callers must not mutate it.
func (v *Vec) List(i int) *List { return v.lists[i] }

// Keys exposes the sorted key slice. Callers must not mutate it.
func (v *Vec) Keys() []ID {
	if v == nil {
		return nil
	}
	return v.keys
}

// KeyList wraps the sorted keys as a List so they can participate in
// merge-joins directly. The result aliases the vector's keys.
func (v *Vec) KeyList() *List { return &List{ids: v.Keys()} }

// Find returns the terminal list for key, or (nil, false).
func (v *Vec) Find(key ID) (*List, bool) {
	if v == nil {
		return nil, false
	}
	i := v.search(key)
	if i < len(v.keys) && v.keys[i] == key {
		return v.lists[i], true
	}
	return nil, false
}

// Range calls fn for each (key, list) pair in ascending key order until
// fn returns false.
func (v *Vec) Range(fn func(key ID, list *List) bool) {
	if v == nil {
		return
	}
	for i, k := range v.keys {
		if !fn(k, v.lists[i]) {
			return
		}
	}
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
func (v *Vec) Insert(key ID, list *List) {
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

// Remove deletes key; no-op if absent.
func (v *Vec) Remove(key ID) {
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
