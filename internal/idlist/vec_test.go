package idlist

import (
	"reflect"
	"testing"
)

func newList(vs ...ID) *List { return FromUnsorted(vs) }

func TestVecInsertFindRemove(t *testing.T) {
	var v Vec
	l1, l2, l3 := newList(1), newList(2), newList(3)
	v.Insert(20, l2)
	v.Insert(10, l1)
	v.Insert(30, l3)
	v.Insert(20, newList(99)) // duplicate key: no-op

	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	if !reflect.DeepEqual(v.Keys(), []ID{10, 20, 30}) {
		t.Errorf("Keys = %v", v.Keys())
	}
	got, ok := v.Find(20)
	if !ok || got != l2 {
		t.Errorf("Find(20) = %v,%v; want original list", got, ok)
	}
	if _, ok := v.Find(15); ok {
		t.Error("Find(15) found absent key")
	}

	v.Remove(20)
	v.Remove(20) // idempotent
	if v.Len() != 2 {
		t.Errorf("Len after remove = %d", v.Len())
	}
	if _, ok := v.Find(20); ok {
		t.Error("removed key still found")
	}
}

func TestVecNilSafety(t *testing.T) {
	var v *Vec
	if v.Len() != 0 || v.Keys() != nil {
		t.Error("nil Vec accessors wrong")
	}
	if _, ok := v.Find(1); ok {
		t.Error("nil Vec Find found something")
	}
	v.Range(func(ID, *List) bool { t.Error("nil Vec Range invoked fn"); return true })
}

func TestVecRangeOrderAndEarlyStop(t *testing.T) {
	var v Vec
	for _, k := range []ID{5, 1, 3} {
		v.Insert(k, newList(k*10))
	}
	var keys []ID
	v.Range(func(k ID, l *List) bool {
		keys = append(keys, k)
		if l.IDs()[0] != k*10 {
			t.Errorf("key %d paired with list %v", k, l.IDs())
		}
		return true
	})
	if !reflect.DeepEqual(keys, []ID{1, 3, 5}) {
		t.Errorf("Range order = %v", keys)
	}
	n := 0
	v.Range(func(ID, *List) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop invoked %d times", n)
	}
}

func TestVecAppendChecksOrder(t *testing.T) {
	var v Vec
	v.Append(1, newList(1))
	v.Append(5, newList(2))
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Append did not panic")
		}
	}()
	v.Append(5, newList(3))
}

func TestVecKeyListAliasesKeys(t *testing.T) {
	var v Vec
	v.Insert(2, newList(1))
	v.Insert(7, newList(2))
	kl := v.KeyList()
	if !reflect.DeepEqual(kl.IDs(), []ID{2, 7}) {
		t.Errorf("KeyList = %v", kl.IDs())
	}
	// Merge-joining two key lists is the §4.2 osp showcase.
	var w Vec
	w.Insert(7, newList(3))
	w.Insert(9, newList(4))
	got := Intersect(v.KeyList(), w.KeyList()).IDs()
	if !reflect.DeepEqual(got, []ID{7}) {
		t.Errorf("key-list intersect = %v", got)
	}
}
