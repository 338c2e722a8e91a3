package queries

import (
	"slices"

	"hexastore/internal/core"
	"hexastore/internal/idlist"
	"hexastore/internal/vp"
)

// ---------------------------------------------------------------------
// LQ1 / LQ2 — find everything related to a given object (all people
// related to Course10, resp. University0): the result is the set of
// (property, subject) pairs pointing at the object. The property is not
// bound — the query shape the paper's §3 motivation is built around.

// RelatedHexa answers LQ1/LQ2 on the Hexastore: a single walk of the
// object's osp/ops vectors retrieves the result straightforwardly.
func RelatedHexa(st *core.Store, obj ID) map[Pair]bool {
	out := make(map[Pair]bool)
	st.Head(core.OPS, obj).RangePairs(func(p, s ID) bool {
		out[Pair{p, s}] = true
		return true
	})
	return out
}

// RelatedCOVP answers LQ1/LQ2 on a COVP store: both variants must visit
// every property table; COVP1 scans each table's object lists, COVP2
// performs a pos lookup per table.
func RelatedCOVP(st *vp.Store, obj ID) map[Pair]bool {
	out := make(map[Pair]bool)
	for _, p := range sortedProps(st.Properties(), nil) {
		subjs := st.SubjectsByObject(p, obj)
		subjs.Range(func(s ID) bool {
			out[Pair{p, s}] = true
			return true
		})
	}
	return out
}

// ---------------------------------------------------------------------
// LQ3 — all immediate information about a resource that may appear both
// as subject and as object (AssociateProfessor10): the triples in which
// it occurs in either position.

// LQ3Hexa: two lookups — one in spo (resource as subject) and one in
// ops (resource as object).
func LQ3Hexa(st *core.Store, res ID) map[[3]ID]bool {
	out := make(map[[3]ID]bool)
	st.Head(core.SPO, res).RangePairs(func(p, o ID) bool {
		out[[3]ID{res, p, o}] = true
		return true
	})
	st.Head(core.OPS, res).RangePairs(func(p, s ID) bool {
		out[[3]ID{s, p, res}] = true
		return true
	})
	return out
}

// LQ3COVP: selection on both subject and object in every property
// table, unioned. The subject side is a binary search per table; the
// object side is COVP1's scan or COVP2's pos lookup.
func LQ3COVP(st *vp.Store, res ID) map[[3]ID]bool {
	out := make(map[[3]ID]bool)
	for _, p := range sortedProps(st.Properties(), nil) {
		if objs := st.Objects(p, res); objs != nil {
			objs.Range(func(o ID) bool {
				out[[3]ID{res, p, o}] = true
				return true
			})
		}
		st.SubjectsByObject(p, res).Range(func(s ID) bool {
			out[[3]ID{s, p, res}] = true
			return true
		})
	}
	return out
}

// ---------------------------------------------------------------------
// LQ4 — people related to the courses a professor teaches, grouped by
// course: course → set of (property, subject) pairs.

// LQ4Hexa: the course list t is the professor's teacherOf object list;
// each course is then answered with one osp/ops lookup.
func LQ4Hexa(st *core.Store, ids LUBMIDs) map[ID]map[Pair]bool {
	out := make(map[ID]map[Pair]bool)
	st.Objects(ids.AssocProf10, ids.TeacherOf).Range(func(course ID) bool {
		out[course] = RelatedHexa(st, course)
		return true
	})
	return out
}

// LQ4COVP: t from the teacherOf table; then every property table is
// visited per course (scan for COVP1, pos lookup for COVP2).
func LQ4COVP(st *vp.Store, ids LUBMIDs) map[ID]map[Pair]bool {
	out := make(map[ID]map[Pair]bool)
	t := st.Objects(ids.TeacherOf, ids.AssocProf10)
	t.Range(func(course ID) bool {
		out[course] = RelatedCOVP(st, course)
		return true
	})
	return out
}

// ---------------------------------------------------------------------
// LQ5 — people who received any degree from a university the professor
// is related to, grouped by university: university → set of subjects.

// LQ5Hexa: step 1 reads the professor's object vector straight from sop
// indexing; step 2 refines it to universities by walking the pos subject
// list of Type: University against it; step 3 is a pos lookup per
// (degree property, university).
func LQ5Hexa(st *core.Store, ids LUBMIDs) map[ID]*idlist.List {
	related := st.Head(core.SOP, ids.AssocProf10).Keys()
	out := make(map[ID]*idlist.List)
	var views []idlist.View
	var buf []ID // the lists of one university, decoded back to back
	var lists []*idlist.List
	seekEach(st.Subjects(ids.Type, ids.ClassUniversity), &related, func(u ID) {
		views, lists = views[:0], lists[:0]
		n := 0
		for _, dp := range ids.DegreeProps {
			if l := st.Subjects(dp, u); l.Len() > 0 {
				views, n = append(views, l), n+l.Len()
			}
		}
		buf = slices.Grow(buf[:0], n)
		for _, l := range views {
			start := len(buf)
			buf = l.AppendTo(buf)
			lists = append(lists, idlist.FromSorted(buf[start:len(buf):len(buf)]))
		}
		// UnionAll returns new storage, so buf is free for the next.
		if merged := idlist.UnionAll(lists); merged.Len() > 0 {
			out[u] = merged
		}
	})
	return out
}

// LQ5COVP: step 1 scans every property table for the professor's
// objects (a subject-bound binary search per table); step 2 refines to
// universities (scan-join for COVP1, pos pre-selection for COVP2); step
// 3 unions the three degreeFrom tables (scan for COVP1, pos lookups for
// COVP2).
func LQ5COVP(st *vp.Store, ids LUBMIDs) map[ID]*idlist.List {
	var tb idlist.Builder
	for _, p := range sortedProps(st.Properties(), nil) {
		if objs := st.Objects(p, ids.AssocProf10); objs != nil {
			objs.Range(func(o ID) bool {
				tb.Add(o)
				return true
			})
		}
	}
	t := (&tb).Finish()

	var universities *idlist.List
	if st.HasPOS() {
		universities = idlist.Intersect(t, st.SubjectsByObject(ids.Type, ids.ClassUniversity))
	} else {
		// COVP1: join t against the Type table, keeping subjects whose
		// object list contains the University class.
		var ub idlist.Builder
		sv := st.SubjectVec(ids.Type)
		idlist.MergeJoin(t, sv.KeyList(), func(s ID) {
			objs, _ := sv.Find(s)
			if objs.Contains(ids.ClassUniversity) {
				ub.Add(s)
			}
		})
		universities = (&ub).Finish()
	}

	out := make(map[ID]*idlist.List)
	universities.Range(func(u ID) bool {
		var lists []*idlist.List
		for _, dp := range ids.DegreeProps {
			if l := st.SubjectsByObject(dp, u); l.Len() > 0 {
				lists = append(lists, l)
			}
		}
		if merged := idlist.UnionAll(lists); merged.Len() > 0 {
			out[u] = merged
		}
		return true
	})
	return out
}
