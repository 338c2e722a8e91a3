package queries

import (
	"sort"

	"hexastore/internal/core"
	"hexastore/internal/idlist"
	"hexastore/internal/vp"
)

// Pair is a (first, second) id pair used as an aggregation key.
type Pair [2]ID

// countIntersect returns |a ∩ b| via an adaptive (galloping)
// merge-join: per-object subject lists are routinely tiny next to the
// selections they are intersected with.
func countIntersect(a, b *idlist.List) int {
	n := 0
	idlist.MergeJoinAdaptive(a, b, func(ID) { n++ })
	return n
}

// seekEach walks the sorted list l against the vector c steps over —
// a list against a vector, one forward seek of c per list id — and calls
// fn for every id c holds, with c on it.
func seekEach(l idlist.View, c *idlist.KeyCursor, fn func(ID)) {
	l.Range(func(id ID) bool {
		k, ok := c.SeekGE(id)
		if ok && k == id {
			fn(id)
		}
		return ok
	})
}

// sortedProps returns props if non-nil (the restricted "28" variants),
// otherwise all distinct properties of the store, sorted for determinism.
func sortedProps(all []ID, props []ID) []ID {
	if props != nil {
		return props
	}
	out := make([]ID, len(all))
	copy(out, all)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------
// BQ1 — counts of each different type of data: for every object value of
// the Type property, the number of triples carrying it.

// BQ1Hexa answers BQ1 on the Hexastore: a single walk of the pos index
// of Type, reading each object's subject-list length from the vector's
// length column without building a view.
func BQ1Hexa(st *core.Store, ids BartonIDs) map[ID]int {
	out := make(map[ID]int)
	cur := st.Head(core.POS, ids.Type).Keys()
	for o, ok := cur.Next(); ok; o, ok = cur.Next() {
		out[o] = cur.ListLen()
	}
	return out
}

// BQ1COVP answers BQ1 on a COVP store. COVP2 uses its pos index exactly
// like the Hexastore; COVP1 has no pos index and must self-join—
// aggregate over the pso table of Type.
func BQ1COVP(st *vp.Store, ids BartonIDs) map[ID]int {
	out := make(map[ID]int)
	if st.HasPOS() {
		st.ObjectVec(ids.Type).Range(func(o ID, subjs *idlist.List) bool {
			out[o] = subjs.Len()
			return true
		})
		return out
	}
	st.SubjectVec(ids.Type).Range(func(_ ID, objs *idlist.List) bool {
		objs.Range(func(o ID) bool {
			out[o]++
			return true
		})
		return true
	})
	return out
}

// ---------------------------------------------------------------------
// BQ2 — properties defined for resources of Type: Text, with the
// frequency (triple count) of each property over those resources.
// props restricts the examined properties (the "28" variants); nil means
// every property in the store.

// textSubjectsHexa selects the sorted subjects of ⟨·, Type, Text⟩ via
// the pos terminal list.
func textSubjectsHexa(st *core.Store, ids BartonIDs) idlist.View {
	return st.Subjects(ids.Type, ids.Text)
}

// BQ2Hexa: select t via pos, then merge the property vectors of the
// subjects in t in spo indexing, aggregating per-property triple counts.
func BQ2Hexa(st *core.Store, ids BartonIDs, props []ID) map[ID]int {
	t := textSubjectsHexa(st, ids)
	return propertyFrequenciesHexa(st, t, props)
}

func propertyFrequenciesHexa(st *core.Store, t idlist.View, props []ID) map[ID]int {
	var allowed map[ID]bool
	if props != nil {
		allowed = make(map[ID]bool, len(props))
		for _, p := range props {
			allowed[p] = true
		}
	}
	out := make(map[ID]int)
	t.Range(func(s ID) bool {
		st.Head(core.SPO, s).Range(func(p ID, objs idlist.View) bool {
			if allowed == nil || allowed[p] {
				out[p] += objs.Len()
			}
			return true
		})
		return true
	})
	return out
}

// BQ2COVP: select t (pso scan for COVP1, pos lookup for COVP2), then
// merge-join t against every property table's subject vector, counting
// objects per match.
func BQ2COVP(st *vp.Store, ids BartonIDs, props []ID) map[ID]int {
	t := st.SubjectsByObject(ids.Type, ids.Text)
	return propertyFrequenciesCOVP(st, t, props)
}

func propertyFrequenciesCOVP(st *vp.Store, t *idlist.List, props []ID) map[ID]int {
	out := make(map[ID]int)
	for _, p := range sortedProps(st.Properties(), props) {
		sv := st.SubjectVec(p)
		if sv.Len() == 0 {
			continue
		}
		freq := 0
		idlist.MergeJoin(t, sv.KeyList(), func(s ID) {
			objs, _ := sv.Find(s)
			freq += objs.Len()
		})
		if freq > 0 {
			out[p] = freq
		}
	}
	return out
}

// ---------------------------------------------------------------------
// BQ3 — as BQ2, but report (property, object) pairs whose object value
// occurs more than once among the Type: Text resources.

// BQ3Hexa: t via pos; discover the relevant properties by merging the
// spo property vectors of t; then, per the paper, aggregate per
// (property, object) with the pos index, counting |subjects(p,o) ∩ t|.
func BQ3Hexa(st *core.Store, ids BartonIDs, props []ID) map[Pair]int {
	return bq3FinalHexa(st, textSubjectsHexa(st, ids), props)
}

// BQ3COVP: COVP1 joins t with each property table and counts object
// instances separately; COVP2 walks each property's pos copy
// intersecting subject lists with t.
func BQ3COVP(st *vp.Store, ids BartonIDs, props []ID) map[Pair]int {
	return bq3FinalCOVP(st, st.SubjectsByObject(ids.Type, ids.Text), props)
}

// ---------------------------------------------------------------------
// BQ4 — as BQ3, restricted to subjects of Type: Text AND Language:
// French.

// BQ4Hexa merge-joins the two pos subject lists, then proceeds as BQ3.
// The smaller list is decoded and merged against the larger in place,
// which skips the larger's blocks below each id.
func BQ4Hexa(st *core.Store, ids BartonIDs, props []ID) map[Pair]int {
	a, b := st.Subjects(ids.Type, ids.Text), st.Subjects(ids.Language, ids.French)
	if a.Len() > b.Len() {
		a, b = b, a
	}
	t := a.AppendTo(nil)
	both := t[:0]
	idlist.MergeFilterView(t, b, func(i int) { both = append(both, t[i]) })
	return bq3FinalHexa(st, idlist.ViewOf(both), props)
}

// bq3FinalHexa aggregates (property, object) counts over the selection
// t by walking the spo property vectors of the subjects in t — the BQ2
// step the Hexastore gets for free while COVP must visit every table —
// and counting each (property, object) pair as it streams by.
//
// Plan note: the paper (§5.2.1, BQ3) has its Hexastore fall back to the
// pos index for this aggregation, reflecting its prototype's lack of
// cheap hash aggregation. On this substrate, counting during the spo
// walk is the store's natural plan and produces identical results (the
// differential tests enforce agreement with both COVP plans); the pos
// variant was measured at roughly 2× the cost since it re-probes a
// terminal list per candidate pair.
func bq3FinalHexa(st *core.Store, t idlist.View, props []ID) map[Pair]int {
	var allowed map[ID]bool
	if props != nil {
		allowed = make(map[ID]bool, len(props))
		for _, p := range props {
			allowed[p] = true
		}
	}
	counts := make(map[Pair]int)
	t.Range(func(s ID) bool {
		st.Head(core.SPO, s).RangePairs(func(p, o ID) bool {
			if allowed == nil || allowed[p] {
				counts[Pair{p, o}]++
			}
			return true
		})
		return true
	})
	for pair, c := range counts {
		if c <= 1 {
			delete(counts, pair)
		}
	}
	return counts
}

// BQ4COVP jointly selects on both constraints (scan-and-probe for
// COVP1, two pos lookups merged for COVP2), then proceeds as BQ3.
func BQ4COVP(st *vp.Store, ids BartonIDs, props []ID) map[Pair]int {
	t := idlist.Intersect(
		st.SubjectsByObject(ids.Type, ids.Text),
		st.SubjectsByObject(ids.Language, ids.French),
	)
	return bq3FinalCOVP(st, t, props)
}

func bq3FinalCOVP(st *vp.Store, t *idlist.List, props []ID) map[Pair]int {
	out := make(map[Pair]int)
	for _, p := range sortedProps(st.Properties(), props) {
		if st.HasPOS() {
			// COVP2: find candidate objects by joining t with the
			// subject-sorted table, then count each candidate on the
			// object-sorted copy (the paper: "utilizes its pos index in
			// the final processing step").
			sv := st.SubjectVec(p)
			if sv.Len() == 0 {
				continue
			}
			candidates := make(map[ID]bool)
			idlist.MergeJoin(t, sv.KeyList(), func(s ID) {
				objs, _ := sv.Find(s)
				objs.Range(func(o ID) bool {
					candidates[o] = true
					return true
				})
			})
			ov := st.ObjectVec(p)
			for o := range candidates {
				subjs, _ := ov.Find(o)
				if c := countIntersect(subjs, t); c > 1 {
					out[Pair{p, o}] = c
				}
			}
			continue
		}
		sv := st.SubjectVec(p)
		if sv.Len() == 0 {
			continue
		}
		counts := make(map[ID]int)
		idlist.MergeJoin(t, sv.KeyList(), func(s ID) {
			objs, _ := sv.Find(s)
			objs.Range(func(o ID) bool {
				counts[o]++
				return true
			})
		})
		for o, c := range counts {
			if c > 1 {
				out[Pair{p, o}] = c
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// BQ5 — inference: for subjects with Origin: DLC that have Records
// defined, report the inferred type (the Type of the recorded object)
// when it is not Type: Text. The result is the set of (subject,
// inferredType) pairs.

// BQ5Hexa: s from the pos terminal list; then merge-join the sorted
// object vector of Records (pos) with the sorted subject vector of Type
// (pso) to build the small table T of non-text inferred types, and
// probe s with the recording subjects of each object in T. s is decoded
// once, so each probe is a binary search.
func BQ5Hexa(st *core.Store, ids BartonIDs) map[Pair]bool {
	s := st.Subjects(ids.Origin, ids.DLC).AppendTo(nil)
	out := make(map[Pair]bool)
	if len(s) == 0 {
		return out
	}
	records := st.Head(core.POS, ids.Records).Keys() // object → recording subjects
	types := st.Head(core.PSO, ids.Type).Keys()      // subject → its types
	var nonText []ID
	idlist.MergeKeys(&records, &types, func(ID) {
		nonText = nonText[:0]
		types.View().Range(func(typ ID) bool {
			if typ != ids.Text {
				nonText = append(nonText, typ)
			}
			return true
		})
		if len(nonText) == 0 {
			return
		}
		records.View().Range(func(subj ID) bool {
			if idlist.ContainsSorted(s, subj) {
				for _, typ := range nonText {
					out[Pair{subj, typ}] = true
				}
			}
			return true
		})
	})
	return out
}

// BQ5COVP: COVP1 scan-selects s, joins it with the Records table to an
// unsorted recorded-object list, and sort-merge joins that against the
// Type table; COVP2 follows the Hexastore plan on its own two indices.
func BQ5COVP(st *vp.Store, ids BartonIDs) map[Pair]bool {
	s := st.SubjectsByObject(ids.Origin, ids.DLC)
	out := make(map[Pair]bool)
	if s.Len() == 0 {
		return out
	}
	typeVec := st.SubjectVec(ids.Type)
	if typeVec.Len() == 0 {
		return out
	}

	if st.HasPOS() {
		recordsVec := st.ObjectVec(ids.Records)
		if recordsVec.Len() == 0 {
			return out
		}
		idlist.MergeJoin(recordsVec.KeyList(), typeVec.KeyList(), func(obj ID) {
			types, _ := typeVec.Find(obj)
			recorders, _ := recordsVec.Find(obj)
			var nonText []ID
			types.Range(func(typ ID) bool {
				if typ != ids.Text {
					nonText = append(nonText, typ)
				}
				return true
			})
			if len(nonText) == 0 {
				return
			}
			idlist.MergeJoinAdaptive(recorders, s, func(subj ID) {
				for _, typ := range nonText {
					out[Pair{subj, typ}] = true
				}
			})
		})
		return out
	}

	// COVP1: join s with the Records subject vector, collecting
	// (recordedObject, recordingSubject) pairs — unsorted in object.
	recSV := st.SubjectVec(ids.Records)
	if recSV.Len() == 0 {
		return out
	}
	type rec struct{ obj, subj ID }
	var pairs []rec
	idlist.MergeJoin(s, recSV.KeyList(), func(subj ID) {
		objs, _ := recSV.Find(subj)
		objs.Range(func(obj ID) bool {
			pairs = append(pairs, rec{obj, subj})
			return true
		})
	})
	// Sort by object, then merge against the (sorted) Type subject keys.
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].obj < pairs[j].obj })
	keys := typeVec.Keys()
	k := 0
	for _, pr := range pairs {
		for k < len(keys) && keys[k] < pr.obj {
			k++
		}
		if k >= len(keys) {
			break
		}
		if keys[k] != pr.obj {
			continue
		}
		types, _ := typeVec.Find(pr.obj)
		types.Range(func(typ ID) bool {
			if typ != ids.Text {
				out[Pair{pr.subj, typ}] = true
			}
			return true
		})
	}
	return out
}

// ---------------------------------------------------------------------
// BQ6 — aggregate property frequencies (as BQ2) over all resources that
// are either known to be of Type: Text, or can be inferred to be (their
// Origin is DLC and they Record an object of Type: Text — the BQ5
// inference step selecting Text instead of non-Text).

// BQ6Hexa merges the BQ2 and BQ5-style result sets on the Hexastore.
func BQ6Hexa(st *core.Store, ids BartonIDs, props []ID) map[ID]int {
	known := idlist.FromSorted(textSubjectsHexa(st, ids).AppendTo(nil))
	inferred := inferredTextSubjectsHexa(st, ids)
	t := idlist.Union(known, inferred)
	return propertyFrequenciesHexa(st, t.View(), props)
}

// inferredTextSubjectsHexa walks the Text subjects — the objects whose
// type is Text — against the object vector of Records, one seek per
// subject, and keeps each recorder with Origin: DLC (decoded once, as
// in BQ5).
func inferredTextSubjectsHexa(st *core.Store, ids BartonIDs) *idlist.List {
	s := st.Subjects(ids.Origin, ids.DLC).AppendTo(nil)
	var b idlist.Builder
	if len(s) == 0 {
		return b.Finish()
	}
	records := st.Head(core.POS, ids.Records).Keys()
	seekEach(textSubjectsHexa(st, ids), &records, func(ID) {
		records.View().Range(func(subj ID) bool {
			if idlist.ContainsSorted(s, subj) {
				b.Add(subj)
			}
			return true
		})
	})
	return b.Finish()
}

// BQ6COVP merges the BQ2 and BQ5-style result sets on a COVP store.
func BQ6COVP(st *vp.Store, ids BartonIDs, props []ID) map[ID]int {
	known := st.SubjectsByObject(ids.Type, ids.Text)
	inferred := inferredTextSubjectsCOVP(st, ids)
	t := idlist.Union(known, inferred)
	return propertyFrequenciesCOVP(st, t, props)
}

func inferredTextSubjectsCOVP(st *vp.Store, ids BartonIDs) *idlist.List {
	s := st.SubjectsByObject(ids.Origin, ids.DLC)
	var b idlist.Builder
	if s.Len() == 0 {
		return (&b).Finish()
	}
	textSubjects := st.SubjectsByObject(ids.Type, ids.Text)
	if st.HasPOS() {
		recordsVec := st.ObjectVec(ids.Records)
		if recordsVec.Len() == 0 {
			return (&b).Finish()
		}
		idlist.MergeJoin(recordsVec.KeyList(), textSubjects, func(obj ID) {
			recorders, _ := recordsVec.Find(obj)
			idlist.MergeJoinAdaptive(recorders, s, func(subj ID) {
				b.Add(subj)
			})
		})
		return (&b).Finish()
	}
	recSV := st.SubjectVec(ids.Records)
	if recSV.Len() == 0 {
		return (&b).Finish()
	}
	idlist.MergeJoin(s, recSV.KeyList(), func(subj ID) {
		objs, _ := recSV.Find(subj)
		found := false
		idlist.MergeJoinAdaptive(objs, textSubjects, func(ID) { found = true })
		if found {
			b.Add(subj)
		}
	})
	return (&b).Finish()
}

// ---------------------------------------------------------------------
// BQ7 — simple triple selection: for resources whose Point value is
// "end", retrieve their Encoding and Type information. The result is
// the set of (subject, property, value) triples with property ∈
// {Encoding, Type}.

// BQ7Hexa: s straight from the pos terminal list, then walked against
// the subject vectors of Encoding and Type, one seek per subject.
func BQ7Hexa(st *core.Store, ids BartonIDs) map[[3]ID]bool {
	s := st.Subjects(ids.Point, ids.End)
	out := make(map[[3]ID]bool)
	for _, p := range []ID{ids.Encoding, ids.Type} {
		vec := st.Head(core.PSO, p).Keys()
		seekEach(s, &vec, func(subj ID) {
			vec.View().Range(func(o ID) bool {
				out[[3]ID{subj, p, o}] = true
				return true
			})
		})
	}
	return out
}

// BQ7COVP: COVP1 scan-selects on Point: end first; COVP2 retrieves the
// selection with its pos index; both then merge-join with the Encoding
// and Type subject vectors.
func BQ7COVP(st *vp.Store, ids BartonIDs) map[[3]ID]bool {
	s := st.SubjectsByObject(ids.Point, ids.End)
	out := make(map[[3]ID]bool)
	for _, p := range []ID{ids.Encoding, ids.Type} {
		sv := st.SubjectVec(p)
		if sv.Len() == 0 {
			continue
		}
		idlist.MergeJoin(s, sv.KeyList(), func(subj ID) {
			objs, _ := sv.Find(subj)
			objs.Range(func(o ID) bool {
				out[[3]ID{subj, p, o}] = true
				return true
			})
		})
	}
	return out
}
