package core

// The loaders with their block size as a parameter, and the built
// arenas' bytes, for the external tests of load_test.go.
var (
	EncodeNTriplesBlocks = encodeNTriples
	EncodeTurtleBlocks   = encodeTurtle
	EncodeTriplesBlocks  = encodeTriples
)

// ArenaBytes returns the bytes of st's three arenas, back to back.
func ArenaBytes(st *Store) []byte {
	var out []byte
	for i := range st.arenas {
		for _, seg := range st.arenas[i].segs {
			out = append(out, seg.b...)
		}
	}
	return out
}
