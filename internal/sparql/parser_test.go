package sparql

import "testing"

// FuzzParse feeds arbitrary text to the query and update parsers, which
// the server runs on untrusted request bodies: neither may panic, and
// each returns a value or an error. The committed
// corpus (testdata/fuzz/FuzzParse) holds the scan shapes, an INSERT
// DATA / DELETE DATA pair, IRIs holding ';' and '{', and literals holding
// '}' and escaped quotes.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if q, err := Parse(src); err == nil && q == nil {
			t.Fatalf("Parse(%q) returned neither a query nor an error", src)
		}
		if u, err := ParseUpdate(src); err == nil && u == nil {
			t.Fatalf("ParseUpdate(%q) returned neither an update nor an error", src)
		}
	})
}
