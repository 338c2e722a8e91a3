package server

// The SPARQL 1.1 Query Results JSON writer. It decodes a columnar
// sparql.Result's ids straight into a pooled byte buffer that is flushed
// to the response as it fills: no intermediate document, no term, map or
// row per cell, no reflection. A large answer costs one pass over its
// cells.

import (
	"encoding/json"
	"io"
	"sync"
	"unicode/utf8"

	"hexastore/internal/obs"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
)

// jsonFlushBytes is the fill level at which the writer hands its buffer
// to the response; jsonBufBytes, the pooled capacity, leaves room for the
// row that crosses it. jsonBlockRows is how many rows the writer decodes
// at a time.
const (
	jsonFlushBytes = 32 << 10
	jsonBufBytes   = 40 << 10
	jsonBlockRows  = 256
)

// jsonScratch is what one response is written with, pooled: the output
// buffer, a block's term keys and kinds, and the per-column
// `"name":{"type":` prefixes (prefix[ends[c-1]:ends[c]]).
type jsonScratch struct {
	buf    []byte
	keys   []string
	kinds  []uint8
	prefix []byte
	ends   []int
}

var jsonScratchPool = sync.Pool{New: func() any {
	return &jsonScratch{buf: make([]byte, 0, jsonBufBytes)}
}}

// unboundKind marks an unbound cell among a block's kinds.
const unboundKind = 0xff

// jsonTypes is the `"type":` value and the `"value":` name that follow a
// binding's prefix, by term kind.
var jsonTypes = [...]string{
	rdf.IRI:     `"uri","value":`,
	rdf.Literal: `"literal","value":`,
	rdf.Blank:   `"bnode","value":`,
}

// writeResultsJSON writes res to w in the SPARQL 1.1 Query Results JSON
// format ({"head":{},"boolean":…} for ASK queries): binding keys in
// projection order, unbound variables omitted. The result's ids are
// decoded here, a block of jsonBlockRows rows at a time, in three passes:
// gather the block's term keys (Result.AppendKeys), read each key's kind
// from its first byte, then write the rows — the key-table loads of the
// first pass and the key loads of the second do not depend on one
// another, so their cache misses overlap where decoding cell by cell
// pays each in turn. A non-nil explain trace gains a "serialize" span
// (rows, termsDecoded, bytes) and is appended, after the rows, as an
// "explain" member. Encoding stops at the first write error, which is
// returned.
func writeResultsJSON(w io.Writer, res *sparql.Result, explain *obs.Trace) error {
	sp := explain.Child("serialize")
	sc := jsonScratchPool.Get().(*jsonScratch)
	buf := sc.buf[:0]
	defer func() {
		sc.buf = buf[:0]
		clear(sc.keys[:cap(sc.keys)]) // the pooled scratch must not pin a key table
		jsonScratchPool.Put(sc)
	}()
	written, decoded := 0, 0
	flush := func() error {
		written += len(buf)
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}

	if res.IsAsk {
		buf = append(buf, `{"head":{},"boolean":`...)
		if res.Answer {
			buf = append(buf, "true"...)
		} else {
			buf = append(buf, "false"...)
		}
	} else {
		// Each column's `"name":{"type":` is the same on every row.
		nc := len(res.Vars)
		prefix, ends := sc.prefix[:0], sc.ends[:0]
		buf = append(buf, `{"head":{"vars":[`...)
		for c, v := range res.Vars {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, v)
			prefix = append(appendJSONString(prefix, v), `:{"type":`...)
			ends = append(ends, len(prefix))
		}
		sc.prefix, sc.ends = prefix, ends
		buf = append(buf, `]},"results":{"bindings":[`...)
		for lo, n := 0, res.Len(); lo < n; lo += jsonBlockRows {
			hi := min(lo+jsonBlockRows, n)
			keys := res.AppendKeys(sc.keys[:0], lo, hi)
			sc.keys = keys
			kinds := sc.kinds[:0]
			for _, k := range keys {
				kind, ok := rdf.KindOfKey(k)
				if !ok {
					kinds = append(kinds, unboundKind)
					continue
				}
				kinds = append(kinds, uint8(kind))
				decoded++
			}
			sc.kinds = kinds
			for r := 0; r < hi-lo; r++ {
				if lo+r > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, '{')
				first := true
				for c, i := 0, r*nc; c < nc; c, i = c+1, i+1 {
					if kinds[i] == unboundKind {
						continue // unbound OPTIONAL variable
					}
					if !first {
						buf = append(buf, ',')
					}
					first = false
					from := 0
					if c > 0 {
						from = ends[c-1]
					}
					buf = append(buf, prefix[from:ends[c]]...)
					buf = append(buf, jsonTypes[kinds[i]]...)
					buf = appendJSONString(buf, keys[i][1:])
					buf = append(buf, '}')
				}
				buf = append(buf, '}')
				if len(buf) >= jsonFlushBytes {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		buf = append(buf, "]}"...)
	}
	if explain != nil {
		sp.SetInt("rows", int64(res.Len()))
		sp.SetInt("termsDecoded", int64(decoded))
		sp.SetInt("bytes", int64(written+len(buf)))
		sp.Finish()
		tree, err := json.Marshal(explain)
		if err != nil {
			return err
		}
		buf = append(append(buf, `,"explain":`...), tree...)
	}
	buf = append(buf, "}\n"...)
	return flush()
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal: quotes,
// backslashes and control bytes escaped, invalid UTF-8 replaced by
// U+FFFD and U+2028/U+2029 escaped, as encoding/json does (so that the
// output is also valid JavaScript). Unlike encoding/json's default it
// leaves <, > and & alone — the document is not HTML. Eight bytes that
// need none of that are passed over as one word (plainWord); the bytes
// of a word that holds one go through the byte loop.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	slow := 0 // the byte loop runs up to here: the end of the last word that hit
	for i := 0; i < len(s); {
		if i >= slow {
			if i+8 <= len(s) && plainWord(s, i) {
				i += 8
				continue
			}
			slow = i + 8
		}
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// plainWord reports whether none of the eight bytes of s at i needs
// escaping or a UTF-8 check: no control byte, quote or backslash, and no
// byte ≥ 0x80. It is one load and a few word operations (SWAR): in
// v − n·lsb a byte below n borrows into its top bit, which the byte
// itself did not have, and as a yes-or-no over the word that test is
// exact for n ≤ 0x80; a byte equal to c is a zero byte of v ^ c·lsb.
func plainWord(s string, i int) bool {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	_ = s[i+7]
	x := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
	q, bs := x^('"'*lsb), x^('\\'*lsb)
	ctl := (x - ' '*lsb) &^ x
	quote := (q - lsb) &^ q
	bslash := (bs - lsb) &^ bs
	return (ctl|quote|bslash|x)&msb == 0
}
