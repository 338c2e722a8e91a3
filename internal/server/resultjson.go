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

	"hexastore/internal/dictionary"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
)

// jsonFlushBytes is the fill level at which the writer hands its buffer
// to the response. net/http's chunked writer copies a chunk's size line
// into its 4 KiB connection buffer and then writes the chunk through, so
// every flush costs two write(2) calls whatever its size: fewer, larger
// flushes cost fewer. jsonStartBytes is a pooled buffer's first capacity;
// it grows to the flush level only for answers that need it.
// jsonBlockRows is how many rows the writer decodes at a time.
const (
	jsonFlushBytes = 256 << 10
	jsonStartBytes = 16 << 10
	jsonBlockRows  = 256
)

// jsonScratch is what one response is written with, pooled: the output
// buffer, a block's cells, and the per-column binding heads.
type jsonScratch struct {
	buf   []byte
	cells []sparql.Cell
	heads []byte
	ends  []int
}

var jsonScratchPool = sync.Pool{New: func() any {
	return &jsonScratch{buf: make([]byte, 0, jsonStartBytes)}
}}

// jsonTypes is the `"type":` value and the `"value":` name that follow a
// binding's prefix, by term kind; plainTypes adds the value's opening
// quote, for a plain value written as it is.
var (
	jsonTypes = [...]string{
		rdf.IRI:     `"uri","value":`,
		rdf.Literal: `"literal","value":`,
		rdf.Blank:   `"bnode","value":`,
	}
	plainTypes = [...]string{
		rdf.IRI:     `"uri","value":"`,
		rdf.Literal: `"literal","value":"`,
		rdf.Blank:   `"bnode","value":"`,
	}
)

// writeResultsJSON writes res to w in the SPARQL 1.1 Query Results JSON
// format ({"head":{},"boolean":…} for ASK queries): binding keys in
// projection order, unbound variables omitted. The result's ids are
// decoded here, a block of jsonBlockRows rows at a time, in two passes:
// gather the block's cells (Result.AppendCells), whose term-table loads
// do not depend on one another, so their cache misses overlap where
// decoding cell by cell pays each in turn, then write the rows. A cell's
// kind and plain bit come from the dictionary's meta byte: a plain value
// is copied between two quotes, and only the others are scanned for
// escaping (appendJSONString). A non-nil explain trace gains a "serialize" span
// (rows, termsDecoded, bytes) and is appended, after the rows, as an
// "explain" member. Encoding stops at the first write error, which is
// returned.
func writeResultsJSON(w io.Writer, res *sparql.Result, explain *obs.Trace) error {
	sp := explain.Child("serialize")
	sc := jsonScratchPool.Get().(*jsonScratch)
	buf := sc.buf[:0]
	defer func() {
		sc.buf = buf[:0]
		clear(sc.cells[:cap(sc.cells)]) // the pooled scratch must not pin a term table
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
		// A binding's head — `"name":{"type":"…","value":`, with the
		// value's opening quote when the value is plain — depends only
		// on its column and meta byte: head k = c·NumMetas + meta is
		// heads[ends[k-1]:ends[k]].
		nc := len(res.Vars)
		heads, ends := sc.heads[:0], sc.ends[:0]
		buf = append(buf, `{"head":{"vars":[`...)
		for c, v := range res.Vars {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, v)
			for m := dictionary.Meta(0); m < dictionary.NumMetas; m++ {
				if kind := m.Kind(); kind <= rdf.Blank {
					heads = append(appendJSONString(heads, v), `:{"type":`...)
					if m.Plain() {
						heads = append(heads, plainTypes[kind]...)
					} else {
						heads = append(heads, jsonTypes[kind]...)
					}
				}
				ends = append(ends, len(heads))
			}
		}
		sc.heads, sc.ends = heads, ends
		buf = append(buf, `]},"results":{"bindings":[`...)
		for lo, n := 0, res.Len(); lo < n; lo += jsonBlockRows {
			hi := min(lo+jsonBlockRows, n)
			cells := res.AppendCells(sc.cells[:0], lo, hi)
			sc.cells = cells
			for r := 0; r < hi-lo; r++ {
				if lo+r > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, '{')
				first := true
				for c, i := 0, r*nc; c < nc; c, i = c+1, i+1 {
					cell := &cells[i]
					if !cell.Bound {
						continue // unbound OPTIONAL variable
					}
					decoded++
					if !first {
						buf = append(buf, ',')
					}
					first = false
					k, from := c*dictionary.NumMetas+int(cell.Meta), 0
					if k > 0 {
						from = ends[k-1]
					}
					buf = append(buf, heads[from:ends[k]]...)
					if cell.Meta.Plain() {
						buf = append(buf, cell.Value...)
						buf = append(buf, '"', '}')
					} else {
						buf = appendJSONString(buf, cell.Value)
						buf = append(buf, '}')
					}
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
