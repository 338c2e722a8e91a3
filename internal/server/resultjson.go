package server

// The SPARQL 1.1 Query Results JSON writer. It renders a columnar
// sparql.Result straight into a pooled byte buffer that is flushed to
// the response as it fills: no intermediate document, no map per row or
// per cell, no reflection. A large answer costs one pass over its cells.

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
// row that crosses it.
const (
	jsonFlushBytes = 32 << 10
	jsonBufBytes   = 40 << 10
)

var jsonBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, jsonBufBytes)
	return &b
}}

// writeResultsJSON writes res to w in the SPARQL 1.1 Query Results JSON
// format ({"head":{},"boolean":…} for ASK queries): binding keys in
// projection order, unbound variables omitted. A non-nil explain trace
// is appended as an "explain" member. Encoding stops at the first write
// error, which is returned.
func writeResultsJSON(w io.Writer, res *sparql.Result, explain *obs.Trace) error {
	var tree []byte
	if explain != nil {
		var err error
		if tree, err = json.Marshal(explain); err != nil {
			return err
		}
	}
	bp := jsonBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf
		jsonBufPool.Put(bp)
	}()

	if res.IsAsk {
		buf = append(buf, `{"head":{},"boolean":`...)
		if res.Answer {
			buf = append(buf, "true"...)
		} else {
			buf = append(buf, "false"...)
		}
	} else {
		// Each column's `"name":{"type":` is the same on every row.
		prefix := make([][]byte, len(res.Vars))
		buf = append(buf, `{"head":{"vars":[`...)
		for c, v := range res.Vars {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, v)
			prefix[c] = append(appendJSONString(nil, v), `:{"type":`...)
		}
		buf = append(buf, `]},"results":{"bindings":[`...)
		for i, n := 0, res.Len(); i < n; i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '{')
			first := true
			for c := range prefix {
				t := res.At(i, c)
				if t.IsZero() {
					continue // unbound OPTIONAL variable
				}
				if !first {
					buf = append(buf, ',')
				}
				first = false
				buf = append(buf, prefix[c]...)
				switch t.Kind {
				case rdf.Literal:
					buf = append(buf, `"literal","value":`...)
				case rdf.Blank:
					buf = append(buf, `"bnode","value":`...)
				default:
					buf = append(buf, `"uri","value":`...)
				}
				buf = appendJSONString(buf, t.Value)
				buf = append(buf, '}')
			}
			buf = append(buf, '}')
			if len(buf) >= jsonFlushBytes {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		buf = append(buf, "]}"...)
	}
	if tree != nil {
		buf = append(append(buf, `,"explain":`...), tree...)
	}
	buf = append(buf, "}\n"...)
	_, err := w.Write(buf)
	return err
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
