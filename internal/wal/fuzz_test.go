package wal

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzWALFrame feeds arbitrary bytes to DecodeRecord, the decoder a
// replica runs on frames read from the network. It must never panic,
// and any record it accepts must re-encode through EncodeRecord to
// exactly the frame bytes it consumed: the follower advances its resume
// offset by that count, so a frame accepted in a second spelling would
// put the offset out of step with the leader's file. The seed corpus in
// testdata holds an add, a remove, a commit marker and a torn frame,
// plus the add frame with its length written in two bytes instead of
// one, which the decoder once accepted.
func FuzzWALFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if n <= 0 || n > int64(len(data)) {
			t.Fatalf("frame length %d outside the %d input bytes", n, len(data))
		}
		if got := EncodeRecord(nil, rec); !bytes.Equal(got, data[:n]) {
			t.Fatalf("decoded %+v from %x, which re-encodes as %x", rec, data[:n], got)
		}
	})
}
