package server

import (
	"bytes"
	"testing"
)

// FuzzFrame throws arbitrary bytes at the wire-frame parsers, mirroring
// FuzzWALDeserialize. Invariants: decodePrefix never panics, consumed
// stays in bounds, a partial prefix always carries a reason, the
// consumed prefix re-encodes byte-identically, and DecodeFrame agrees
// frame-for-frame with the tolerant walk.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, Frame{Type: MsgHello}))
	f.Add(AppendFrame(
		AppendFrame(nil, Frame{Type: MsgQuery, Payload: encodeQuery("SELECT * FROM kv WHERE k = 7")}),
		Frame{Type: MsgRows, Payload: encodeRows(RowsResult{Count: 3, Digest: 0xDEADBEEF})},
	))
	f.Add(AppendFrame(nil, Frame{Type: MsgProcs, Payload: []byte{0, 0, 0, 0}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, consumed, reason := decodePrefix(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		if consumed != len(data) && reason == "" {
			t.Fatal("partial prefix must carry a reason")
		}
		if consumed == len(data) && reason != "" {
			t.Fatalf("full consumption with stop reason %q", reason)
		}
		// The strict decoder accepts exactly the frames the tolerant walk
		// consumed, in order.
		rest := data[:consumed]
		for i, want := range frames {
			got, n, err := DecodeFrame(rest)
			if err != nil {
				t.Fatalf("strict decode of consumed frame %d failed: %v", i, err)
			}
			if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("strict/tolerant disagree on frame %d", i)
			}
			rest = rest[n:]
		}
		if len(rest) != 0 {
			t.Fatalf("strict walk left %d bytes of the consumed prefix", len(rest))
		}
		// Round trip: re-encoding the parsed frames rebuilds the prefix.
		var rebuilt []byte
		for _, fr := range frames {
			rebuilt = AppendFrame(rebuilt, fr)
		}
		if !bytes.Equal(rebuilt, data[:consumed]) {
			t.Fatalf("re-encoding differs: %d vs %d bytes", len(rebuilt), consumed)
		}
	})
}

// decodePrefix parses the longest valid frame prefix of b: the tolerant
// parser. It returns the decoded frames, the bytes consumed, and — when
// it stopped early — the reason. Invariants (pinned by FuzzFrame): it
// never panics, the consumed prefix re-encodes byte-identically, and a
// fully consumed input round-trips frame for frame.
func decodePrefix(b []byte) ([]Frame, int, string) {
	var frames []Frame
	consumed := 0
	for consumed < len(b) {
		f, n, err := DecodeFrame(b[consumed:])
		if err != nil {
			return frames, consumed, err.Error()
		}
		frames = append(frames, f)
		consumed += n
	}
	return frames, consumed, ""
}
