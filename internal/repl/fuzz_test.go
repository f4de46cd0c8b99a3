package repl

import (
	"bytes"
	"testing"
)

// FuzzShipFrame throws arbitrary bytes at the ship-frame parsers, mirroring
// the server's FuzzFrame. Invariants: decodeShipPrefix never panics,
// consumed stays in bounds, a partial prefix always carries a reason, the
// consumed prefix re-encodes byte-identically, and DecodeShipFrame agrees
// frame-for-frame with the tolerant walk.
func FuzzShipFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendShipFrame(nil, ShipFrame{Type: ShipAppend, Epoch: 3, Offset: 20, Payload: []byte("segment bytes")}))
	f.Add(AppendShipFrame(
		AppendShipFrame(nil, ShipFrame{Type: ShipSnapshot, Epoch: 4, Payload: []byte("ckpt image")}),
		ShipFrame{Type: ShipAck, Epoch: 4, Offset: 132, Payload: []byte{7, 0, 0, 0, 0, 0, 0, 0}},
	))
	f.Add(AppendShipFrame(nil, ShipFrame{Type: ShipAck}))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, consumed, reason := decodeShipPrefix(data)
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
			got, n, err := DecodeShipFrame(rest)
			if err != nil {
				t.Fatalf("strict decode of consumed frame %d failed: %v", i, err)
			}
			if got.Type != want.Type || got.Epoch != want.Epoch ||
				got.Offset != want.Offset || !bytes.Equal(got.Payload, want.Payload) {
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
			rebuilt = AppendShipFrame(rebuilt, fr)
		}
		if !bytes.Equal(rebuilt, data[:consumed]) {
			t.Fatalf("re-encoding differs: %d vs %d bytes", len(rebuilt), consumed)
		}
	})
}

// decodeShipPrefix parses the longest valid frame prefix of b: the tolerant
// parser. It returns the decoded frames, the bytes consumed, and — when it
// stopped early — the reason. Invariants (pinned by FuzzShipFrame): it never
// panics, the consumed prefix re-encodes byte-identically, and a fully
// consumed input round-trips frame for frame.
func decodeShipPrefix(b []byte) ([]ShipFrame, int, string) {
	var frames []ShipFrame
	consumed := 0
	for consumed < len(b) {
		f, n, err := DecodeShipFrame(b[consumed:])
		if err != nil {
			return frames, consumed, err.Error()
		}
		frames = append(frames, f)
		consumed += n
	}
	return frames, consumed, ""
}
