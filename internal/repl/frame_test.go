package repl

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestShipFrameRoundTrip(t *testing.T) {
	frames := []ShipFrame{
		{Type: ShipAppend, Epoch: 0, Offset: 0, Payload: []byte("wal2")},
		{Type: ShipAppend, Epoch: 7, Offset: 1 << 33, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		{Type: ShipSnapshot, Epoch: 8, Offset: 0, Payload: []byte("checkpoint image")},
		{Type: ShipAck, Epoch: 8, Offset: 42, Payload: []byte{9, 0, 0, 0, 0, 0, 0, 0}},
		{Type: ShipAck},
	}
	var stream []byte
	for _, f := range frames {
		stream = AppendShipFrame(stream, f)
	}

	// Strict walk.
	rest := stream
	for i, want := range frames {
		got, n, err := DecodeShipFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Epoch != want.Epoch ||
			got.Offset != want.Offset || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d round trip: got %+v want %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after strict walk", len(rest))
	}

	// Tolerant walk consumes everything without a stop reason.
	parsed, consumed, reason := decodeShipPrefix(stream)
	if consumed != len(stream) || reason != "" || len(parsed) != len(frames) {
		t.Fatalf("prefix: %d frames, %d/%d bytes, reason %q",
			len(parsed), consumed, len(stream), reason)
	}

	// io round trip.
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteShipFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadShipFrame(&buf)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Epoch != want.Epoch ||
			got.Offset != want.Offset || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("io frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadShipFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want io.EOF", err)
	}
}

// Every corruption a wire can inflict maps to its specific sentinel, and a
// bit flip anywhere in the semantic fields is caught by the CRC.
func TestShipFrameCorruption(t *testing.T) {
	base := AppendShipFrame(nil, ShipFrame{Type: ShipAppend, Epoch: 5, Offset: 99, Payload: []byte("payload")})

	mut := func(i int, b byte) []byte {
		c := append([]byte(nil), base...)
		c[i] = b
		return c
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"short header", base[:ShipHeaderSize-1], ErrShipTruncated},
		{"short payload", base[:len(base)-1], ErrShipTruncated},
		{"bad magic", mut(0, 0xB2), ErrShipMagic},
		{"bad version", mut(1, 9), ErrShipVersion},
		{"reserved set", mut(3, 1), ErrShipReserved},
		{"type flip", mut(2, ShipAck), ErrShipCRC},
		{"epoch flip", mut(4, 0xFF), ErrShipCRC},
		{"offset flip", mut(13, 0xFF), ErrShipCRC},
		{"payload flip", mut(ShipHeaderSize, 'X'), ErrShipCRC},
		{"crc flip", mut(24, base[24]^0x01), ErrShipCRC},
	}
	for _, tc := range cases {
		if _, _, err := DecodeShipFrame(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		// The tolerant parser stops at the corruption with that reason.
		frames, consumed, reason := decodeShipPrefix(tc.buf)
		if len(frames) != 0 || consumed != 0 || reason != tc.want.Error() {
			t.Errorf("%s: prefix = %d frames, %d bytes, %q", tc.name, len(frames), consumed, reason)
		}
	}

	// A corrupt length field surfaces as too-large, before any allocation.
	huge := mut(23, 0xFF)
	if _, _, err := DecodeShipFrame(huge); !errors.Is(err, ErrShipTooLarge) {
		t.Fatalf("oversize length: %v", err)
	}
	if _, err := ReadShipFrame(bytes.NewReader(huge)); !errors.Is(err, ErrShipTooLarge) {
		t.Fatalf("oversize length via reader: %v", err)
	}
}
