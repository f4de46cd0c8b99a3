package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Ship framing: every replication message travels as one ship frame. The
// layout extends the server's wire frame with the two fields log shipping
// cannot live without — the segment epoch and the byte offset the payload
// starts at — so a replica can detect a truncation it slept through or a
// stream that rewound, without peeking into the payload.
//
//	offset 0  magic      0xB5
//	offset 1  version    1
//	offset 2  type       ShipAppend / ShipSnapshot / ShipAck
//	offset 3  reserved   must be 0
//	offset 4  epoch      u64 LE WAL segment epoch
//	offset 12 offset     u64 LE byte offset of the payload in the image
//	offset 20 length     u32 LE payload byte count
//	offset 24 crc        u32 LE CRC-32C over type, epoch, offset, payload
//	offset 28 payload    raw segment (or checkpoint image) bytes
//
// The CRC covers every semantic field, so a flip in type, epoch, offset, or
// payload is detected; flips in length surface as a CRC mismatch or a
// truncated frame. DecodeShipFrame names the reason it rejects a frame, so
// a reader walking a damaged stream keeps every frame before the damage, as
// with the WAL's tolerant parser.
const (
	shipMagic   = 0xB5
	shipVersion = 1
	// ShipHeaderSize is the fixed ship-frame header byte count.
	ShipHeaderSize = 28
	// MaxShipPayload caps one frame's payload (16 MiB), like the server's
	// wire frames: a corrupted length cannot force an absurd allocation.
	MaxShipPayload = 1 << 24
)

// Ship frame types.
const (
	// ShipAppend extends the replica's copy of the current segment: the
	// payload is the primary's durable image bytes [Offset, Offset+len).
	ShipAppend = byte(iota + 1)
	// ShipSnapshot re-seeds the replica at an epoch boundary: the payload
	// is the primary's checkpoint-device image, Offset is zero.
	ShipSnapshot
	// ShipAck answers every frame: Offset echoes the replica's received
	// byte count and the payload is its applied commit count (u64 LE).
	ShipAck
)

var shipCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ShipFrame is one replication message.
type ShipFrame struct {
	Type    byte
	Epoch   uint64
	Offset  uint64
	Payload []byte
}

// shipCRC computes the frame CRC: type, epoch, offset, then payload.
func shipCRC(f ShipFrame) uint32 {
	var pre [17]byte
	pre[0] = f.Type
	binary.LittleEndian.PutUint64(pre[1:9], f.Epoch)
	binary.LittleEndian.PutUint64(pre[9:17], f.Offset)
	crc := crc32.Update(0, shipCRCTable, pre[:])
	return crc32.Update(crc, shipCRCTable, f.Payload)
}

// AppendShipFrame appends the encoding of f to dst and returns the result.
func AppendShipFrame(dst []byte, f ShipFrame) []byte {
	var hdr [ShipHeaderSize]byte
	hdr[0] = shipMagic
	hdr[1] = shipVersion
	hdr[2] = f.Type
	hdr[3] = 0
	binary.LittleEndian.PutUint64(hdr[4:12], f.Epoch)
	binary.LittleEndian.PutUint64(hdr[12:20], f.Offset)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(f.Payload)))
	binary.LittleEndian.PutUint32(hdr[24:28], shipCRC(f))
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

// Ship-frame decoding errors.
var (
	ErrShipTruncated = errors.New("repl: truncated ship frame")
	ErrShipMagic     = errors.New("repl: bad ship frame magic")
	ErrShipVersion   = errors.New("repl: unsupported ship frame version")
	ErrShipReserved  = errors.New("repl: nonzero reserved ship frame byte")
	ErrShipTooLarge  = errors.New("repl: ship frame payload exceeds cap")
	ErrShipCRC       = errors.New("repl: ship frame CRC mismatch")
)

// DecodeShipFrame decodes exactly one frame from the front of b, returning
// it and the bytes consumed. The returned payload aliases b.
func DecodeShipFrame(b []byte) (ShipFrame, int, error) {
	if len(b) < ShipHeaderSize {
		return ShipFrame{}, 0, ErrShipTruncated
	}
	if b[0] != shipMagic {
		return ShipFrame{}, 0, ErrShipMagic
	}
	if b[1] != shipVersion {
		return ShipFrame{}, 0, ErrShipVersion
	}
	if b[3] != 0 {
		return ShipFrame{}, 0, ErrShipReserved
	}
	n := binary.LittleEndian.Uint32(b[20:24])
	if n > MaxShipPayload {
		return ShipFrame{}, 0, ErrShipTooLarge
	}
	total := ShipHeaderSize + int(n)
	if len(b) < total {
		return ShipFrame{}, 0, ErrShipTruncated
	}
	f := ShipFrame{
		Type:    b[2],
		Epoch:   binary.LittleEndian.Uint64(b[4:12]),
		Offset:  binary.LittleEndian.Uint64(b[12:20]),
		Payload: b[ShipHeaderSize:total],
	}
	if shipCRC(f) != binary.LittleEndian.Uint32(b[24:28]) {
		return ShipFrame{}, 0, ErrShipCRC
	}
	return f, total, nil
}

// WriteShipFrame writes one frame to w.
func WriteShipFrame(w io.Writer, f ShipFrame) error {
	if len(f.Payload) > MaxShipPayload {
		return ErrShipTooLarge
	}
	buf := AppendShipFrame(make([]byte, 0, ShipHeaderSize+len(f.Payload)), f)
	_, err := w.Write(buf)
	return err
}

// ReadShipFrame reads one frame from r, blocking until a whole frame (or an
// error) arrives. Stream corruption surfaces as a decode error.
func ReadShipFrame(r io.Reader) (ShipFrame, error) {
	var hdr [ShipHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return ShipFrame{}, err
	}
	if hdr[0] != shipMagic {
		return ShipFrame{}, ErrShipMagic
	}
	if hdr[1] != shipVersion {
		return ShipFrame{}, ErrShipVersion
	}
	if hdr[3] != 0 {
		return ShipFrame{}, ErrShipReserved
	}
	n := binary.LittleEndian.Uint32(hdr[20:24])
	if n > MaxShipPayload {
		return ShipFrame{}, ErrShipTooLarge
	}
	f := ShipFrame{
		Type:    hdr[2],
		Epoch:   binary.LittleEndian.Uint64(hdr[4:12]),
		Offset:  binary.LittleEndian.Uint64(hdr[12:20]),
		Payload: make([]byte, n),
	}
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return ShipFrame{}, fmt.Errorf("%w: %w", ErrShipTruncated, err)
	}
	if shipCRC(f) != binary.LittleEndian.Uint32(hdr[24:28]) {
		return ShipFrame{}, ErrShipCRC
	}
	return f, nil
}
