package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire framing: every message travels as one frame.
//
//	offset 0  magic      0xB2
//	offset 1  version    1
//	offset 2  type       message type (proto.go)
//	offset 3  reserved   must be 0
//	offset 4  length     u32 LE payload byte count
//	offset 8  crc        u32 LE CRC-32C over the type byte then payload
//	offset 12 payload
//
// The CRC covers the type byte so a bit flip anywhere in type or payload
// is detected; flips in length surface as either a CRC mismatch or a
// truncated frame. DecodeFrame names the reason it rejects a frame, so a
// reader walking a torn or corrupted stream keeps every frame before the
// damage and loses only its tail, as with the WAL's tolerant parser.
const (
	frameMagic   = 0xB2
	frameVersion = 1
	// HeaderSize is the fixed frame-header byte count.
	HeaderSize = 12
	// MaxPayload caps one frame's payload (16 MiB): a corrupted length
	// field cannot make a reader attempt an absurd allocation.
	MaxPayload = 1 << 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame is one wire message: a type tag and an opaque payload.
type Frame struct {
	Type    byte
	Payload []byte
}

// frameCRC computes the header CRC: the type byte, then the payload.
func frameCRC(typ byte, payload []byte) uint32 {
	crc := crc32.Update(0, crcTable, []byte{typ})
	return crc32.Update(crc, crcTable, payload)
}

// AppendFrame appends the encoding of f to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	var hdr [HeaderSize]byte
	hdr[0] = frameMagic
	hdr[1] = frameVersion
	hdr[2] = f.Type
	hdr[3] = 0
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(f.Payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], frameCRC(f.Type, f.Payload))
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

// Frame decoding errors.
var (
	ErrFrameTruncated = errors.New("server: truncated frame")
	ErrFrameMagic     = errors.New("server: bad frame magic")
	ErrFrameVersion   = errors.New("server: unsupported frame version")
	ErrFrameReserved  = errors.New("server: nonzero reserved frame byte")
	ErrFrameTooLarge  = errors.New("server: frame payload exceeds cap")
	ErrFrameCRC       = errors.New("server: frame CRC mismatch")
)

// DecodeFrame decodes exactly one frame from the front of b, returning
// it and the bytes consumed. The returned payload aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderSize {
		return Frame{}, 0, ErrFrameTruncated
	}
	if b[0] != frameMagic {
		return Frame{}, 0, ErrFrameMagic
	}
	if b[1] != frameVersion {
		return Frame{}, 0, ErrFrameVersion
	}
	if b[3] != 0 {
		return Frame{}, 0, ErrFrameReserved
	}
	n := binary.LittleEndian.Uint32(b[4:8])
	if n > MaxPayload {
		return Frame{}, 0, ErrFrameTooLarge
	}
	total := HeaderSize + int(n)
	if len(b) < total {
		return Frame{}, 0, ErrFrameTruncated
	}
	payload := b[HeaderSize:total]
	if frameCRC(b[2], payload) != binary.LittleEndian.Uint32(b[8:12]) {
		return Frame{}, 0, ErrFrameCRC
	}
	return Frame{Type: b[2], Payload: payload}, total, nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	buf := AppendFrame(make([]byte, 0, HeaderSize+len(f.Payload)), f)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from r, blocking until a whole frame (or an
// error) arrives. Stream corruption surfaces as a decode error.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	if hdr[0] != frameMagic {
		return Frame{}, ErrFrameMagic
	}
	if hdr[1] != frameVersion {
		return Frame{}, ErrFrameVersion
	}
	if hdr[3] != 0 {
		return Frame{}, ErrFrameReserved
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxPayload {
		return Frame{}, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("%w: %w", ErrFrameTruncated, err)
	}
	if frameCRC(hdr[2], payload) != binary.LittleEndian.Uint32(hdr[8:12]) {
		return Frame{}, ErrFrameCRC
	}
	return Frame{Type: hdr[2], Payload: payload}, nil
}
