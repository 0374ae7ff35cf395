package serial

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// BinaryID is the registry ID of the length-prefixed binary serializer.
const BinaryID = "binary"

// binarySerializer is a self-delimiting binary codec built for the
// streamed data plane: every value is one frame — a type byte followed by
// a type-specific payload, length-prefixed with a uvarint where the size
// is not implied — so a decoder consumes exactly the frame's bytes and a
// frame can be streamed without whole-message buffering.
//
// Byte strings and strings are the first-class citizens (the common
// payloads of the paper's benchmarks): EncodeTo writes the backing bytes
// straight into the writer with no intermediate copy, and DecodeFrom
// reads them with io.ReadFull into exactly one allocation of the declared
// length. The gob serializer does the same for a []byte, but a string or
// any other value goes through encoding/gob, whose encoder and decoder
// both materialize the whole encoded message internally — O(object) extra
// memory on each side of a 64 MiB transfer.
//
// Scalars are normalized like encoding/json normalizes numbers: every
// signed integer decodes as int64, every unsigned as uint64, every float
// as float64. Values outside the native set travel in a gob envelope
// frame (length-prefixed), so any type the gob serializer accepts still
// round-trips — it just pays gob's buffering for that one value.
type binarySerializer struct{}

// Binary returns the length-prefixed binary serializer.
func Binary() Serializer { return binarySerializer{} }

func (binarySerializer) ID() string { return BinaryID }

// Frame type bytes. The gob envelope deliberately reuses no gob magic:
// the type byte alone routes decoding.
const (
	binNil    = 0x00
	binBytes  = 0x01
	binString = 0x02
	binInt    = 0x03
	binUint   = 0x04
	binFloat  = 0x05
	binTrue   = 0x06
	binFalse  = 0x07
	binGob    = 0x08
)

// binMaxLen caps a frame's declared payload length (1 GiB), so a corrupt
// or adversarial length prefix cannot trigger an arbitrary allocation.
const binMaxLen = 1 << 30

func (binarySerializer) Encode(v any) ([]byte, error) {
	var buf byteSliceWriter
	if err := (binarySerializer{}).EncodeTo(&buf, v); err != nil {
		return nil, err
	}
	return buf.b, nil
}

func (binarySerializer) Decode(data []byte) (any, error) {
	return (binarySerializer{}).DecodeFrom(&byteSliceReader{b: data})
}

// EncodeTo implements StreamEncoder. For []byte and string the payload is
// written directly from the value's backing bytes — no copy, no staging
// buffer — so peak extra memory is O(1).
func (binarySerializer) EncodeTo(w io.Writer, v any) error {
	var hdr [1 + binary.MaxVarintLen64]byte
	writeFrame := func(t byte, n uint64, payload []byte) error {
		hdr[0] = t
		k := 1 + binary.PutUvarint(hdr[1:], n)
		if _, err := w.Write(hdr[:k]); err != nil {
			return fmt.Errorf("serial: binary encode: %w", err)
		}
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("serial: binary encode: %w", err)
		}
		return nil
	}
	switch x := v.(type) {
	case nil:
		hdr[0] = binNil
		_, err := w.Write(hdr[:1])
		return err
	case []byte:
		return writeFrame(binBytes, uint64(len(x)), x)
	case string:
		return writeFrame(binString, uint64(len(x)), []byte(x))
	case int:
		return writeVarintFrame(w, binInt, int64(x))
	case int8:
		return writeVarintFrame(w, binInt, int64(x))
	case int16:
		return writeVarintFrame(w, binInt, int64(x))
	case int32:
		return writeVarintFrame(w, binInt, int64(x))
	case int64:
		return writeVarintFrame(w, binInt, x)
	case uint:
		return writeUvarintFrame(w, binUint, uint64(x))
	case uint8:
		return writeUvarintFrame(w, binUint, uint64(x))
	case uint16:
		return writeUvarintFrame(w, binUint, uint64(x))
	case uint32:
		return writeUvarintFrame(w, binUint, uint64(x))
	case uint64:
		return writeUvarintFrame(w, binUint, x)
	case float32:
		return writeFloatFrame(w, float64(x))
	case float64:
		return writeFloatFrame(w, x)
	case bool:
		hdr[0] = binFalse
		if x {
			hdr[0] = binTrue
		}
		_, err := w.Write(hdr[:1])
		return err
	default:
		// Gob envelope: anything the default serializer accepts. The
		// envelope is length-prefixed so the frame stays self-delimiting,
		// which costs materializing this one value — the price of falling
		// off the native fast path.
		data, err := Default().Encode(v)
		if err != nil {
			return fmt.Errorf("serial: binary encode (gob envelope): %w", err)
		}
		return writeFrame(binGob, uint64(len(data)), data)
	}
}

func writeVarintFrame(w io.Writer, t byte, n int64) error {
	var buf [1 + binary.MaxVarintLen64]byte
	buf[0] = t
	k := 1 + binary.PutVarint(buf[1:], n)
	_, err := w.Write(buf[:k])
	return err
}

func writeUvarintFrame(w io.Writer, t byte, n uint64) error {
	var buf [1 + binary.MaxVarintLen64]byte
	buf[0] = t
	k := 1 + binary.PutUvarint(buf[1:], n)
	_, err := w.Write(buf[:k])
	return err
}

func writeFloatFrame(w io.Writer, f float64) error {
	var buf [9]byte
	buf[0] = binFloat
	binary.BigEndian.PutUint64(buf[1:], math.Float64bits(f))
	_, err := w.Write(buf[:])
	return err
}

// DecodeFrom implements StreamDecoder. It consumes exactly one frame:
// varints are read byte by byte and payloads with io.ReadFull, so nothing
// past the frame is touched and the reader can carry trailing data.
func (binarySerializer) DecodeFrom(r io.Reader) (any, error) {
	br := oneByteReader{r}
	t, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("serial: binary decode: %w", err)
	}
	readLen := func() (int, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("serial: binary decode: length prefix: %w", err)
		}
		if n > binMaxLen {
			return 0, fmt.Errorf("serial: binary decode: frame of %d bytes exceeds the %d cap", n, binMaxLen)
		}
		return int(n), nil
	}
	switch t {
	case binNil:
		return nil, nil
	case binBytes, binString, binGob:
		n, err := readLen()
		if err != nil {
			return nil, err
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("serial: binary decode: payload: %w", err)
		}
		switch t {
		case binBytes:
			return payload, nil
		case binString:
			return string(payload), nil
		default:
			v, err := Default().Decode(payload)
			if err != nil {
				return nil, fmt.Errorf("serial: binary decode (gob envelope): %w", err)
			}
			return v, nil
		}
	case binInt:
		n, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("serial: binary decode: varint: %w", err)
		}
		return n, nil
	case binUint:
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("serial: binary decode: uvarint: %w", err)
		}
		return n, nil
	case binFloat:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("serial: binary decode: float: %w", err)
		}
		return math.Float64frombits(binary.BigEndian.Uint64(buf[:])), nil
	case binTrue:
		return true, nil
	case binFalse:
		return false, nil
	default:
		return nil, fmt.Errorf("serial: binary decode: unknown frame type 0x%02x", t)
	}
}

// oneByteReader adapts an io.Reader to io.ByteReader with single-byte
// reads, so varint decoding never buffers past the frame. Varints are at
// most ten bytes, so the per-byte read cost is bounded per frame.
type oneByteReader struct{ r io.Reader }

func (b oneByteReader) ReadByte() (byte, error) {
	var p [1]byte
	if _, err := io.ReadFull(b.r, p[:]); err != nil {
		return 0, err
	}
	return p[0], nil
}

// byteSliceWriter collects Encode output without bytes.Buffer's initial
// copy-growth for the large payload case: the first large Write lands in
// one exactly-sized allocation.
type byteSliceWriter struct{ b []byte }

func (w *byteSliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// byteSliceReader is a minimal io.Reader over a slice (bytes.Reader
// without the extra surface).
type byteSliceReader struct {
	b []byte
	i int
}

func (r *byteSliceReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

func init() {
	Register(binarySerializer{})
}
