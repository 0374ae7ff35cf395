package serial

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// The gob serializer moves a []byte without encoding/gob's staging
// buffers. gob.NewEncoder(w).Encode(&v), for an interface v holding an
// n-byte []byte, writes exactly one message:
//
//	U(L) | 10 00 07 "[]uint8" 0a | U(m) | 00 | U(n) | payload
//
// U is gob's unsigned integer (one byte below 0x80, else a negated byte
// count and that many big-endian bytes). L is the length of everything
// after U(L); 0x10 is the interface type id (8) as a gob int; 00 is the
// singleton field delta; "[]uint8" is the name registered for []byte in
// init and 0x0a its wire type id (5); m = 1+|U(n)|+n is the length of the
// concrete value that follows. Encoding writes those bytes by hand and the
// payload straight from the slice, and decoding recognizes them and reads
// the payload into one allocation, so the wire bytes, and the serializer
// ID, are those of encoding/gob in both directions.

// gobBytesType is the fixed part of the header between U(L) and U(m).
const gobBytesType = "\x10\x00\x07[]uint8\x0a"

// gobBytesMaxHeader bounds the header: three gob uints of at most nine
// bytes each, the fixed part and the singleton delta.
const gobBytesMaxHeader = 3*9 + len(gobBytesType) + 1

// gobUintLen is the length of x in gob's unsigned encoding.
func gobUintLen(x uint64) int {
	if x < 0x80 {
		return 1
	}
	return 1 + (bits.Len64(x)+7)/8
}

// appendGobUint appends x in gob's unsigned encoding.
func appendGobUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], x)
	k := gobUintLen(x) - 1
	return append(append(b, byte(-k)), be[8-k:]...)
}

// appendGobBytesHeader appends the bytes gob writes ahead of an n-byte
// []byte payload. It refuses n over binMaxLen, the most readGobBytes reads
// back, so a value too large to get fails at put.
func appendGobBytesHeader(b []byte, n int) ([]byte, error) {
	if err := checkGobBytesLen(uint64(n)); err != nil {
		return nil, err
	}
	m := uint64(1 + gobUintLen(uint64(n)) + n)
	l := uint64(len(gobBytesType)+gobUintLen(m)) + m
	b = appendGobUint(b, l)
	b = append(b, gobBytesType...)
	b = appendGobUint(b, m)
	b = append(b, 0)
	return appendGobUint(b, uint64(n)), nil
}

// checkGobBytesLen refuses a []byte payload of more than binMaxLen bytes.
func checkGobBytesLen(n uint64) error {
	if n > binMaxLen {
		return fmt.Errorf("[]byte of %d bytes exceeds the %d cap", n, binMaxLen)
	}
	return nil
}

// encodeGobBytes writes the gob encoding of an interface holding p.
func encodeGobBytes(w io.Writer, p []byte) error {
	var hdr [gobBytesMaxHeader]byte
	h, err := appendGobBytesHeader(hdr[:0], len(p))
	if err != nil {
		return err
	}
	if _, err := w.Write(h); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	_, err = w.Write(p)
	return err
}

// readGobBytes decodes a gob-encoded []byte from br. ok is false, with
// nothing consumed, when the message does not start with exactly the
// header Encode writes; the caller then hands br to encoding/gob. It peeks
// no further than the header, and never past the length the message
// declares for itself. Like encoding/gob it returns a nil slice for an
// empty payload.
func readGobBytes(br *bufio.Reader) (payload []byte, ok bool, err error) {
	l, off, ok := peekGobUint(br, 0, 9)
	if !ok {
		return nil, false, nil
	}
	// The header lies inside the message: peek no further than its end.
	limit := off + int(min(l, uint64(gobBytesMaxHeader)))
	fixed := off + len(gobBytesType)
	if fixed > limit {
		return nil, false, nil
	}
	p, err := br.Peek(fixed)
	if err != nil || string(p[off:]) != gobBytesType {
		return nil, false, nil
	}
	m, off, ok := peekGobUint(br, fixed, limit)
	if !ok || off+1 > limit {
		return nil, false, nil
	}
	if p, err = br.Peek(off + 1); err != nil || p[off] != 0 {
		return nil, false, nil
	}
	n, hdrLen, ok := peekGobUint(br, off+1, limit)
	if !ok || m != 1+uint64(gobUintLen(n))+n || l != uint64(len(gobBytesType)+gobUintLen(m))+m {
		return nil, false, nil
	}
	if err := checkGobBytesLen(n); err != nil {
		return nil, true, err
	}
	br.Discard(hdrLen)
	if n == 0 {
		return nil, true, nil
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, true, fmt.Errorf("[]byte payload: %w", err)
	}
	return payload, true, nil
}

// peekGobUint decodes the gob unsigned integer starting off bytes into
// br's unread input, without consuming it and without peeking past limit.
// end is the offset just past the integer. ok is false unless the integer
// lies within limit and is in the shortest form, the only one an Encoder
// writes.
func peekGobUint(br *bufio.Reader, off, limit int) (x uint64, end int, ok bool) {
	if off+1 > limit {
		return 0, 0, false
	}
	p, err := br.Peek(off + 1)
	if err != nil {
		return 0, 0, false
	}
	if b := p[off]; b < 0x80 {
		return uint64(b), off + 1, true
	}
	k := -int(int8(p[off]))
	end = off + 1 + k
	if k > 8 || end > limit {
		return 0, 0, false
	}
	if p, err = br.Peek(end); err != nil {
		return 0, 0, false
	}
	for _, b := range p[off+1:] {
		x = x<<8 | uint64(b)
	}
	return x, end, gobUintLen(x) == 1+k
}
