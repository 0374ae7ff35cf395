package serial

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// gobReference is what encoding/gob itself writes for v, as the gob
// serializer did before it gained the []byte path.
func gobReference(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatalf("encoding/gob Encode(%T): %v", v, err)
	}
	return buf.Bytes()
}

// gobReferenceDecode decodes data with encoding/gob alone.
func gobReferenceDecode(data []byte) (any, error) {
	var v any
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v)
	return v, err
}

func TestGobBytesMatchEncodingGob(t *testing.T) {
	s := Default().(gobSerializer)
	for _, n := range []int{0, 1, 127, 128, 255, 256, 65535, 65536, 1 << 24, 1<<20 + 3} {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*31 + 7)
		}
		want := gobReference(t, p)

		enc, err := s.Encode(p)
		if err != nil {
			t.Fatalf("n=%d: Encode: %v", n, err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("n=%d: Encode differs from encoding/gob:\n got % x\nwant % x", n, head(enc), head(want))
		}
		var buf bytes.Buffer
		if err := s.EncodeTo(&buf, p); err != nil {
			t.Fatalf("n=%d: EncodeTo: %v", n, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("n=%d: EncodeTo differs from encoding/gob:\n got % x\nwant % x", n, head(buf.Bytes()), head(want))
		}

		ref, err := gobReferenceDecode(enc)
		if err != nil {
			t.Fatalf("n=%d: encoding/gob cannot decode Encode's output: %v", n, err)
		}
		got, err := s.DecodeFrom(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("n=%d: DecodeFrom: %v", n, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("n=%d: DecodeFrom and encoding/gob disagree", n)
		}
		if !bytes.Equal(got.([]byte), p) {
			t.Fatalf("n=%d: round trip changed the payload", n)
		}
	}
}

func head(b []byte) []byte { return b[:min(len(b), 48)] }

// Values other than []byte keep going through encoding/gob unchanged.
func TestGobNonBytesStillRoundTrip(t *testing.T) {
	type point struct{ X, Y int }
	RegisterType(point{})
	s := Default()
	for _, v := range []any{
		"string",
		42,
		map[string]any{"k": "v", "n": 3.5, "b": []byte("x")},
		point{X: 1, Y: -2},
	} {
		data, err := s.Encode(v)
		if err != nil {
			t.Fatalf("Encode(%T): %v", v, err)
		}
		// encoding/gob writes map entries in random order.
		if _, isMap := v.(map[string]any); !isMap && !bytes.Equal(data, gobReference(t, v)) {
			t.Fatalf("Encode(%T) differs from encoding/gob", v)
		}
		got, err := s.Decode(data)
		if err != nil {
			t.Fatalf("Decode(%T): %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip %T: got %#v", v, got)
		}
		got, err = s.(StreamDecoder).DecodeFrom(bytes.NewReader(data))
		if err != nil || !reflect.DeepEqual(got, v) {
			t.Fatalf("DecodeFrom(%T) = %#v, %v", v, got, err)
		}
	}
}

// A header declaring more than the cap is refused before anything of that
// size is allocated.
func TestGobBytesRefusesOversizedHeader(t *testing.T) {
	n := uint64(binMaxLen + 1)
	// The header gob would write for an n-byte []byte, built without the
	// encoder's own cap.
	m := 1 + uint64(gobUintLen(n)) + n
	hdr := appendGobUint(nil, uint64(len(gobBytesType)+gobUintLen(m))+m)
	hdr = appendGobUint(append(hdr, gobBytesType...), m)
	hdr = appendGobUint(append(hdr, 0), n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Default().Decode(hdr)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Decode of a %d-byte header = %v, want the cap refusal", n, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refusing a %d-byte header allocated %d bytes", n, got)
	}
}

// Encoding refuses a []byte the decoder would refuse, so an oversized value
// fails at put rather than at every later get. The header builder both
// encode paths go through is checked at the boundary, with no payload of
// that size allocated.
func TestGobBytesEncodeRefusesOversizedLength(t *testing.T) {
	if _, err := appendGobBytesHeader(nil, binMaxLen); err != nil {
		t.Fatalf("header for a %d-byte []byte: %v", binMaxLen, err)
	}
	if _, err := appendGobBytesHeader(nil, binMaxLen+1); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("header for a %d-byte []byte = %v, want the cap refusal", binMaxLen+1, err)
	}
}

// The header is recognized through a reader that delivers one byte per
// Read, and a truncated payload is an error, not a short value.
func TestGobBytesDecodeFromSplitAndTruncatedInput(t *testing.T) {
	p := bytes.Repeat([]byte("split"), 100)
	enc := gobReference(t, p)
	got, err := Default().(StreamDecoder).DecodeFrom(&oneByteAtATime{b: enc})
	if err != nil || !bytes.Equal(got.([]byte), p) {
		t.Fatalf("DecodeFrom over one-byte reads = %v", err)
	}
	if _, err := Default().Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("Decode of a truncated payload succeeded")
	}
}

type oneByteAtATime struct{ b []byte }

func (r *oneByteAtATime) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0] = r.b[0]
	r.b = r.b[1:]
	return 1, nil
}

// FuzzGobBytes holds DecodeFrom to encoding/gob on arbitrary input: both
// fail, or both return equal values.
func FuzzGobBytes(f *testing.F) {
	for _, n := range []int{0, 1, 127, 128, 300} {
		f.Add(gobReference(f, make([]byte, n)))
	}
	f.Add(gobReference(f, "not bytes"))
	f.Add(gobReference(f, 7))
	f.Add([]byte("\x0e\x10\x00\x07[]uint8\x0a\xff\x02\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := gobReferenceDecode(data)
		got, err := Default().(StreamDecoder).DecodeFrom(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeFrom err = %v, encoding/gob err = %v", err, wantErr)
		}
		// %#v compares values holding NaN, which DeepEqual never equates.
		if err == nil && !reflect.DeepEqual(got, want) && fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("DecodeFrom = %#v, encoding/gob = %#v", got, want)
		}
	})
}
