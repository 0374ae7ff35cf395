// Package serial provides the (de)serialization layer used by Store.
//
// The paper's Store serializes Python objects with pickle before handing
// bytes to a Connector, and lets applications register custom serializers.
// This package mirrors that contract: a Serializer turns arbitrary Go values
// into bytes and back, serializers are registered by ID so a factory
// travelling to another process can name the codec it needs, and a default
// gob-based serializer handles any registered Go type.
package serial

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Serializer converts values to and from byte strings.
type Serializer interface {
	// ID is the stable registry name of the serializer. It is embedded in
	// proxy factories so remote processes can locate the same codec.
	ID() string
	// Encode serializes v.
	Encode(v any) ([]byte, error)
	// Decode deserializes data into a freshly decoded value.
	Decode(data []byte) (any, error)
}

// StreamEncoder is implemented by serializers that can encode directly into
// a writer without materializing the encoded form. Store uses it to pipe
// serialization straight into a streaming connector, keeping peak memory
// O(chunk) for large objects.
type StreamEncoder interface {
	EncodeTo(w io.Writer, v any) error
}

// StreamDecoder is the read-side pair of StreamEncoder: decode directly
// from a reader without materializing the encoded form first.
type StreamDecoder interface {
	DecodeFrom(r io.Reader) (any, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Serializer)
)

// Register makes a serializer available by its ID, replacing any previous
// registration with the same ID.
func Register(s Serializer) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[s.ID()] = s
}

// Lookup returns the serializer registered under id.
func Lookup(id string) (Serializer, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("serial: no serializer registered with id %q", id)
	}
	return s, nil
}

// Default returns the gob serializer, the Store default.
func Default() Serializer { return gobSerializer{} }

// RegisterType makes a concrete type encodable through the default gob
// serializer. Applications must register their own payload types once
// (typically in an init function), exactly as gob.Register requires.
func RegisterType(v any) { gob.Register(v) }

// gobSerializer encodes values through an interface indirection so that the
// decoder can recover the concrete type without knowing it statically. A
// []byte takes a hand-written path (gobbytes.go) that produces and accepts
// exactly encoding/gob's bytes without its staging buffers.
type gobSerializer struct{}

// GobID is the registry ID of the default serializer.
const GobID = "gob"

// RawID is the registry ID of the pass-through byte serializer.
const RawID = "raw"

// JSONID is the registry ID of the JSON serializer.
const JSONID = "json"

func (gobSerializer) ID() string { return GobID }

func (gobSerializer) Encode(v any) ([]byte, error) {
	if p, ok := v.([]byte); ok {
		var hdr [gobBytesMaxHeader]byte
		h, err := appendGobBytesHeader(hdr[:0], len(p))
		if err != nil {
			return nil, fmt.Errorf("serial: gob encode: %w", err)
		}
		return append(append(make([]byte, 0, len(h)+len(p)), h...), p...), nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("serial: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

func (s gobSerializer) Decode(data []byte) (any, error) {
	return s.DecodeFrom(bytes.NewReader(data))
}

// EncodeTo implements StreamEncoder. A []byte payload is written straight
// from the slice; one over the 1 GiB cap is refused, as Encode refuses it,
// since DecodeFrom would not read it back.
func (gobSerializer) EncodeTo(w io.Writer, v any) error {
	if p, ok := v.([]byte); ok {
		if err := encodeGobBytes(w, p); err != nil {
			return fmt.Errorf("serial: gob encode: %w", err)
		}
		return nil
	}
	if err := gob.NewEncoder(w).Encode(&v); err != nil {
		return fmt.Errorf("serial: gob encode: %w", err)
	}
	return nil
}

// gobPeekSize is the read buffer DecodeFrom puts in front of its reader to
// recognize a []byte header. It holds the whole header, so an input that
// delivers the header in one piece is peeked with one read.
const gobPeekSize = 64

// DecodeFrom implements StreamDecoder. A []byte payload is read into one
// allocation; any other message goes to encoding/gob.
func (gobSerializer) DecodeFrom(r io.Reader) (any, error) {
	br := bufio.NewReaderSize(r, gobPeekSize)
	if p, ok, err := readGobBytes(br); ok {
		if err != nil {
			return nil, fmt.Errorf("serial: gob decode: %w", err)
		}
		return p, nil
	}
	var v any
	if err := gob.NewDecoder(br).Decode(&v); err != nil {
		return nil, fmt.Errorf("serial: gob decode: %w", err)
	}
	return v, nil
}

// rawSerializer passes []byte through untouched and converts strings. It is
// the fast path for applications that move opaque buffers (the common case
// in the paper's benchmarks).
type rawSerializer struct{}

// Raw returns the pass-through byte serializer.
func Raw() Serializer { return rawSerializer{} }

func (rawSerializer) ID() string { return RawID }

func (rawSerializer) Encode(v any) ([]byte, error) {
	switch x := v.(type) {
	case []byte:
		return x, nil
	case string:
		return []byte(x), nil
	default:
		return nil, fmt.Errorf("serial: raw serializer supports []byte and string, got %T", v)
	}
}

func (rawSerializer) Decode(data []byte) (any, error) { return data, nil }

// jsonSerializer round-trips values through encoding/json. Decoded values
// use JSON's generic shapes (map[string]any, []any, float64).
type jsonSerializer struct{}

// JSON returns the JSON serializer.
func JSON() Serializer { return jsonSerializer{} }

func (jsonSerializer) ID() string { return JSONID }

func (jsonSerializer) Encode(v any) ([]byte, error) { return json.Marshal(v) }

func (jsonSerializer) Decode(data []byte) (any, error) {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("serial: json decode: %w", err)
	}
	return v, nil
}

// EncodeTo implements StreamEncoder.
func (jsonSerializer) EncodeTo(w io.Writer, v any) error {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("serial: json encode: %w", err)
	}
	return nil
}

// DecodeFrom implements StreamDecoder.
func (jsonSerializer) DecodeFrom(r io.Reader) (any, error) {
	var v any
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		return nil, fmt.Errorf("serial: json decode: %w", err)
	}
	return v, nil
}

func init() {
	Register(gobSerializer{})
	Register(rawSerializer{})
	Register(jsonSerializer{})

	// Pre-register common payload shapes so interface-indirected gob
	// encoding works out of the box.
	gob.Register([]byte(nil))
	gob.Register("")
	gob.Register(0)
	gob.Register(int64(0))
	gob.Register(uint64(0))
	gob.Register(0.0)
	gob.Register(float32(0))
	gob.Register(false)
	gob.Register([]float64(nil))
	gob.Register([]float32(nil))
	gob.Register([]int(nil))
	gob.Register([]string(nil))
	gob.Register([]any(nil))
	gob.Register(map[string]any(nil))
	gob.Register(map[string]string(nil))
	gob.Register(map[string]float64(nil))
	gob.Register(time.Time{})
}
