package store

import (
	"encoding/binary"
	"fmt"
	"sort"

	"proxystore/internal/connector"
)

// The store factory state travels as the Data of a proxy.Descriptor of
// kind FactoryKind. Its fields are written in a fixed order:
//
//	StoreName, Serializer, Connector.Type   uvarint-prefixed strings
//	Connector.Params                        string map
//	Key.ID, Key.Type                        uvarint-prefixed strings
//	Key.Size                                varint
//	Key.Attrs                               string map
//	flags                                   one byte: stateEvict | stateMetrics
//
// A string map is a uvarint entry count followed by key, value pairs in
// ascending key order, so one state always encodes to the same bytes. The
// decoder accepts exactly what the encoder writes: minimal varints, sorted
// unique map keys, known flag bits and no trailing bytes.

const (
	stateEvict   = 1 << 0
	stateMetrics = 1 << 1
)

func appendState(b []byte, st *factoryState) []byte {
	b = appendString(b, st.StoreName)
	b = appendString(b, st.Serializer)
	b = appendString(b, st.Connector.Type)
	b = appendStringMap(b, st.Connector.Params)
	b = appendString(b, st.Key.ID)
	b = appendString(b, st.Key.Type)
	b = binary.AppendVarint(b, st.Key.Size)
	b = appendStringMap(b, st.Key.Attrs)
	var flags byte
	if st.Evict {
		flags |= stateEvict
	}
	if st.Metrics {
		flags |= stateMetrics
	}
	return append(b, flags)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStringMap(b []byte, m map[string]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = appendString(b, k)
		b = appendString(b, m[k])
	}
	return b
}

func decodeState(data []byte) (factoryState, error) {
	r := stateReader{buf: data}
	var st factoryState
	st.StoreName = r.string()
	st.Serializer = r.string()
	st.Connector = connector.Config{Type: r.string(), Params: r.stringMap()}
	st.Key = connector.Key{ID: r.string(), Type: r.string(), Size: r.varint(), Attrs: r.stringMap()}
	flags := r.byte()
	if flags&^(stateEvict|stateMetrics) != 0 {
		r.fail("unknown flag bits 0x%02x", flags)
	}
	if len(r.buf) > 0 {
		r.fail("%d trailing bytes", len(r.buf))
	}
	if r.err != nil {
		return factoryState{}, fmt.Errorf("store: decoding factory state: %w", r.err)
	}
	st.Evict = flags&stateEvict != 0
	st.Metrics = flags&stateMetrics != 0
	return st, nil
}

// stateReader consumes the state frame. The first error sticks: every
// later read returns a zero value, so decodeState checks once at the end.
type stateReader struct {
	buf []byte
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf)
	if n <= 0 || (n > 1 && r.buf[n-1] == 0) {
		r.fail("malformed varint")
		return 0
	}
	r.buf = r.buf[n:]
	return x
}

func (r *stateReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zigzag, as binary.AppendVarint writes
}

func (r *stateReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

func (r *stateReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail("string length %d exceeds the %d bytes left", n, len(r.buf))
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *stateReader) stringMap() map[string]string {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	// Each entry takes at least two bytes (two empty strings), so a count
	// above half the remaining input is a lie; refuse it before make.
	if n > uint64(len(r.buf))/2 {
		r.fail("map of %d entries exceeds the %d bytes left", n, len(r.buf))
		return nil
	}
	m := make(map[string]string, n)
	prev := ""
	for i := uint64(0); i < n; i++ {
		k, v := r.string(), r.string()
		if r.err != nil {
			return nil
		}
		if i > 0 && k <= prev {
			r.fail("map keys out of order at %q", k)
			return nil
		}
		m[k], prev = v, k
	}
	return m
}
