package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/local"
	"proxystore/internal/proxy"
	"proxystore/internal/store"
)

// describe returns the factory-state bytes of a store proxy for key.
func describe(t testing.TB, s *store.Store, key connector.Key, opts ...store.ProxyOption) []byte {
	t.Helper()
	p := store.ProxyFromKey[[]byte](s, key, opts...)
	d, err := p.Factory().(proxy.Describable).Describe()
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	if d.Kind != store.FactoryKind {
		t.Fatalf("descriptor kind = %q, want %q", d.Kind, store.FactoryKind)
	}
	return d.Data
}

// codecStore is a store whose connector config has params, for states that
// exercise every field of the frame.
func codecStore(t testing.TB, name string) *store.Store {
	t.Helper()
	store.Unregister(name)
	s, err := store.New(name, local.New(name+"-conn"))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister(name) })
	return s
}

func codecKey() connector.Key {
	return connector.Key{
		ID: connector.NewID(), Type: "local", Size: 1 << 20,
		Attrs: map[string]string{connector.ChunkCountAttr: "4", "site": "theta"},
	}
}

func TestFactoryStateRoundTrip(t *testing.T) {
	s := codecStore(t, "codec-rt")
	key := codecKey()
	data := describe(t, s, key, store.WithEvict(), store.WithProxyMetrics())
	f, err := store.RebuildFactory(data)
	if err != nil {
		t.Fatalf("RebuildFactory: %v", err)
	}
	again, err := f.(proxy.Describable).Describe()
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	if !bytes.Equal(again.Data, data) {
		t.Fatalf("re-encoded state differs:\n got %x\nwant %x", again.Data, data)
	}
	_, got, ok, err := store.KeyOf(proxy.NewFromAny[[]byte](f))
	if err != nil || !ok {
		t.Fatalf("KeyOf: ok=%v err=%v", ok, err)
	}
	if got.ID != key.ID || got.Type != key.Type || got.Size != key.Size || got.String() != key.String() {
		t.Fatalf("rebuilt key = %v, want %v", got, key)
	}
}

// Map iteration order is random, so a state with many entries would encode
// differently from call to call unless the codec sorts them.
func TestDescribeIsDeterministic(t *testing.T) {
	s := codecStore(t, "codec-det")
	key := codecKey()
	for i := 0; i < 32; i++ {
		key.Attrs[fmt.Sprintf("attr-%02d", i)] = fmt.Sprint(i)
	}
	p := store.ProxyFromKey[[]byte](s, key)
	first, err := p.Factory().(proxy.Describable).Describe()
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	for i := 0; i < 10; i++ {
		d, err := p.Factory().(proxy.Describable).Describe()
		if err != nil {
			t.Fatalf("Describe: %v", err)
		}
		if !bytes.Equal(d.Data, first.Data) {
			t.Fatalf("Describe call %d gave different bytes", i+2)
		}
	}
}

func TestStoreDescriptorRejectsEveryStrictPrefix(t *testing.T) {
	s := codecStore(t, "codec-prefix")
	blob, err := store.ProxyFromKey[[]byte](s, codecKey(), store.WithEvict()).MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	for i := 0; i < len(blob); i++ {
		var p proxy.Proxy[[]byte]
		if err := p.UnmarshalBinary(blob[:i]); err == nil {
			t.Fatalf("prefix of %d of %d bytes accepted", i, len(blob))
		}
	}
	var p proxy.Proxy[[]byte]
	if err := p.UnmarshalBinary(blob); err != nil {
		t.Fatalf("full blob rejected: %v", err)
	}
}

// A declared length is checked against the input before anything of that
// size is allocated, so a hostile peer cannot make a consumer allocate.
func TestFactoryStateRefusesOversizedLengths(t *testing.T) {
	const huge = 1 << 30
	str := binary.AppendUvarint(nil, huge) // the store name's length
	str = append(str, "short"...)
	// Valid strings up to the connector params, whose entry count lies.
	m := binary.AppendUvarint(nil, 3)
	m = append(m, "abc"...)
	m = append(m, 0, 0)
	m = binary.AppendUvarint(m, huge)
	m = append(m, 0, 0, 0, 0)
	for name, data := range map[string][]byte{"string": str, "map": m} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := store.RebuildFactory(data)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%s: err = %v, want a length-exceeds error", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: refusing the input allocated %d bytes", name, grew)
		}
	}
}

// oldDescriptor has the field layout proxy.Descriptor had when earlier
// builds gob-encoded it.
type oldDescriptor struct {
	Kind string
	Data []byte
}

func TestGobDescriptorFromEarlierBuildIsRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(oldDescriptor{Kind: store.FactoryKind, Data: []byte("state")}); err != nil {
		t.Fatalf("gob: %v", err)
	}
	var p proxy.Proxy[[]byte]
	err := p.UnmarshalBinary(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "unsupported descriptor format") {
		t.Fatalf("err = %v, want an unsupported descriptor format error", err)
	}
}

func FuzzFactoryState(f *testing.F) {
	s := codecStore(f, "codec-fuzz")
	f.Add(describe(f, s, codecKey()))
	f.Add(describe(f, s, codecKey(), store.WithEvict(), store.WithProxyMetrics()))
	f.Add(describe(f, s, connector.Key{ID: "x", Size: -1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		af, err := store.RebuildFactory(data)
		if err != nil {
			return
		}
		d, err := af.(proxy.Describable).Describe()
		if err != nil {
			t.Fatalf("Describe of an accepted state: %v", err)
		}
		if !bytes.Equal(d.Data, data) {
			t.Fatalf("accepted state re-encodes differently:\n got %x\nwant %x", d.Data, data)
		}
	})
}
