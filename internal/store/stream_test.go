package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/file"
	"proxystore/internal/connectors/local"
	"proxystore/internal/proxy"
	"proxystore/internal/serial"
	"proxystore/internal/store"
)

// --- Streaming data plane ------------------------------------------------

func TestPutReaderGetReaderRoundTrip(t *testing.T) {
	s := newTestStore(t, "stream-rt")
	ctx := context.Background()
	payload := bytes.Repeat([]byte("stream me "), 100_000) // ~1 MiB, multi-chunk

	key, err := s.PutReader(ctx, bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("PutReader: %v", err)
	}
	if key.Size != int64(len(payload)) {
		t.Fatalf("key.Size = %d, want %d", key.Size, len(payload))
	}
	r, err := s.GetReader(ctx, key)
	if err != nil {
		t.Fatalf("GetReader: %v", err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("streamed round trip corrupted payload")
	}
}

func TestGetReaderMissingSurfacesNotFound(t *testing.T) {
	s := newTestStore(t, "stream-missing")
	ctx := context.Background()
	key, err := s.PutReader(ctx, bytes.NewReader([]byte("x")))
	if err != nil {
		t.Fatalf("PutReader: %v", err)
	}
	if err := s.Evict(ctx, key); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	r, err := s.GetReader(ctx, key)
	if err != nil {
		t.Fatalf("GetReader: %v", err)
	}
	defer r.Close()
	if _, err := io.ReadAll(r); !errors.Is(err, connector.ErrNotFound) {
		t.Fatalf("read of evicted object = %v, want ErrNotFound", err)
	}
}

// PutObject/GetObject must round-trip through the pipe-streamed path when
// both the serializer and connector stream (gob + file connector here),
// and evicted keys must still surface ErrNotFound through the pipe.
func TestObjectStreamedPathThroughFileConnector(t *testing.T) {
	conn, err := file.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.New("stream-file", conn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Unregister("stream-file") })
	ctx := context.Background()

	payload := bytes.Repeat([]byte{0xCE}, 3*(256<<10)+11) // spans several chunks
	key, err := s.PutObject(ctx, payload)
	if err != nil {
		t.Fatalf("PutObject: %v", err)
	}
	got, err := store.Get[[]byte](ctx, s, key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("streamed object round trip corrupted payload")
	}

	if err := s.Evict(ctx, key); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if _, err := s.GetObject(ctx, key); !errors.Is(err, connector.ErrNotFound) {
		t.Fatalf("GetObject after evict = %v, want ErrNotFound", err)
	}
}

// --- Batch data plane ----------------------------------------------------

func TestStorePutGetBatch(t *testing.T) {
	s := newTestStore(t, "obj-batch")
	ctx := context.Background()
	values := []any{[]byte("one"), []byte("two"), []byte("three")}
	keys, err := s.PutBatch(ctx, values)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	got, err := s.GetBatch(ctx, keys)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i := range values {
		if !bytes.Equal(got[i].([]byte), values[i].([]byte)) {
			t.Fatalf("GetBatch[%d] = %q, want %q", i, got[i], values[i])
		}
	}
	// A second GetBatch must be served from the deserialized-object cache.
	before := s.Metrics()
	if _, err := s.GetBatch(ctx, keys); err != nil {
		t.Fatalf("second GetBatch: %v", err)
	}
	after := s.Metrics()
	if after.Gets != before.Gets {
		t.Fatalf("second GetBatch hit the connector (%d -> %d gets)", before.Gets, after.Gets)
	}
	if after.CacheHits != before.CacheHits+3 {
		t.Fatalf("cache hits %d -> %d, want +3", before.CacheHits, after.CacheHits)
	}
}

func TestResolveBatch(t *testing.T) {
	s := newTestStore(t, "resolve-batch")
	ctx := context.Background()
	values := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	proxies, err := store.NewProxyBatch(ctx, s, values)
	if err != nil {
		t.Fatalf("NewProxyBatch: %v", err)
	}
	if err := store.ResolveBatch(ctx, proxies); err != nil {
		t.Fatalf("ResolveBatch: %v", err)
	}
	for i, p := range proxies {
		if !p.Resolved() {
			t.Fatalf("proxy %d unresolved after ResolveBatch", i)
		}
		if v := p.MustValue(); !bytes.Equal(v, values[i]) {
			t.Fatalf("proxy %d = %q, want %q", i, v, values[i])
		}
	}
}

func TestResolveBatchEvictsEphemeralObjects(t *testing.T) {
	s := newTestStore(t, "resolve-batch-evict")
	ctx := context.Background()
	proxies, err := store.NewProxyBatch(ctx, s,
		[][]byte{[]byte("x"), []byte("y")}, store.WithEvict())
	if err != nil {
		t.Fatalf("NewProxyBatch: %v", err)
	}
	if err := store.ResolveBatch(ctx, proxies); err != nil {
		t.Fatalf("ResolveBatch: %v", err)
	}
	if n := s.Connector().(*local.Connector).Len(); n != 0 {
		t.Fatalf("connector holds %d objects after evict-on-resolve batch, want 0", n)
	}
	// Targets remain usable from the proxies' caches.
	if v := proxies[0].MustValue(); string(v) != "x" {
		t.Fatalf("cached value = %q", v)
	}
}

func TestResolveBatchMixedAndResolved(t *testing.T) {
	s := newTestStore(t, "resolve-batch-mixed")
	ctx := context.Background()
	ps, err := store.NewProxyBatch(ctx, s, [][]byte{[]byte("p"), []byte("q")})
	if err != nil {
		t.Fatalf("NewProxyBatch: %v", err)
	}
	if _, err := ps[0].Value(ctx); err != nil { // pre-resolve one
		t.Fatalf("Value: %v", err)
	}
	plain := proxy.FromValue([]byte("already here"))
	all := append(ps, plain)
	if err := store.ResolveBatch(ctx, all); err != nil {
		t.Fatalf("ResolveBatch: %v", err)
	}
	for i, p := range all {
		if !p.Resolved() {
			t.Fatalf("proxy %d unresolved", i)
		}
	}
}

// --- Byte-cost cache -----------------------------------------------------

// One object larger than the whole cache budget must not be cached, and
// must not evict the budget's worth of smaller objects either.
func TestByteCostCacheHugeObjectNotPinned(t *testing.T) {
	s := newTestStore(t, "byte-cache",
		store.WithSerializer(serial.Raw()), store.WithCacheBytes(1<<20))
	ctx := context.Background()

	small, err := s.PutObject(ctx, []byte("small object"))
	if err != nil {
		t.Fatalf("PutObject: %v", err)
	}
	if _, err := s.GetObject(ctx, small); err != nil { // populate cache
		t.Fatalf("GetObject: %v", err)
	}

	huge, err := s.PutObject(ctx, make([]byte, 2<<20)) // over the whole budget
	if err != nil {
		t.Fatalf("PutObject: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.GetObject(ctx, huge); err != nil {
			t.Fatalf("GetObject huge #%d: %v", i, err)
		}
	}

	m := s.Metrics()
	// The huge object is never cached: both gets hit the connector...
	if m.Gets != 3 {
		t.Fatalf("connector gets = %d, want 3 (1 small + 2 uncached huge)", m.Gets)
	}
	// ...and the small object survived it.
	before := m.CacheHits
	if _, err := s.GetObject(ctx, small); err != nil {
		t.Fatalf("GetObject small again: %v", err)
	}
	if got := s.Metrics().CacheHits; got != before+1 {
		t.Fatal("small object was evicted by an uncacheable huge object")
	}
}

// --- Registry and descriptor round trips ---------------------------------

// GetOrInit must be race-free: concurrent callers for the same unregistered
// name all get the same instance and exactly one survives in the registry.
func TestGetOrInitConcurrentRace(t *testing.T) {
	store.ResetRegistry()
	t.Cleanup(store.ResetRegistry)
	cfg := connector.Config{Type: "local", Params: map[string]string{"name": "race-conn"}}

	const goroutines = 32
	stores := make([]*store.Store, goroutines)
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < goroutines; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			stores[i], errs[i] = store.GetOrInit("race-store", cfg, serial.GobID)
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("GetOrInit #%d: %v", i, errs[i])
		}
		if stores[i] != stores[0] {
			t.Fatalf("GetOrInit #%d returned a different instance", i)
		}
	}
	reg, ok := store.Lookup("race-store")
	if !ok || reg != stores[0] {
		t.Fatal("registry does not hold the winning instance")
	}

	// The winning store must actually work.
	ctx := context.Background()
	key, err := store.Put(ctx, stores[0], []byte("raced"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, err := store.Get[[]byte](ctx, stores[0], key); err != nil || string(v) != "raced" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestGetOrInitConcurrentWithPutTraffic(t *testing.T) {
	store.ResetRegistry()
	t.Cleanup(store.ResetRegistry)
	cfg := connector.Config{Type: "local", Params: map[string]string{"name": "traffic-conn"}}
	ctx := context.Background()

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				s, err := store.GetOrInit("traffic-store", cfg, serial.GobID)
				if err != nil {
					errCh <- err
					return
				}
				payload := []byte(fmt.Sprintf("g%d-i%d", g, i))
				key, err := store.Put(ctx, s, payload)
				if err != nil {
					errCh <- err
					return
				}
				got, err := store.Get[[]byte](ctx, s, key)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errCh <- fmt.Errorf("round trip mismatch: %q != %q", got, payload)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// A proxy descriptor must survive a fresh-process-like state: every store
// unregistered (ResetRegistry) and the factory rebuilt purely through the
// RegisterKind machinery, exactly as a consumer process would do it.
func TestProxyDescriptorRoundTripFreshProcessState(t *testing.T) {
	store.ResetRegistry()
	t.Cleanup(store.ResetRegistry)
	ctx := context.Background()

	s, err := store.New("fresh-proc", local.New("fresh-proc-conn"))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	p, err := store.NewProxy(ctx, s, []byte("survives reset"))
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}

	// Simulate the consumer process: no stores registered at all.
	store.ResetRegistry()
	if _, ok := store.Lookup("fresh-proc"); ok {
		t.Fatal("store registry not empty after reset")
	}

	var received proxy.Proxy[[]byte]
	if err := received.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	v, err := received.Value(ctx)
	if err != nil {
		t.Fatalf("Value: %v", err)
	}
	if string(v) != "survives reset" {
		t.Fatalf("Value = %q", v)
	}
	if _, ok := store.Lookup("fresh-proc"); !ok {
		t.Fatal("resolution did not re-register the store")
	}
}

// The same round trip must work when the descriptor kind is rebuilt through
// a caller-supplied RegisterKind hook, proving the registry is the only
// coupling between producer and consumer.
func TestProxyDescriptorRebuildViaRegisterKind(t *testing.T) {
	store.ResetRegistry()
	t.Cleanup(store.ResetRegistry)
	ctx := context.Background()

	s, err := store.New("rk-store", local.New("rk-conn"))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	p, err := store.NewProxy(ctx, s, []byte("via custom kind"))
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	desc, err := p.Factory().(proxy.Describable).Describe()
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	if desc.Kind != store.FactoryKind {
		t.Fatalf("descriptor kind = %q, want %q", desc.Kind, store.FactoryKind)
	}

	// Re-register the store kind under a fresh name, as a process with
	// custom wiring would, and rebuild the factory through it.
	var rebuilt int
	proxy.RegisterKind("store-copy", func(data []byte) (proxy.AnyFactory, error) {
		rebuilt++
		return store.RebuildFactory(data)
	})
	store.ResetRegistry()

	var received proxy.Proxy[[]byte]
	blob := mustMarshalDescriptor(t, proxy.Descriptor{Kind: "store-copy", Data: desc.Data})
	if err := received.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	v, err := received.Value(ctx)
	if err != nil {
		t.Fatalf("Value: %v", err)
	}
	if string(v) != "via custom kind" {
		t.Fatalf("Value = %q", v)
	}
	if rebuilt != 1 {
		t.Fatalf("custom rebuilder invoked %d times, want 1", rebuilt)
	}
}

// mustMarshalDescriptor encodes a descriptor exactly as Proxy.MarshalBinary
// does, letting tests synthesize wire blobs for alternative kinds.
func mustMarshalDescriptor(t *testing.T, d proxy.Descriptor) []byte {
	t.Helper()
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatalf("encoding descriptor: %v", err)
	}
	return blob
}
