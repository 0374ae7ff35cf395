// Package store implements the Store: the high-level interface applications
// use to interact with ProxyStore (paper §3.5).
//
// A Store wraps a Connector (dependency injection), adds (de)serialization
// and post-deserialization caching, and mints proxies whose factories carry
// everything needed — store name, connector config, object key, serializer
// id, evict flag — to resolve the target in any process. Stores register
// globally by name so that initialization happens once per process, caches
// are shared, and stateful connections are reused; a proxy resolved on a
// process that has never seen the store reconstructs and registers it.
package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"proxystore/internal/cache"
	"proxystore/internal/connector"
	"proxystore/internal/proxy"
	"proxystore/internal/serial"
	"proxystore/internal/telemetry"
)

// Option configures a Store at construction.
type Option func(*Store)

// WithSerializer sets the store's serializer (default: gob).
func WithSerializer(s serial.Serializer) Option {
	return func(st *Store) { st.ser = s }
}

// DefaultCacheBytes is the default byte budget of the deserialized-object
// cache.
const DefaultCacheBytes = 64 << 20

// cacheEntryOverhead approximates the fixed per-entry bookkeeping cost
// (map bucket, list element, entry struct, key string) charged on top of
// the payload bytes, so tiny-object floods cannot exceed the byte budget
// severalfold in real memory.
const cacheEntryOverhead = 256

// WithCacheBytes sets the deserialized-object cache budget in bytes; cached
// objects are charged their encoded size. Zero disables caching. The byte
// budget replaces the old entry-count capacity so one huge object cannot
// pin many huge objects' worth of memory.
func WithCacheBytes(n int64) Option {
	return func(st *Store) { st.cacheBytes = n }
}

// WithCacheSize sets the cache capacity as an approximate object count,
// assuming the historical ~4 MiB-per-object budget. Zero disables caching.
//
// Deprecated: the cache is byte-cost now; use WithCacheBytes.
func WithCacheSize(n int) Option {
	return func(st *Store) { st.cacheBytes = int64(n) * (4 << 20) }
}

// WithTelemetry backs the store's counters with the given registry
// instead of a fresh private one, merging its metrics into a snapshot the
// caller already aggregates (e.g. the process default registry exposed on
// a -metrics-addr endpoint).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(st *Store) { st.reg = reg }
}

// Metrics counts store operations; all fields are cumulative.
//
// Metrics is a stable snapshot view over the store's telemetry registry
// (see Telemetry), which additionally carries the per-connector operation
// latency histograms store.put.ns / store.get.ns.
type Metrics struct {
	Puts       uint64
	Gets       uint64
	Evicts     uint64
	BytesPut   uint64
	BytesGot   uint64
	CacheHits  uint64
	Proxies    uint64
	Serialized uint64
	// CacheHitBytes is the charged byte cost served from the
	// deserialized-object cache instead of the connector.
	CacheHitBytes uint64
	// CacheEvictions counts entries the cache's byte budget pushed out.
	CacheEvictions uint64
}

// storeMetrics caches the store's registry handles so hot paths never
// take the registry lock.
type storeMetrics struct {
	puts, gets, evicts *telemetry.Counter
	bytesPut, bytesGot *telemetry.Counter
	cacheHits, proxies *telemetry.Counter
	serialized         *telemetry.Counter
	cacheHitBytes      *telemetry.Counter
	putNs, getNs       *telemetry.Histogram
	resolveNs          *telemetry.Histogram
}

func newStoreMetrics(reg *telemetry.Registry) storeMetrics {
	return storeMetrics{
		puts:          reg.Counter("store.puts"),
		gets:          reg.Counter("store.gets"),
		evicts:        reg.Counter("store.evicts"),
		bytesPut:      reg.Counter("store.bytes_put"),
		bytesGot:      reg.Counter("store.bytes_got"),
		cacheHits:     reg.Counter("store.cache.hits"),
		proxies:       reg.Counter("store.proxies"),
		serialized:    reg.Counter("store.serialized"),
		cacheHitBytes: reg.Counter("store.cache.hit_bytes"),
		putNs:         reg.Histogram("store.put.ns"),
		getNs:         reg.Histogram("store.get.ns"),
		resolveNs:     reg.Histogram("store.proxy_resolve.ns"),
	}
}

// Store mediates object storage through a Connector.
//
// A Store is safe for concurrent use.
type Store struct {
	name       string
	conn       connector.Connector
	ser        serial.Serializer
	cacheBytes int64
	cache      *cache.LRU
	reg        *telemetry.Registry
	m          storeMetrics
}

var (
	regMu    sync.Mutex
	registry = make(map[string]*Store)
)

// New creates a store named name over conn and registers it globally.
// Creating a second store with a registered name is an error; use Lookup
// or GetOrInit for idempotent access.
func New(name string, conn connector.Connector, opts ...Option) (*Store, error) {
	if name == "" {
		return nil, fmt.Errorf("store: name must be non-empty")
	}
	if conn == nil {
		return nil, fmt.Errorf("store: nil connector")
	}
	s := &Store{name: name, conn: conn, ser: serial.Default(), cacheBytes: DefaultCacheBytes}
	for _, o := range opts {
		o(s)
	}
	s.cache = cache.NewCost(s.cacheBytes)
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.m = newStoreMetrics(s.reg)

	regMu.Lock()
	defer regMu.Unlock()
	if _, exists := registry[name]; exists {
		return nil, fmt.Errorf("store: %q already registered", name)
	}
	registry[name] = s
	return s, nil
}

// Lookup returns the registered store with the given name.
func Lookup(name string) (*Store, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := registry[name]
	return s, ok
}

// GetOrInit returns the registered store named name, or constructs one from
// the connector config and serializer id and registers it. This is the
// mechanism proxies use to materialize stores on consumer processes.
func GetOrInit(name string, cfg connector.Config, serializerID string) (*Store, error) {
	regMu.Lock()
	if s, ok := registry[name]; ok {
		regMu.Unlock()
		return s, nil
	}
	regMu.Unlock()

	conn, err := connector.FromConfig(cfg)
	if err != nil {
		return nil, fmt.Errorf("store: reconstructing connector for %q: %w", name, err)
	}
	ser, err := serial.Lookup(serializerID)
	if err != nil {
		conn.Close()
		return nil, err
	}

	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := registry[name]; ok { // lost the race; discard ours
		go conn.Close()
		return s, nil
	}
	s := &Store{name: name, conn: conn, ser: ser, cacheBytes: DefaultCacheBytes}
	s.cache = cache.NewCost(s.cacheBytes)
	s.reg = telemetry.NewRegistry()
	s.m = newStoreMetrics(s.reg)
	registry[name] = s
	return s, nil
}

// Unregister removes a store from the global registry and closes its
// connector. Primarily for tests and orderly shutdown.
func Unregister(name string) error {
	regMu.Lock()
	s, ok := registry[name]
	delete(registry, name)
	regMu.Unlock()
	if !ok {
		return nil
	}
	return s.conn.Close()
}

// ResetRegistry unregisters every store. For tests.
func ResetRegistry() {
	regMu.Lock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	regMu.Unlock()
	for _, n := range names {
		Unregister(n)
	}
}

// Name returns the store's registered name.
func (s *Store) Name() string { return s.name }

// Connector returns the store's underlying connector.
func (s *Store) Connector() connector.Connector { return s.conn }

// Serializer returns the store's serializer.
func (s *Store) Serializer() serial.Serializer { return s.ser }

// Metrics returns a snapshot of operation counters.
func (s *Store) Metrics() Metrics {
	return Metrics{
		Puts:           s.m.puts.Value(),
		Gets:           s.m.gets.Value(),
		Evicts:         s.m.evicts.Value(),
		BytesPut:       s.m.bytesPut.Value(),
		BytesGot:       s.m.bytesGot.Value(),
		CacheHits:      s.m.cacheHits.Value(),
		Proxies:        s.m.proxies.Value(),
		Serialized:     s.m.serialized.Value(),
		CacheHitBytes:  s.cache.HitBytes(),
		CacheEvictions: s.cache.Evictions(),
	}
}

// Telemetry returns the store's metric registry: the Metrics counters
// under store.* names plus the connector op latency histograms
// store.put.ns / store.get.ns and, for proxies minted with
// WithProxyMetrics, store.proxy_resolve.ns.
func (s *Store) Telemetry() *telemetry.Registry { return s.reg }

// PutOption constrains a single put.
type PutOption func(*putOptions)

type putOptions struct {
	tags []string
}

// WithTags constrains the object's placement: the connector must route it
// to a backend carrying every given tag (e.g. "persistent", "fast" — the
// multi connector's policy tags). Putting with tags through a connector
// that cannot honor them (no connector.TaggedPutter) is an error, never a
// silent drop of the constraint.
func WithTags(tags ...string) PutOption {
	return func(o *putOptions) { o.tags = append(o.tags, tags...) }
}

// PutObject serializes v and stores it through the connector. When both the
// serializer and the connector can stream, serialization is piped straight
// into the connector's streaming path so the encoded form is never
// materialized; otherwise the classic blob path is used. Placement
// constraints (WithTags) route through the connector's tagged put surface.
func (s *Store) PutObject(ctx context.Context, v any, opts ...PutOption) (connector.Key, error) {
	start := time.Now()
	var o putOptions
	for _, opt := range opts {
		opt(&o)
	}
	enc, encOK := s.ser.(serial.StreamEncoder)
	streamPut := func(r io.Reader) (connector.Key, error) { return connector.PutFrom(ctx, s.conn, r) }
	blobPut := func(data []byte) (connector.Key, error) { return s.conn.Put(ctx, data) }
	_, useStream := s.conn.(connector.StreamPutter)
	if len(o.tags) > 0 {
		tsp, tspOK := s.conn.(connector.TaggedStreamPutter)
		tp, tpOK := s.conn.(connector.TaggedPutter)
		switch {
		case tspOK:
			useStream = true
			streamPut = func(r io.Reader) (connector.Key, error) { return tsp.PutFromTagged(ctx, r, o.tags) }
			// Even a non-streaming serializer keeps its tags: the encoded
			// blob rides the tagged streaming path through a reader.
			blobPut = func(data []byte) (connector.Key, error) {
				return tsp.PutFromTagged(ctx, bytes.NewReader(data), o.tags)
			}
		case tpOK:
			useStream = false // no tagged streaming: encode, then tagged blob put
			blobPut = func(data []byte) (connector.Key, error) { return tp.PutTagged(ctx, data, o.tags) }
		default:
			return connector.Key{}, fmt.Errorf("store %q: connector %q does not support placement tags %v",
				s.name, s.conn.Type(), o.tags)
		}
	}

	if useStream && encOK {
		pr, pw := io.Pipe()
		go func() {
			pw.CloseWithError(enc.EncodeTo(pw, v))
		}()
		key, err := streamPut(pr)
		pr.Close() // unblock the encoder if the connector bailed early
		if err != nil {
			return connector.Key{}, fmt.Errorf("store %q: stream put: %w", s.name, err)
		}
		s.m.serialized.Add(1)
		s.m.puts.Add(1)
		s.m.bytesPut.Add(uint64(key.Size))
		s.m.putNs.Since(start)
		return key, nil
	}

	data, err := s.ser.Encode(v)
	if err != nil {
		return connector.Key{}, fmt.Errorf("store %q: serializing: %w", s.name, err)
	}
	s.m.serialized.Add(1)
	key, err := blobPut(data)
	if err != nil {
		return connector.Key{}, fmt.Errorf("store %q: put: %w", s.name, err)
	}
	s.m.puts.Add(1)
	s.m.bytesPut.Add(uint64(len(data)))
	s.m.putNs.Since(start)
	return key, nil
}

// GetObject retrieves and deserializes the object for key, consulting the
// deserialized-object cache first. When both the serializer and the
// connector can stream, the object is decoded straight off the connector's
// streaming path through a pipe; otherwise the blob path is used.
func (s *Store) GetObject(ctx context.Context, key connector.Key) (any, error) {
	if v, cost, ok := s.cache.GetCost(key.ID); ok {
		s.m.cacheHits.Add(1)
		s.m.cacheHitBytes.Add(uint64(cost))
		return v, nil
	}
	start := time.Now()
	dec, decOK := s.ser.(serial.StreamDecoder)
	sg, connOK := s.conn.(connector.StreamGetter)
	if connOK && decOK {
		return s.getStreamed(ctx, key, sg, dec)
	}
	data, err := s.conn.Get(ctx, key)
	if err != nil {
		return nil, fmt.Errorf("store %q: get %s: %w", s.name, key, err)
	}
	s.m.gets.Add(1)
	s.m.bytesGot.Add(uint64(len(data)))
	s.m.getNs.Since(start)
	v, err := s.ser.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("store %q: deserializing %s: %w", s.name, key, err)
	}
	s.cache.SetCost(key.ID, v, int64(len(data))+cacheEntryOverhead)
	return v, nil
}

// getStreamed decodes the object off the connector's streaming path. The
// transfer error takes priority over the decode error (a mid-stream failure
// surfaces to the decoder as a truncated input), except for the pipe-closed
// error we cause ourselves when the decoder stops early.
func (s *Store) getStreamed(ctx context.Context, key connector.Key, sg connector.StreamGetter, dec serial.StreamDecoder) (any, error) {
	start := time.Now()
	pr, pw := io.Pipe()
	getErr := make(chan error, 1)
	go func() {
		err := sg.GetTo(ctx, key, pw)
		pw.CloseWithError(err)
		getErr <- err
	}()
	cr := &countingReader{r: pr}
	v, decErr := dec.DecodeFrom(cr)
	if decErr == nil {
		// The decoder may not have consumed trailing buffered bytes; drain
		// so the transfer goroutine can finish cleanly.
		io.Copy(io.Discard, cr)
	}
	pr.Close()
	gerr := <-getErr
	if gerr != nil && !errors.Is(gerr, io.ErrClosedPipe) {
		return nil, fmt.Errorf("store %q: get %s: %w", s.name, key, gerr)
	}
	if decErr != nil {
		return nil, fmt.Errorf("store %q: deserializing %s: %w", s.name, key, decErr)
	}
	s.m.gets.Add(1)
	s.m.bytesGot.Add(uint64(cr.n))
	s.m.getNs.Since(start)
	s.cache.SetCost(key.ID, v, cr.n+cacheEntryOverhead)
	return v, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// PutReader streams raw bytes from r into the connector, bypassing the
// serializer. It is the byte-stream half of the data plane: peak memory is
// O(chunk) when the connector streams natively. A connector that streams
// over a connection pool, as redisc does, may hold one pooled connection
// for as long as r takes to deliver the stream.
func (s *Store) PutReader(ctx context.Context, r io.Reader) (connector.Key, error) {
	start := time.Now()
	key, err := connector.PutFrom(ctx, s.conn, r)
	if err != nil {
		return connector.Key{}, fmt.Errorf("store %q: stream put: %w", s.name, err)
	}
	s.m.puts.Add(1)
	s.m.bytesPut.Add(uint64(key.Size))
	s.m.putNs.Since(start)
	return key, nil
}

// GetReader streams the raw stored bytes of key, bypassing the serializer
// and the deserialized-object cache. The caller must Close the reader; a
// transfer failure (including ErrNotFound) surfaces as a read error.
//
// The transfer starts at once and feeds the reader through a pipe, so it
// runs at the pace the caller reads. A connector that streams over a
// connection pool, as redisc does, holds one pooled connection until the
// reader is drained or closed: with as many readers open and unread as
// the pool has connections, every other operation on that connector,
// another GetReader included, waits until one of them is read or closed.
func (s *Store) GetReader(ctx context.Context, key connector.Key) (io.ReadCloser, error) {
	start := time.Now()
	pr, pw := io.Pipe()
	go func() {
		err := connector.GetTo(ctx, s.conn, key, pw)
		if err == nil {
			s.m.gets.Add(1)
			s.m.bytesGot.Add(uint64(key.Size))
			s.m.getNs.Since(start)
		}
		pw.CloseWithError(err)
	}()
	return pr, nil
}

// Exists reports whether key's object is currently stored.
func (s *Store) Exists(ctx context.Context, key connector.Key) (bool, error) {
	return s.conn.Exists(ctx, key)
}

// Evict removes key's object from the mediated channel and the local cache.
func (s *Store) Evict(ctx context.Context, key connector.Key) error {
	s.cache.Delete(key.ID)
	if err := s.conn.Evict(ctx, key); err != nil {
		return fmt.Errorf("store %q: evict %s: %w", s.name, key, err)
	}
	s.m.evicts.Add(1)
	return nil
}

// Close unregisters the store and closes its connector.
func (s *Store) Close() error {
	regMu.Lock()
	if registry[s.name] == s {
		delete(registry, s.name)
	}
	regMu.Unlock()
	return s.conn.Close()
}

// --- Typed helpers -------------------------------------------------------

// Put serializes and stores a typed value.
func Put[T any](ctx context.Context, s *Store, v T) (connector.Key, error) {
	return s.PutObject(ctx, v)
}

// Get retrieves a typed value.
func Get[T any](ctx context.Context, s *Store, key connector.Key) (T, error) {
	var zero T
	v, err := s.GetObject(ctx, key)
	if err != nil {
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("store %q: object %s has type %T, want %T", s.name, key, v, zero)
	}
	return t, nil
}

// ProxyOption configures proxy creation.
type ProxyOption func(*proxyOptions)

type proxyOptions struct {
	evict   bool
	metrics bool
	putTags []string
}

// WithEvict makes the proxy evict the object from the mediated channel when
// first resolved — the right choice for write-once/read-once intermediate
// values (paper §3.5).
func WithEvict() ProxyOption {
	return func(o *proxyOptions) { o.evict = true }
}

// WithProxyMetrics marks the minted proxy for resolve timing: each
// resolution records its wall-clock duration into the resolving store's
// store.proxy_resolve.ns histogram (Telemetry). The flag travels in the
// factory state, so resolutions on consumer processes are timed too. Off
// by default — untimed proxies pay nothing.
func WithProxyMetrics() ProxyOption {
	return func(o *proxyOptions) { o.metrics = true }
}

// WithPutTags constrains where NewProxy places the target object, exactly
// like PutObject's WithTags: the connector must route it to a backend
// carrying every tag. The tags affect only the put; the minted factory
// carries the resulting key like any other.
func WithPutTags(tags ...string) ProxyOption {
	return func(o *proxyOptions) { o.putTags = append(o.putTags, tags...) }
}

// NewProxy stores v and returns a lazy proxy whose factory can resolve it
// in any process. This is the paper's Store.proxy.
func NewProxy[T any](ctx context.Context, s *Store, v T, opts ...ProxyOption) (*proxy.Proxy[T], error) {
	var o proxyOptions
	for _, opt := range opts {
		opt(&o)
	}
	var putOpts []PutOption
	if len(o.putTags) > 0 {
		putOpts = append(putOpts, WithTags(o.putTags...))
	}
	key, err := s.PutObject(ctx, v, putOpts...)
	if err != nil {
		return nil, err
	}
	return ProxyFromKey[T](s, key, opts...), nil
}

// ProxyFromKey builds a proxy for an object already stored under key.
func ProxyFromKey[T any](s *Store, key connector.Key, opts ...ProxyOption) *proxy.Proxy[T] {
	var o proxyOptions
	for _, opt := range opts {
		opt(&o)
	}
	s.m.proxies.Add(1)
	f := &storeFactory{state: factoryState{
		StoreName:  s.name,
		Connector:  s.conn.Config(),
		Key:        key,
		Evict:      o.evict,
		Serializer: s.ser.ID(),
		Metrics:    o.metrics,
	}}
	return proxy.NewFromAny[T](f)
}

// PutBatch serializes values and stores them with a single batched backend
// operation when the connector supports it (e.g. one Globus transfer task
// or one redis MSET for many objects).
func (s *Store) PutBatch(ctx context.Context, values []any) ([]connector.Key, error) {
	blobs := make([][]byte, len(values))
	for i, v := range values {
		data, err := s.ser.Encode(v)
		if err != nil {
			return nil, fmt.Errorf("store %q: serializing batch item %d: %w", s.name, i, err)
		}
		blobs[i] = data
	}
	s.m.serialized.Add(uint64(len(values)))

	start := time.Now()
	keys, err := connector.Stream(s.conn).PutBatch(ctx, blobs)
	if err != nil {
		return nil, fmt.Errorf("store %q: batch put: %w", s.name, err)
	}
	for _, b := range blobs {
		s.m.bytesPut.Add(uint64(len(b)))
	}
	s.m.puts.Add(uint64(len(blobs)))
	s.m.putNs.Since(start)
	return keys, nil
}

// GetBatch retrieves and deserializes many objects, serving what it can
// from the deserialized-object cache and fetching the rest with a single
// batched backend operation when the connector supports it (e.g. one redis
// MGET). Results are positionally aligned with keys.
func (s *Store) GetBatch(ctx context.Context, keys []connector.Key) ([]any, error) {
	out := make([]any, len(keys))
	var missing []connector.Key
	var missingIdx []int
	for i, k := range keys {
		if v, cost, ok := s.cache.GetCost(k.ID); ok {
			s.m.cacheHits.Add(1)
			s.m.cacheHitBytes.Add(uint64(cost))
			out[i] = v
			continue
		}
		missing = append(missing, k)
		missingIdx = append(missingIdx, i)
	}
	if len(missing) == 0 {
		return out, nil
	}
	start := time.Now()
	blobs, err := connector.Stream(s.conn).GetBatch(ctx, missing)
	if err != nil {
		return nil, fmt.Errorf("store %q: batch get: %w", s.name, err)
	}
	s.m.getNs.Since(start)
	for j, data := range blobs {
		v, err := s.ser.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("store %q: deserializing %s: %w", s.name, missing[j], err)
		}
		s.m.gets.Add(1)
		s.m.bytesGot.Add(uint64(len(data)))
		s.cache.SetCost(missing[j].ID, v, int64(len(data))+cacheEntryOverhead)
		out[missingIdx[j]] = v
	}
	return out, nil
}

// NewProxyBatch stores values and returns one proxy per value, using a
// single batched backend operation when the connector supports it (e.g.
// one Globus transfer task for many objects — the paper's proxy_batch).
// Pair with ResolveBatch on the consumer side to also fetch the targets in
// one batched operation.
func NewProxyBatch[T any](ctx context.Context, s *Store, values []T, opts ...ProxyOption) ([]*proxy.Proxy[T], error) {
	anyValues := make([]any, len(values))
	for i, v := range values {
		anyValues[i] = v
	}
	keys, err := s.PutBatch(ctx, anyValues)
	if err != nil {
		return nil, err
	}
	proxies := make([]*proxy.Proxy[T], len(keys))
	for i, k := range keys {
		proxies[i] = ProxyFromKey[T](s, k, opts...)
	}
	return proxies, nil
}

// ResolveBatch materializes every unresolved proxy in one batched get per
// backing store — the consumer-side half of the paper's proxy_batch,
// surfaced over connector.BatchGetter. Store-backed proxies are grouped by
// store and fetched with Store.GetBatch (one MGET-style round trip when the
// connector supports it); proxies with evict-on-resolve semantics are
// evicted after the batch lands; non-store proxies fall back to individual
// resolution. Already-resolved proxies are untouched.
func ResolveBatch[T any](ctx context.Context, proxies []*proxy.Proxy[T]) error {
	type group struct {
		store   *Store
		keys    []connector.Key
		proxies []*proxy.Proxy[T]
		evict   []bool
	}
	groups := make(map[*Store]*group)
	var order []*Store
	var loners []*proxy.Proxy[T]
	for _, p := range proxies {
		if p == nil || p.Resolved() {
			continue
		}
		af, ok := proxy.Underlying(p)
		if !ok {
			loners = append(loners, p)
			continue
		}
		sf, ok := af.(*storeFactory)
		if !ok {
			loners = append(loners, p)
			continue
		}
		st, err := GetOrInit(sf.state.StoreName, sf.state.Connector, sf.state.Serializer)
		if err != nil {
			return err
		}
		g := groups[st]
		if g == nil {
			g = &group{store: st}
			groups[st] = g
			order = append(order, st)
		}
		g.keys = append(g.keys, sf.state.Key)
		g.proxies = append(g.proxies, p)
		g.evict = append(g.evict, sf.state.Evict)
	}
	for _, st := range order {
		g := groups[st]
		values, err := g.store.GetBatch(ctx, g.keys)
		if err != nil {
			return err
		}
		for i, v := range values {
			t, ok := v.(T)
			if !ok {
				var zero T
				return fmt.Errorf("store %q: batch object %s has type %T, want %T",
					g.store.name, g.keys[i], v, zero)
			}
			g.proxies[i].Prime(t)
			if g.evict[i] {
				if err := g.store.Evict(ctx, g.keys[i]); err != nil {
					return err
				}
			}
		}
	}
	// Non-store proxies cannot share a backend round trip, but they can at
	// least resolve concurrently — in bounded chunks, so a huge batch does
	// not spawn one in-flight fetch (and payload) per proxy at once.
	const lonerWindow = 8
	for len(loners) > 0 {
		chunk := loners
		if len(chunk) > lonerWindow {
			chunk = chunk[:lonerWindow]
		}
		loners = loners[len(chunk):]
		proxy.Prefetch(ctx, chunk...)
		if _, err := proxy.AwaitAll(ctx, chunk...); err != nil {
			return err
		}
	}
	return nil
}

// KeyOf returns the backing store and object key of a store-backed proxy
// without resolving it, materializing the store from the factory's embedded
// config when this process has never seen it. Subscription layers (pstream)
// use it to evict consumed objects and to inspect object sizes from proxies
// alone. ok is false for proxies not backed by a store factory.
func KeyOf[T any](p *proxy.Proxy[T]) (s *Store, key connector.Key, ok bool, err error) {
	af, found := proxy.Underlying(p)
	if !found {
		return nil, connector.Key{}, false, nil
	}
	sf, found := af.(*storeFactory)
	if !found {
		return nil, connector.Key{}, false, nil
	}
	st, err := GetOrInit(sf.state.StoreName, sf.state.Connector, sf.state.Serializer)
	if err != nil {
		return nil, connector.Key{}, false, err
	}
	return st, sf.state.Key, true, nil
}

// --- The store factory ---------------------------------------------------

// factoryState is the serialized payload of a store factory: everything a
// consumer process needs to reconstruct the store and fetch the target.
type factoryState struct {
	StoreName  string
	Connector  connector.Config
	Key        connector.Key
	Evict      bool
	Serializer string
	// Metrics opts the proxy into resolve timing (WithProxyMetrics).
	Metrics bool
}

// storeFactory resolves a target object through a (possibly reconstructed)
// Store. It implements proxy.AnyFactory and proxy.Describable.
type storeFactory struct {
	state factoryState
}

// FactoryKind is the proxy descriptor kind for store factories.
const FactoryKind = "store"

func (f *storeFactory) ResolveAny(ctx context.Context) (any, error) {
	s, err := GetOrInit(f.state.StoreName, f.state.Connector, f.state.Serializer)
	if err != nil {
		return nil, err
	}
	if f.state.Metrics {
		defer s.m.resolveNs.Since(time.Now())
	}
	v, err := s.GetObject(ctx, f.state.Key)
	if err != nil {
		return nil, err
	}
	if f.state.Evict {
		if err := s.Evict(ctx, f.state.Key); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Describe encodes the factory state in the frame documented in
// descriptor.go. A redis-backed state is about 130 bytes, so one
// allocation of 160 usually holds it.
func (f *storeFactory) Describe() (proxy.Descriptor, error) {
	return proxy.Descriptor{Kind: FactoryKind, Data: appendState(make([]byte, 0, 160), &f.state)}, nil
}

// RebuildFactory reconstructs a store proxy factory from its descriptor
// data. It is the FactoryKind rebuilder installed at init, exported so
// processes with custom descriptor wiring can route their own kinds through
// the store machinery via proxy.RegisterKind.
func RebuildFactory(data []byte) (proxy.AnyFactory, error) {
	st, err := decodeState(data)
	if err != nil {
		return nil, err
	}
	return &storeFactory{state: st}, nil
}

func init() {
	proxy.RegisterKind(FactoryKind, RebuildFactory)
}
