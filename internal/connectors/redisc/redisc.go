// Package redisc provides the RedisConnector: mediated communication
// through a (mini) Redis server (paper §4.1.2). The reference
// implementation is 31 lines of Python; this one is comparably thin over
// the kvstore client, demonstrating the ease of extending the proxy model
// to new mediated channels.
package redisc

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"

	"proxystore/internal/connector"
	"proxystore/internal/kvstore"
	"proxystore/internal/netsim"
)

// Type is the registry name of the redis connector.
const Type = "redis"

// Connector stores objects on a RESP server.
//
// Blob puts store the object under a single server key. Streamed puts
// (PutFrom) shard the object into chunk-size server keys "<id>:<i>" and
// record the shard count in the key's connector.ChunkCountAttr manifest, so
// neither side of the transfer ever holds more than one chunk in memory.
// Sharded reads pipeline up to getWindow chunk fetches so round trips
// overlap instead of paying server latency once per chunk.
type Connector struct {
	addr      string
	client    *kvstore.Client
	chunkSize int
	getWindow int

	// chunks holds idle *[]byte PutFrom buffers of chunkSize bytes, so a
	// put costs its payload, not a fresh chunk, in allocations.
	chunks sync.Pool

	// Net-model description, preserved in Config so reconstructed
	// connectors keep the same timing behaviour within one process.
	clientSite string
	serverSite string
}

// Option configures a Connector.
type Option func(*Connector)

// WithSites records the client and server sites; combined with SetNetwork's
// process-global model the client pays modeled WAN delays.
func WithSites(clientSite, serverSite string) Option {
	return func(c *Connector) {
		c.clientSite = clientSite
		c.serverSite = serverSite
	}
}

// sharedNet is the process-global network model used when connectors are
// reconstructed from configs (configs are string maps and cannot carry a
// live *netsim.Network).
var sharedNet *netsim.Network

// SetNetwork installs the process-global network model consulted by
// connectors that carry site labels.
func SetNetwork(n *netsim.Network) { sharedNet = n }

// WithChunkSize overrides the streamed-put shard size in bytes.
func WithChunkSize(n int) Option {
	return func(c *Connector) {
		if n > 0 {
			c.chunkSize = n
		}
	}
}

// DefaultGetWindow is the default bound on concurrent in-flight chunk
// fetches during sharded reads. It matches the client's connection pool, so
// the window fills the pool without queueing on it.
const DefaultGetWindow = 4

// WithGetWindow bounds concurrent chunk fetches during sharded reads;
// n == 1 restores sequential per-chunk round trips. n <= 0 is ignored,
// keeping the default (so configs that omit the parameter rebuild with
// DefaultGetWindow).
func WithGetWindow(n int) Option {
	return func(c *Connector) {
		if n > 0 {
			c.getWindow = n
		}
	}
}

// New returns a connector talking to the RESP server at addr.
func New(addr string, opts ...Option) *Connector {
	c := &Connector{addr: addr, chunkSize: connector.DefaultChunkSize, getWindow: DefaultGetWindow}
	for _, o := range opts {
		o(c)
	}
	c.chunks.New = func() any {
		buf := make([]byte, c.chunkSize)
		return &buf
	}
	var copts []kvstore.ClientOption
	if sharedNet != nil && c.clientSite != "" {
		copts = append(copts, kvstore.WithClientNetwork(sharedNet, c.clientSite, c.serverSite))
	}
	c.client = kvstore.NewClient(addr, copts...)
	return c
}

// Client exposes the underlying kvstore client (for diagnostics).
func (c *Connector) Client() *kvstore.Client { return c.client }

// Type implements connector.Connector.
func (c *Connector) Type() string { return Type }

// Config implements connector.Connector. The sites are listed only when
// set, since every proxy descriptor carries the config.
func (c *Connector) Config() connector.Config {
	params := map[string]string{
		"addr":       c.addr,
		"chunk_size": strconv.Itoa(c.chunkSize),
		"get_window": strconv.Itoa(c.getWindow),
	}
	if c.clientSite != "" || c.serverSite != "" {
		params["client_site"] = c.clientSite
		params["server_site"] = c.serverSite
	}
	return connector.Config{Type: Type, Params: params}
}

func chunkKey(id string, i int) string { return id + ":" + strconv.Itoa(i) }

// chunkKeys lists every server key holding a shard of key's object, or nil
// for blob-stored objects.
func chunkKeys(key connector.Key) []string {
	n := key.ChunkCount()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = chunkKey(key.ID, i)
	}
	return out
}

// Put implements connector.Connector.
func (c *Connector) Put(ctx context.Context, data []byte) (connector.Key, error) {
	key := connector.Key{ID: connector.NewID(), Type: Type, Size: int64(len(data))}
	if err := c.client.Set(ctx, key.ID, data); err != nil {
		return connector.Key{}, err
	}
	return key, nil
}

// PutFrom implements connector.StreamPutter: the stream is sharded into
// chunk-size server keys as it is read, so at most one chunk is buffered
// client-side. That chunk buffer comes from a per-connector pool and goes
// back once the last Set has returned (Client.Set does not retain its
// args), so the pool holds only idle buffers. The returned key carries the
// shard manifest in connector.ChunkCountAttr.
func (c *Connector) PutFrom(ctx context.Context, r io.Reader) (connector.Key, error) {
	id := connector.NewID()
	var total int64
	chunks := 0
	bufp := c.chunks.Get().(*[]byte)
	defer c.chunks.Put(bufp)
	buf := *bufp
	for {
		n, rerr := io.ReadFull(r, buf)
		// Always write chunk 0, even for empty objects, so Exists and Evict
		// have a server key to anchor on.
		if n > 0 || chunks == 0 {
			if err := c.client.Set(ctx, chunkKey(id, chunks), buf[:n]); err != nil {
				c.evictChunks(ctx, id, chunks)
				return connector.Key{}, fmt.Errorf("redisc: storing chunk %d: %w", chunks, err)
			}
			chunks++
			total += int64(n)
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			c.evictChunks(ctx, id, chunks)
			return connector.Key{}, fmt.Errorf("redisc: reading stream: %w", rerr)
		}
	}
	return connector.Key{
		ID: id, Type: Type, Size: total,
		Attrs: map[string]string{connector.ChunkCountAttr: strconv.Itoa(chunks)},
	}, nil
}

// evictChunks removes shards written by a failed PutFrom. The cleanup runs
// on a cancellation-detached context: when the failure was the caller's
// ctx being canceled, the Dels must still go through or the orphaned
// shards leak on the server forever.
func (c *Connector) evictChunks(ctx context.Context, id string, n int) {
	ctx = context.WithoutCancel(ctx)
	for i := 0; i < n; i++ {
		c.client.Del(ctx, chunkKey(id, i))
	}
}

// Get implements connector.Connector, reassembling sharded objects with
// pipelined chunk fetches.
func (c *Connector) Get(ctx context.Context, key connector.Key) ([]byte, error) {
	shards := chunkKeys(key)
	if shards == nil {
		data, ok, err := c.client.Get(ctx, key.ID)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, connector.ErrNotFound
		}
		return data, nil
	}
	out := make([]byte, 0, key.Size)
	err := c.forEachShard(ctx, shards, func(_ int, data []byte) error {
		out = append(out, data...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GetTo implements connector.StreamGetter: chunk fetches are pipelined up
// to the get window, but writes land in order, so client-resident memory
// stays O(window × chunk).
func (c *Connector) GetTo(ctx context.Context, key connector.Key, w io.Writer) error {
	shards := chunkKeys(key)
	if shards == nil {
		data, ok, err := c.client.Get(ctx, key.ID)
		if err != nil {
			return err
		}
		if !ok {
			return connector.ErrNotFound
		}
		_, err = w.Write(data)
		return err
	}
	return c.forEachShard(ctx, shards, func(_ int, data []byte) error {
		_, err := w.Write(data)
		return err
	})
}

// forEachShard fetches every shard key, keeping up to getWindow fetches in
// flight to overlap server round trips, and delivers results to fn in
// shard order. A missing shard fails with ErrNotFound; the first error
// cancels outstanding fetches.
func (c *Connector) forEachShard(ctx context.Context, shards []string, fn func(i int, data []byte) error) error {
	window := c.getWindow
	if window < 1 {
		window = 1
	}
	if window == 1 || len(shards) == 1 {
		for i, sk := range shards {
			data, ok, err := c.client.Get(ctx, sk)
			if err != nil {
				return err
			}
			if !ok {
				return connector.ErrNotFound
			}
			if err := fn(i, data); err != nil {
				return err
			}
		}
		return nil
	}

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		data []byte
		err  error
	}
	// Each shard gets a 1-buffered channel so fetchers never block on
	// delivery; the semaphore bounds in-flight fetches.
	results := make([]chan result, len(shards))
	for i := range results {
		results[i] = make(chan result, 1)
	}
	// The semaphore is acquired at launch and released only after the
	// shard's bytes are delivered to fn, so fetched-but-unconsumed chunks
	// count against the window too: resident memory is O(window × chunk).
	// Shards launch in order, so the next shard the consumer needs is
	// always among the in-flight window — no deadlock.
	sem := make(chan struct{}, window)
	go func() {
		for i, sk := range shards {
			select {
			case sem <- struct{}{}:
			case <-fctx.Done():
				return
			}
			go func(i int, sk string) {
				data, ok, err := c.client.Get(fctx, sk)
				if err == nil && !ok {
					err = connector.ErrNotFound
				}
				results[i] <- result{data: data, err: err}
			}(i, sk)
		}
	}()
	for i := range shards {
		select {
		case res := <-results[i]:
			if res.err != nil {
				return res.err
			}
			if err := fn(i, res.data); err != nil {
				return err
			}
			<-sem
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// PutBatch implements connector.BatchPutter: all objects land in a single
// MSET round trip.
func (c *Connector) PutBatch(ctx context.Context, blobs [][]byte) ([]connector.Key, error) {
	if len(blobs) == 0 {
		return nil, nil // MSET with zero pairs is a protocol error
	}
	pairs := make(map[string][]byte, len(blobs))
	keys := make([]connector.Key, len(blobs))
	for i, data := range blobs {
		keys[i] = connector.Key{ID: connector.NewID(), Type: Type, Size: int64(len(data))}
		pairs[keys[i].ID] = data
	}
	if err := c.client.MSet(ctx, pairs); err != nil {
		return nil, fmt.Errorf("redisc: batch put: %w", err)
	}
	return keys, nil
}

// GetBatch implements connector.BatchGetter: blob-stored objects are
// fetched in a single MGET round trip; sharded objects fall back to the
// streaming reassembly path.
func (c *Connector) GetBatch(ctx context.Context, keys []connector.Key) ([][]byte, error) {
	out := make([][]byte, len(keys))
	ids := make([]string, 0, len(keys))
	idx := make([]int, 0, len(keys))
	for i, k := range keys {
		if k.ChunkCount() > 0 {
			data, err := c.Get(ctx, k)
			if err != nil {
				return nil, err
			}
			out[i] = data
			continue
		}
		ids = append(ids, k.ID)
		idx = append(idx, i)
	}
	if len(ids) > 0 {
		vals, err := c.client.MGet(ctx, ids...)
		if err != nil {
			return nil, fmt.Errorf("redisc: batch get: %w", err)
		}
		for j, v := range vals {
			if v == nil {
				return nil, fmt.Errorf("redisc: batch get %s: %w", ids[j], connector.ErrNotFound)
			}
			out[idx[j]] = v
		}
	}
	return out, nil
}

// Exists implements connector.Connector.
func (c *Connector) Exists(ctx context.Context, key connector.Key) (bool, error) {
	anchor := key.ID
	if key.ChunkCount() > 0 {
		anchor = chunkKey(key.ID, 0)
	}
	n, err := c.client.Exists(ctx, anchor)
	if err != nil {
		return false, err
	}
	return n > 0, nil
}

// Evict implements connector.Connector, removing every shard.
func (c *Connector) Evict(ctx context.Context, key connector.Key) error {
	targets := chunkKeys(key)
	if targets == nil {
		targets = []string{key.ID}
	}
	_, err := c.client.Del(ctx, targets...)
	return err
}

// Close implements connector.Connector. Server-side objects persist.
func (c *Connector) Close() error { return c.client.Close() }

func init() {
	connector.Register(Type, func(cfg connector.Config) (connector.Connector, error) {
		chunk, _ := strconv.Atoi(cfg.Param("chunk_size", "0"))
		window, _ := strconv.Atoi(cfg.Param("get_window", "0"))
		return New(cfg.Param("addr", "127.0.0.1:6379"),
			WithSites(cfg.Param("client_site", ""), cfg.Param("server_site", "")),
			WithChunkSize(chunk), WithGetWindow(window)), nil
	})
}
