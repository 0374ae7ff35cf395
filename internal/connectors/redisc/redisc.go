// Package redisc provides the RedisConnector: mediated communication
// through a (mini) Redis server (paper §4.1.2). The reference
// implementation is 31 lines of Python; this one is comparably thin over
// the kvstore client, demonstrating the ease of extending the proxy model
// to new mediated channels.
//
// A streamed object is a run of chunk keys moved by one pipelined kv
// transfer in each direction: a put is one SET pipeline fed from the
// reader through a pooled chunk buffer, a read is one GET pipeline whose
// values are copied from the connection straight into the writer, and an
// eviction is one multi-key DEL. Each transfer holds one pooled kv
// connection while it runs, so a stalled reader or writer stalls that
// connection. The kv client pools 4 connections: 4 stalled transfers hold
// them all, and every other operation on the connector waits until one
// moves. A caller that opens more streams than that before reading any
// (store.GetReader is pipe-backed), or copies objects between two stores
// on the same connector 4 at a time, can wait forever.
package redisc

import (
	"bytes"
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
// record the shard count in the key's connector.ChunkCountAttr manifest.
// The client never holds more than one chunk of a streamed put, and a
// streamed read (GetTo) holds none: every shard of an object is written or
// fetched in one pipelined round trip (one per 128 shards), not one round
// trip per shard.
type Connector struct {
	addr      string
	client    *kvstore.Client
	chunkSize int

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

// New returns a connector talking to the RESP server at addr.
func New(addr string, opts ...Option) *Connector {
	c := &Connector{addr: addr, chunkSize: connector.DefaultChunkSize}
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
	}
	if c.clientSite != "" || c.serverSite != "" {
		params["client_site"] = c.clientSite
		params["server_site"] = c.serverSite
	}
	return connector.Config{Type: Type, Params: params}
}

func chunkKey(id string, i int) string { return id + ":" + strconv.Itoa(i) }

// chunkKeys lists the server keys of the first n shards of object id.
func chunkKeys(id string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = chunkKey(id, i)
	}
	return out
}

// Put implements connector.Connector.
func (c *Connector) Put(ctx context.Context, data []byte) (connector.Key, error) {
	key := connector.Key{ID: connector.NewID(), Type: Type, Size: int64(len(data))}
	if err := kvstore.Set(ctx, c.client, key.ID, data); err != nil {
		return connector.Key{}, err
	}
	return key, nil
}

// PutFrom implements connector.StreamPutter: the stream is sharded into
// chunk-size server keys as it is read, in one pipelined SET transfer, so
// at most one chunk is buffered client-side. That chunk buffer comes from
// a per-connector pool and goes back once the transfer has returned
// (SetChunks does not retain it), so the pool holds only idle buffers. The
// returned key carries the shard manifest in connector.ChunkCountAttr. A
// failed put deletes whatever shards it wrote.
func (c *Connector) PutFrom(ctx context.Context, r io.Reader) (connector.Key, error) {
	id := connector.NewID()
	bufp := c.chunks.Get().(*[]byte)
	defer c.chunks.Put(bufp)
	chunks, total, err := c.client.SetChunks(ctx, r, *bufp, func(i int) string { return chunkKey(id, i) })
	if err != nil {
		c.evictChunks(ctx, id, chunks)
		return connector.Key{}, fmt.Errorf("redisc: streamed put: %w", err)
	}
	return connector.Key{
		ID: id, Type: Type, Size: total,
		Attrs: map[string]string{connector.ChunkCountAttr: strconv.Itoa(chunks)},
	}, nil
}

// evictChunks removes the n shards a failed PutFrom wrote, in one DEL. It
// is best effort: the put's own error is what the caller sees. The cleanup
// runs on a cancellation-detached context: when the failure was the
// caller's ctx being canceled, the DEL must still go through or the
// orphaned shards leak on the server forever.
func (c *Connector) evictChunks(ctx context.Context, id string, n int) {
	if n > 0 {
		_, _ = kvstore.Del(context.WithoutCancel(ctx), c.client, chunkKeys(id, n)...)
	}
}

// Get implements connector.Connector. A sharded object is streamed into
// one buffer of the object's size.
func (c *Connector) Get(ctx context.Context, key connector.Key) ([]byte, error) {
	if key.ChunkCount() == 0 {
		data, ok, err := kvstore.Get(ctx, c.client, key.ID)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, connector.ErrNotFound
		}
		return data, nil
	}
	out := bytes.NewBuffer(make([]byte, 0, key.Size))
	if err := c.GetTo(ctx, key, out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// GetTo implements connector.StreamGetter: every shard is fetched in one
// pipelined GET transfer whose values are copied, in order, from the kv
// connection straight into w, so the client holds no shard in memory. A
// missing shard fails with ErrNotFound before any later shard reaches w.
// The transfer holds one pooled kv connection until w has taken the last
// byte, so a stalled w stalls that connection (see the package doc for
// what that does once the pool is held), and a canceled ctx does not end
// a transfer blocked in w until w fails.
func (c *Connector) GetTo(ctx context.Context, key connector.Key, w io.Writer) error {
	n := key.ChunkCount()
	if n == 0 {
		data, ok, err := kvstore.Get(ctx, c.client, key.ID)
		if err != nil {
			return err
		}
		if !ok {
			return connector.ErrNotFound
		}
		_, err = w.Write(data)
		return err
	}
	found, err := c.client.GetTo(ctx, chunkKeys(key.ID, n), w)
	if err != nil {
		return err
	}
	if found < n {
		return connector.ErrNotFound
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
	if err := kvstore.MSet(ctx, c.client, pairs); err != nil {
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
		vals, err := kvstore.MGet(ctx, c.client, ids...)
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
	n, err := kvstore.Exists(ctx, c.client, anchor)
	if err != nil {
		return false, err
	}
	return n > 0, nil
}

// Evict implements connector.Connector, removing every shard in one DEL.
func (c *Connector) Evict(ctx context.Context, key connector.Key) error {
	targets := []string{key.ID}
	if n := key.ChunkCount(); n > 0 {
		targets = chunkKeys(key.ID, n)
	}
	_, err := kvstore.Del(ctx, c.client, targets...)
	return err
}

// Close implements connector.Connector. Server-side objects persist.
func (c *Connector) Close() error { return c.client.Close() }

func init() {
	connector.Register(Type, func(cfg connector.Config) (connector.Connector, error) {
		chunk, _ := strconv.Atoi(cfg.Param("chunk_size", "0"))
		return New(cfg.Param("addr", "127.0.0.1:6379"),
			WithSites(cfg.Param("client_site", ""), cfg.Param("server_site", "")),
			WithChunkSize(chunk)), nil
	})
}
