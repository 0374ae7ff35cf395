// Streaming and batching extensions to the Connector protocol.
//
// The base Connector moves whole byte strings, which makes peak memory and
// latency O(object) at every layer. The interfaces here let connectors move
// data in O(chunk) memory instead: StreamPutter/StreamGetter stream object
// bytes through io.Reader/io.Writer, and BatchPutter/BatchGetter move many
// objects per backend round trip. Connectors implement whichever subset is
// natural for their backend; callers program against the Streamer union via
// Stream, which wraps blob-only connectors in a correct (buffering)
// StreamAdapter fallback.
package connector

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
)

// DefaultChunkSize is the transfer granularity of the streamed data plane:
// native streaming connectors buffer at most this many bytes per object in
// flight, so peak connector-side memory is O(chunk), not O(object).
const DefaultChunkSize = 256 << 10

// ChunkCountAttr is the key attribute carrying the chunk manifest for
// connectors that shard streamed objects across several backend keys
// (e.g. the redis connector). Its value is the decimal chunk count.
const ChunkCountAttr = "chunks"

// ChunkCount returns the number of backend chunks the key's object is
// sharded into, or 0 when the object is stored whole. Size-aware policy
// routing can use this instead of materializing the object.
func (k Key) ChunkCount() int {
	n, err := strconv.Atoi(k.Attr(ChunkCountAttr))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// StreamPutter is implemented by connectors that can ingest an object from
// a reader without materializing it.
type StreamPutter interface {
	// PutFrom stores the stream's bytes and returns the object's key,
	// reading r to EOF. Peak memory is O(chunk) for native implementations.
	PutFrom(ctx context.Context, r io.Reader) (Key, error)
}

// TaggedPutter is implemented by connectors whose placement can be
// constrained with tags — the multi connector routes a tagged put to the
// highest-priority child whose policy carries every required tag. Plain
// single-backend connectors do not implement it; callers that require tag
// placement must treat its absence as an error rather than silently
// dropping the constraint.
type TaggedPutter interface {
	// PutTagged stores data under the placement constraints in tags (nil
	// means unconstrained, equivalent to Put).
	PutTagged(ctx context.Context, data []byte, tags []string) (Key, error)
}

// TaggedStreamPutter is the streaming pair of TaggedPutter: ingest from a
// reader under tag placement constraints without materializing the object.
type TaggedStreamPutter interface {
	PutFromTagged(ctx context.Context, r io.Reader, tags []string) (Key, error)
}

// StreamGetter is implemented by connectors that can emit an object into a
// writer without materializing it.
type StreamGetter interface {
	// GetTo writes the object's bytes to w. It returns ErrNotFound when the
	// key has no object; bytes may have been partially written only when a
	// mid-transfer error occurs.
	GetTo(ctx context.Context, key Key, w io.Writer) error
}

// BatchGetter is the read-side pair of BatchPutter: connectors that can
// fetch several objects in one backend operation implement it (e.g. one
// MGET round trip to redis). A missing key fails the batch with ErrNotFound.
type BatchGetter interface {
	GetBatch(ctx context.Context, keys []Key) ([][]byte, error)
}

// Streamer is the full streamed/batched data-plane surface. Callers obtain
// one with Stream and program against this single API regardless of which
// subset the underlying connector implements natively.
type Streamer interface {
	Connector
	StreamPutter
	StreamGetter
	BatchPutter
	BatchGetter
}

// Stream returns c as a Streamer. Connectors that already implement the
// full surface are returned as-is; anything else is wrapped in a
// StreamAdapter that delegates to native interfaces where present and
// falls back to correct buffering otherwise.
func Stream(c Connector) Streamer {
	if s, ok := c.(Streamer); ok {
		return s
	}
	if a, ok := c.(*StreamAdapter); ok {
		return a
	}
	return &StreamAdapter{conn: c}
}

// PutFrom streams r into c, using the native streaming path when available.
func PutFrom(ctx context.Context, c Connector, r io.Reader) (Key, error) {
	return Stream(c).PutFrom(ctx, r)
}

// GetTo streams key's object from c into w, using the native streaming path
// when available.
func GetTo(ctx context.Context, c Connector, key Key, w io.Writer) error {
	return Stream(c).GetTo(ctx, key, w)
}

// StreamAdapter lifts any Connector to the Streamer surface. Operations the
// underlying connector supports natively are delegated; the rest fall back
// to buffering through the blob API, which is correct but O(object).
type StreamAdapter struct {
	conn Connector
}

// Type implements Connector.
func (a *StreamAdapter) Type() string { return a.conn.Type() }

// Config implements Connector. The config describes the underlying
// connector; rebuilt instances are re-adapted at the call site via Stream.
func (a *StreamAdapter) Config() Config { return a.conn.Config() }

// Put implements Connector.
func (a *StreamAdapter) Put(ctx context.Context, data []byte) (Key, error) {
	return a.conn.Put(ctx, data)
}

// Get implements Connector.
func (a *StreamAdapter) Get(ctx context.Context, key Key) ([]byte, error) {
	return a.conn.Get(ctx, key)
}

// Exists implements Connector.
func (a *StreamAdapter) Exists(ctx context.Context, key Key) (bool, error) {
	return a.conn.Exists(ctx, key)
}

// Evict implements Connector.
func (a *StreamAdapter) Evict(ctx context.Context, key Key) error {
	return a.conn.Evict(ctx, key)
}

// Close implements Connector.
func (a *StreamAdapter) Close() error { return a.conn.Close() }

// PutFrom implements StreamPutter, buffering the whole stream when the
// underlying connector cannot ingest readers natively.
func (a *StreamAdapter) PutFrom(ctx context.Context, r io.Reader) (Key, error) {
	if sp, ok := a.conn.(StreamPutter); ok {
		return sp.PutFrom(ctx, r)
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return Key{}, fmt.Errorf("%s: buffering stream put: %w", a.conn.Type(), err)
	}
	return a.conn.Put(ctx, buf.Bytes())
}

// GetTo implements StreamGetter, buffering the whole object when the
// underlying connector cannot emit to writers natively.
func (a *StreamAdapter) GetTo(ctx context.Context, key Key, w io.Writer) error {
	if sg, ok := a.conn.(StreamGetter); ok {
		return sg.GetTo(ctx, key, w)
	}
	data, err := a.conn.Get(ctx, key)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("%s: writing buffered object: %w", a.conn.Type(), err)
	}
	return nil
}

// PutBatch implements BatchPutter, falling back to one Put per object.
func (a *StreamAdapter) PutBatch(ctx context.Context, blobs [][]byte) ([]Key, error) {
	if bp, ok := a.conn.(BatchPutter); ok {
		return bp.PutBatch(ctx, blobs)
	}
	keys := make([]Key, len(blobs))
	for i, b := range blobs {
		k, err := a.conn.Put(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("%s: batch put item %d: %w", a.conn.Type(), i, err)
		}
		keys[i] = k
	}
	return keys, nil
}

// GetBatch implements BatchGetter, falling back to one Get per key.
func (a *StreamAdapter) GetBatch(ctx context.Context, keys []Key) ([][]byte, error) {
	if bg, ok := a.conn.(BatchGetter); ok {
		return bg.GetBatch(ctx, keys)
	}
	out := make([][]byte, len(keys))
	for i, k := range keys {
		data, err := a.conn.Get(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("%s: batch get item %d (%s): %w", a.conn.Type(), i, k, err)
		}
		out[i] = data
	}
	return out, nil
}
