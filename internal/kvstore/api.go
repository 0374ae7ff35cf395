package kvstore

import (
	"context"
	"time"
)

// KV is the client surface the higher planes (pstream's KVBroker, faas,
// colmena) program against: everything a single-server *Client offers
// that also makes sense against a sharded, replicated tier. Both *Client
// and the cluster package's ShardedClient satisfy it, so a broker moves
// from one box to N primaries with replicas by swapping the constructor,
// not the call sites.
//
// The sharded implementation routes each command by its key's topic
// prefix (see the cluster package); multi-key operations and pipelines
// whose keys span shards are errors there, but every key a broker derives
// from one topic shares that topic's prefix, so shard-local is the
// natural grain.
type KV interface {
	Ping(ctx context.Context) error
	Set(ctx context.Context, key string, val []byte) error
	Get(ctx context.Context, key string) (val []byte, ok bool, err error)
	Del(ctx context.Context, keys ...string) (int64, error)
	MGet(ctx context.Context, keys ...string) ([][]byte, error)
	MSet(ctx context.Context, pairs map[string][]byte) error
	Incr(ctx context.Context, key string) (int64, error)
	CAS(ctx context.Context, key string, old, new []byte) (bool, error)
	DelRange(ctx context.Context, prefix string, start, end uint64) (int64, error)
	WaitGet(ctx context.Context, key string, timeout time.Duration) (val []byte, ok bool, err error)
	WaitPrefix(ctx context.Context, prefix string, after uint64, timeout time.Duration) (uint64, error)
	Pipeline() *Pipeline
	Dials() uint64
	RoundTrips() uint64
	Close() error
}

var _ KV = (*Client)(nil)
