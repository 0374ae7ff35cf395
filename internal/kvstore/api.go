package kvstore

import (
	"context"
	"strconv"
	"time"
)

// KV is the client surface the higher planes (pstream's KVBroker, faas,
// colmena) program against: one command at a time (Do) or in batches
// (Pipeline), the two blocking waits, and the client's counters. *Client,
// the cluster package's FailoverClient and TapKV satisfy it, so a broker
// moves from one box to a primary with replicas by swapping the
// constructor, not the call sites. The typed calls (Get, Set, CAS, ...)
// are functions over KV, written once.
type KV interface {
	// Do sends one command (see the command table) and returns its reply.
	Do(ctx context.Context, name string, args ...[]byte) PipeReply
	WaitGet(ctx context.Context, key string, timeout time.Duration) (val []byte, ok bool, err error)
	WaitPrefix(ctx context.Context, prefix string, after uint64, timeout time.Duration) (uint64, error)
	Pipeline() *Pipeline
	Dials() uint64
	RoundTrips() uint64
	Close() error
}

var _ KV = (*Client)(nil)

// Set stores val under key. val is not retained: it has been written out
// by the time Set returns, so the caller may reuse or mutate it at once.
func Set(ctx context.Context, kv KV, key string, val []byte) error {
	return kv.Do(ctx, "SET", []byte(key), val).Err()
}

// PSetEx stores val under key with a deadline ttl from now on the
// server's clock (whole milliseconds, at least one): once it passes, the
// server deletes the key as a DEL would, unless PExpire moved it first.
func PSetEx(ctx context.Context, kv KV, key string, ttl time.Duration, val []byte) error {
	return kv.Do(ctx, "PSETEX", []byte(key), ttlArg(ttl), val).Err()
}

// PExpire moves key's deadline to ttl from now on the server's clock. It
// reports false, and changes nothing, when key is absent or already past
// its deadline.
func PExpire(ctx context.Context, kv KV, key string, ttl time.Duration) (bool, error) {
	n, err := kv.Do(ctx, "PEXPIRE", []byte(key), ttlArg(ttl)).Int()
	return n == 1, err
}

func ttlArg(ttl time.Duration) []byte {
	return []byte(strconv.FormatInt(max(ttl.Milliseconds(), 1), 10))
}

// Get fetches key's value; ok is false when the key does not exist.
func Get(ctx context.Context, kv KV, key string) (val []byte, ok bool, err error) {
	return kv.Do(ctx, "GET", []byte(key)).Bytes()
}

// Del removes keys, returning how many existed.
func Del(ctx context.Context, kv KV, keys ...string) (int64, error) {
	return kv.Do(ctx, "DEL", keysArgs(keys)...).Int()
}

// Exists reports how many of the given keys exist.
func Exists(ctx context.Context, kv KV, keys ...string) (int64, error) {
	return kv.Do(ctx, "EXISTS", keysArgs(keys)...).Int()
}

// MGet fetches many keys; missing keys yield nil entries.
func MGet(ctx context.Context, kv KV, keys ...string) ([][]byte, error) {
	r := kv.Do(ctx, "MGET", keysArgs(keys)...)
	if r.err != nil {
		return nil, r.err
	}
	out := make([][]byte, len(r.v.arr))
	for i, el := range r.v.arr {
		if !el.null {
			out[i] = el.bulk
		}
	}
	return out, nil
}

// MSet stores many key/value pairs atomically.
func MSet(ctx context.Context, kv KV, pairs map[string][]byte) error {
	args := make([][]byte, 0, len(pairs)*2)
	for k, v := range pairs {
		args = append(args, []byte(k), v)
	}
	return kv.Do(ctx, "MSET", args...).Err()
}

// Incr atomically increments the integer at key (missing keys start at 0)
// and returns the new value.
func Incr(ctx context.Context, kv KV, key string) (int64, error) {
	return kv.Do(ctx, "INCR", []byte(key)).Int()
}

// CAS atomically swaps key's value from old to new, reporting whether the
// swap happened. A nil/empty old means the key must not exist (SETNX).
func CAS(ctx context.Context, kv KV, key string, old, new []byte) (bool, error) {
	n, err := kv.Do(ctx, "CAS", []byte(key), old, new).Int()
	return n == 1, err
}

// DelRange deletes the keys prefix+i for start <= i < end (decimal i),
// returning how many existed.
func DelRange(ctx context.Context, kv KV, prefix string, start, end uint64) (int64, error) {
	return kv.Do(ctx, "DELRANGE", []byte(prefix),
		[]byte(strconv.FormatUint(start, 10)), []byte(strconv.FormatUint(end, 10))).Int()
}

// Keys lists the keys that start with prefix, sorted. The server walks its
// whole keyspace for it: keep it off per-item paths.
func Keys(ctx context.Context, kv KV, prefix string) ([]string, error) {
	elems, err := kv.Do(ctx, "KEYS", []byte(prefix)).Array()
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(elems))
	for i, el := range elems {
		keys[i] = string(el.v.bulk)
	}
	return keys, nil
}

func keysArgs(keys []string) [][]byte {
	args := make([][]byte, len(keys))
	for i, k := range keys {
		args[i] = []byte(k)
	}
	return args
}
