// Package cluster routes kvstore commands across a sharded, replicated
// tier of kvstore servers behind the same client surface a single server
// presents (kvstore.KV).
//
// # Topology and spec
//
// A cluster is described by one address string, so it fits anywhere a
// single server address already travels (flags, broker constructors):
//
//	shard , shard , ...          shards separated by commas
//	addr | addr | ...            replicas within a shard by pipes
//
// e.g. "10.0.0.1:6379|10.0.0.2:6379,10.0.1.1:6379" is two shards, the
// first with one replica. The first address in a shard is its initial
// primary; the others are replicas started with -replica-of (they serve
// reads and are promoted on failover).
//
// # Placement
//
// Keys are placed by topic prefix: the placement key is everything up to
// the second ':' (so "ps:orders:e:7", "ps:orders:head", and a WAITPREFIX
// on "ps:orders:e:" all share the placement key "ps:orders"). Each shard
// projects virtual points onto an FNV-1a ring; a key maps to the first
// point clockwise from its hash. Placement is a pure function of the spec
// string, so every process with the same spec agrees — and it never moves
// on failover, because the ring hashes the shard's replica-set spec, not
// whoever is primary today.
//
// Everything a broker derives from one topic therefore lands on one
// shard: single-key commands, DELRANGE sweeps, WAITPREFIX parks, and
// pipelined ack batches are all shard-local, which is what makes
// independent topics scale linearly with shards. Multi-key commands are
// grouped by shard and fanned out; a pipeline whose keys span shards is
// an error.
//
// # Failover
//
// A transport error (the server is unreachable — not an error reply, see
// kvstore.ReplyError) advances the shard to its next replica, sends it a
// best-effort PROMOTE, and retries. A write that reaches a still-readonly
// replica ("ERR readonly replica") promotes it in place and retries, so
// the client-driven and stream-break-driven promotion paths can race
// without stranding a command.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"proxystore/internal/kvstore"
)

// vpoints is how many virtual ring points each shard projects; enough to
// spread placement keys evenly across small shard counts.
const vpoints = 64

// promoteTimeout bounds the best-effort PROMOTE sent during failover.
const promoteTimeout = 2 * time.Second

// IsSpec reports whether addr names a cluster (shards and/or replicas)
// rather than a single server.
func IsSpec(addr string) bool {
	return strings.ContainsAny(addr, ",|")
}

// ParseSpec splits a cluster spec into its shards' replica address lists.
func ParseSpec(spec string) ([][]string, error) {
	var shards [][]string
	for _, shardSpec := range strings.Split(spec, ",") {
		var addrs []string
		for _, addr := range strings.Split(shardSpec, "|") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return nil, fmt.Errorf("cluster: empty address in spec %q", spec)
			}
			addrs = append(addrs, addr)
		}
		shards = append(shards, addrs)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: empty spec")
	}
	return shards, nil
}

// shard is one replica set: clients for every member, and which member
// commands currently go to.
type shard struct {
	spec    string // the shard's piece of the spec, for ring hashing
	clients []*kvstore.Client

	mu  sync.Mutex
	cur int
}

func (s *shard) client() *kvstore.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clients[s.cur]
}

// advanceFrom moves to the next replica if failed is still current (a
// concurrent failover may already have moved on), returning the new
// current client.
func (s *shard) advanceFrom(failed *kvstore.Client) *kvstore.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients[s.cur] == failed {
		s.cur = (s.cur + 1) % len(s.clients)
	}
	return s.clients[s.cur]
}

type ringPoint struct {
	hash  uint64
	shard int
}

// ShardedClient implements kvstore.KV across a sharded, replicated tier.
type ShardedClient struct {
	shards []*shard
	ring   []ringPoint
}

var _ kvstore.KV = (*ShardedClient)(nil)

// New builds a sharded client from a spec (see the package doc), passing
// opts through to every member's kvstore.Client.
func New(spec string, opts ...kvstore.ClientOption) (*ShardedClient, error) {
	groups, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	sc := &ShardedClient{}
	for i, addrs := range groups {
		sh := &shard{spec: strings.Join(addrs, "|")}
		for _, addr := range addrs {
			sh.clients = append(sh.clients, kvstore.NewClient(addr, opts...))
		}
		sc.shards = append(sc.shards, sh)
		for v := 0; v < vpoints; v++ {
			sc.ring = append(sc.ring, ringPoint{
				hash:  fnvHash(sh.spec + "#" + strconv.Itoa(v)),
				shard: i,
			})
		}
	}
	sort.Slice(sc.ring, func(a, b int) bool { return sc.ring[a].hash < sc.ring[b].hash })
	return sc, nil
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV of similar short strings clusters in the high bits; a 64-bit
	// finalizer (murmur3 fmix64) scatters the points across the ring.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// placementKey reduces a key to its topic-prefix placement unit:
// everything up to the second ':' (the whole key when it has fewer).
func placementKey(key string) string {
	if i := strings.IndexByte(key, ':'); i >= 0 {
		if j := strings.IndexByte(key[i+1:], ':'); j >= 0 {
			return key[:i+1+j]
		}
	}
	return key
}

// shardFor maps a key to its shard.
func (sc *ShardedClient) shardFor(key string) *shard {
	if len(sc.shards) == 1 {
		return sc.shards[0]
	}
	h := fnvHash(placementKey(key))
	i := sort.Search(len(sc.ring), func(i int) bool { return sc.ring[i].hash >= h })
	if i == len(sc.ring) {
		i = 0
	}
	return sc.shards[sc.ring[i].shard]
}

// promote asks c (best-effort, bounded) to start accepting writes.
func promote(c *kvstore.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), promoteTimeout)
	defer cancel()
	c.Promote(ctx) // ignore the error: the retry tells us if it worked
}

// doShard runs fn against the shard's current client, failing over
// through its replicas on transport errors. Error replies are returned
// as-is — the server answered; asking another one would be wrong — with
// one exception: a write refused by a not-yet-promoted replica promotes
// it in place and retries.
func doShard(ctx context.Context, sh *shard, fn func(*kvstore.Client) error) error {
	var err error
	for attempt := 0; attempt <= len(sh.clients); attempt++ {
		c := sh.client()
		err = fn(c)
		if err == nil || ctx.Err() != nil {
			return err
		}
		if kvstore.IsReplyError(err) {
			if strings.Contains(err.Error(), "readonly replica") {
				promote(c)
				continue
			}
			return err
		}
		if next := sh.advanceFrom(c); next != c {
			promote(next)
		}
	}
	return err
}

func (sc *ShardedClient) doKey(ctx context.Context, key string, fn func(*kvstore.Client) error) error {
	return doShard(ctx, sc.shardFor(key), fn)
}

// Ping checks every shard's current member.
func (sc *ShardedClient) Ping(ctx context.Context) error {
	for _, sh := range sc.shards {
		if err := doShard(ctx, sh, func(c *kvstore.Client) error { return c.Ping(ctx) }); err != nil {
			return err
		}
	}
	return nil
}

func (sc *ShardedClient) Set(ctx context.Context, key string, val []byte) error {
	return sc.doKey(ctx, key, func(c *kvstore.Client) error { return c.Set(ctx, key, val) })
}

func (sc *ShardedClient) Get(ctx context.Context, key string) (val []byte, ok bool, err error) {
	err = sc.doKey(ctx, key, func(c *kvstore.Client) error {
		val, ok, err = c.Get(ctx, key)
		return err
	})
	return val, ok, err
}

func (sc *ShardedClient) Incr(ctx context.Context, key string) (n int64, err error) {
	err = sc.doKey(ctx, key, func(c *kvstore.Client) error {
		n, err = c.Incr(ctx, key)
		return err
	})
	return n, err
}

func (sc *ShardedClient) CAS(ctx context.Context, key string, old, new []byte) (swapped bool, err error) {
	err = sc.doKey(ctx, key, func(c *kvstore.Client) error {
		swapped, err = c.CAS(ctx, key, old, new)
		return err
	})
	return swapped, err
}

func (sc *ShardedClient) DelRange(ctx context.Context, prefix string, start, end uint64) (n int64, err error) {
	err = sc.doKey(ctx, prefix, func(c *kvstore.Client) error {
		n, err = c.DelRange(ctx, prefix, start, end)
		return err
	})
	return n, err
}

func (sc *ShardedClient) WaitGet(ctx context.Context, key string, timeout time.Duration) (val []byte, ok bool, err error) {
	err = sc.doKey(ctx, key, func(c *kvstore.Client) error {
		val, ok, err = c.WaitGet(ctx, key, timeout)
		return err
	})
	return val, ok, err
}

func (sc *ShardedClient) WaitPrefix(ctx context.Context, prefix string, after uint64, timeout time.Duration) (seq uint64, err error) {
	err = sc.doKey(ctx, prefix, func(c *kvstore.Client) error {
		seq, err = c.WaitPrefix(ctx, prefix, after, timeout)
		return err
	})
	return seq, err
}

// Del deletes keys, grouped and fanned out by shard; returns the total
// number that existed.
func (sc *ShardedClient) Del(ctx context.Context, keys ...string) (int64, error) {
	var total int64
	for sh, group := range sc.groupKeys(keys) {
		var n int64
		err := doShard(ctx, sh, func(c *kvstore.Client) error {
			var err error
			n, err = c.Del(ctx, group...)
			return err
		})
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// MGet fetches keys grouped by shard, reassembling replies in argument
// order (nil for missing keys, matching Client.MGet).
func (sc *ShardedClient) MGet(ctx context.Context, keys ...string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	byShard := make(map[*shard][]int)
	for i, key := range keys {
		sh := sc.shardFor(key)
		byShard[sh] = append(byShard[sh], i)
	}
	for sh, idxs := range byShard {
		group := make([]string, len(idxs))
		for j, i := range idxs {
			group[j] = keys[i]
		}
		var vals [][]byte
		err := doShard(ctx, sh, func(c *kvstore.Client) error {
			var err error
			vals, err = c.MGet(ctx, group...)
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(vals) != len(idxs) {
			return nil, fmt.Errorf("cluster: MGET returned %d values for %d keys", len(vals), len(idxs))
		}
		for j, i := range idxs {
			out[i] = vals[j]
		}
	}
	return out, nil
}

// MSet writes pairs grouped by shard.
func (sc *ShardedClient) MSet(ctx context.Context, pairs map[string][]byte) error {
	byShard := make(map[*shard]map[string][]byte)
	for key, val := range pairs {
		sh := sc.shardFor(key)
		group := byShard[sh]
		if group == nil {
			group = make(map[string][]byte)
			byShard[sh] = group
		}
		group[key] = val
	}
	for sh, group := range byShard {
		if err := doShard(ctx, sh, func(c *kvstore.Client) error { return c.MSet(ctx, group) }); err != nil {
			return err
		}
	}
	return nil
}

func (sc *ShardedClient) groupKeys(keys []string) map[*shard][]string {
	groups := make(map[*shard][]string)
	for _, key := range keys {
		sh := sc.shardFor(key)
		groups[sh] = append(groups[sh], key)
	}
	return groups
}

// Pipeline returns a routed pipeline: the target shard is resolved from
// the queued commands' keys at Exec time (they must all place on one
// shard — brokers batch per topic, so they do), and a transport failure
// fails the shard over so the caller's retry lands on the promoted
// replica.
func (sc *ShardedClient) Pipeline() *kvstore.Pipeline {
	var (
		mu     sync.Mutex
		target *shard
		used   *kvstore.Client
	)
	pick := func(keys [][]byte) (*kvstore.Client, error) {
		if len(keys) == 0 {
			return nil, fmt.Errorf("cluster: pipeline has no keyed commands to route by")
		}
		sh := sc.shardFor(string(keys[0]))
		for _, key := range keys[1:] {
			if sc.shardFor(string(key)) != sh {
				return nil, fmt.Errorf("cluster: pipeline spans shards (key %q places off shard of %q)", key, keys[0])
			}
		}
		mu.Lock()
		defer mu.Unlock()
		target = sh
		used = sh.client()
		return used, nil
	}
	onErr := func(error) {
		mu.Lock()
		sh, c := target, used
		mu.Unlock()
		if sh == nil {
			return
		}
		if next := sh.advanceFrom(c); next != c {
			promote(next)
		}
	}
	return kvstore.NewRoutedPipeline(pick, onErr)
}

// Dials sums connection dials across every member client.
func (sc *ShardedClient) Dials() (n uint64) {
	for _, sh := range sc.shards {
		for _, c := range sh.clients {
			n += c.Dials()
		}
	}
	return n
}

// RoundTrips sums request round trips across every member client.
func (sc *ShardedClient) RoundTrips() (n uint64) {
	for _, sh := range sc.shards {
		for _, c := range sh.clients {
			n += c.RoundTrips()
		}
	}
	return n
}

// Close closes every member client.
func (sc *ShardedClient) Close() error {
	var errs []error
	for _, sh := range sc.shards {
		for _, c := range sh.clients {
			if err := c.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
