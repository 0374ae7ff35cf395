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

// shardOf returns the shard every key places on.
func (sc *ShardedClient) shardOf(keys [][]byte) (*shard, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("cluster: no keyed commands to route by")
	}
	sh := sc.shardFor(string(keys[0]))
	for _, key := range keys[1:] {
		if sc.shardFor(string(key)) != sh {
			return nil, fmt.Errorf("cluster: spans shards (key %q places off shard of %q)", key, keys[0])
		}
	}
	return sh, nil
}

// promote asks c (best-effort, bounded) to start accepting writes.
func promote(c *kvstore.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), promoteTimeout)
	defer cancel()
	c.Do(ctx, "PROMOTE") // ignore the error: the retry tells us if it worked
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

// send runs one command on the shard through doShard.
func send(ctx context.Context, sh *shard, name string, args [][]byte) (r kvstore.PipeReply) {
	doShard(ctx, sh, func(c *kvstore.Client) error {
		r = c.Do(ctx, name, args...)
		return r.Err()
	})
	return r
}

// Do routes one command by the keys and key prefixes its command table
// row names. Keys on one shard send it there whole. A command made of
// independent key groups (DEL, EXISTS, MGET, MSET) whose keys lie on
// several shards is split by shard, and the replies merge: integers sum
// and arrays reassemble in argument order. Any other command spanning
// shards is refused. A command with no keys goes to every shard.
func (sc *ShardedClient) Do(ctx context.Context, name string, args ...[]byte) kvstore.PipeReply {
	cmd, ok := kvstore.LookupCommand(name)
	if !ok || cmd.CheckArgs(args) != nil {
		// Let a server give the reason.
		return send(ctx, sc.shards[0], name, args)
	}
	keys, prefixes := cmd.Keys(args)
	order, at := sc.shards, [][]int(nil)
	if len(keys)+len(prefixes) > 0 {
		sh, err := sc.shardOf(append(keys, prefixes...))
		if err == nil {
			return send(ctx, sh, name, args)
		}
		if cmd.Step == 0 {
			return kvstore.ErrReply(err)
		}
		// Split: group i is args[i*Step : (i+1)*Step], led by keys[i].
		groups := make(map[*shard][]int)
		order = nil
		for i, k := range keys {
			sh := sc.shardFor(string(k))
			if groups[sh] == nil {
				order = append(order, sh)
			}
			groups[sh] = append(groups[sh], i)
		}
		for _, sh := range order {
			at = append(at, groups[sh])
		}
	}
	parts := make([]kvstore.PipeReply, len(order))
	for i, sh := range order {
		sub := args
		if at != nil {
			sub = make([][]byte, 0, len(at[i])*cmd.Step)
			for _, g := range at[i] {
				sub = append(sub, args[g*cmd.Step:(g+1)*cmd.Step]...)
			}
		}
		if parts[i] = send(ctx, sh, name, sub); parts[i].Err() != nil {
			return parts[i]
		}
	}
	return kvstore.MergeReplies(parts, at)
}

func (sc *ShardedClient) WaitGet(ctx context.Context, key string, timeout time.Duration) (val []byte, ok bool, err error) {
	err = doShard(ctx, sc.shardFor(key), func(c *kvstore.Client) error {
		val, ok, err = c.WaitGet(ctx, key, timeout)
		return err
	})
	return val, ok, err
}

func (sc *ShardedClient) WaitPrefix(ctx context.Context, prefix string, after uint64, timeout time.Duration) (seq uint64, err error) {
	err = doShard(ctx, sc.shardFor(prefix), func(c *kvstore.Client) error {
		seq, err = c.WaitPrefix(ctx, prefix, after, timeout)
		return err
	})
	return seq, err
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
		sh, err := sc.shardOf(keys)
		if err != nil {
			return nil, err
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
