// Package cluster is the failover client for one replicated kvstore tier:
// a primary and its replicas behind the same client surface a single
// server presents (kvstore.KV).
//
// # Spec
//
// A replica set is described by one address string, so it fits anywhere
// a single server address already travels (flags, broker constructors):
//
//	addr | addr | ...            replicas separated by pipes
//
// e.g. "10.0.0.1:6379|10.0.0.2:6379". The first address is the initial
// primary; the others are replicas started with -replica-of (they serve
// reads and are promoted on failover). Every command goes to the set's
// current primary; a spec with a ',' (several shards) is refused.
//
// # Failover
//
// A transport error (the server is unreachable — not an error reply, see
// kvstore.ReplyError) advances to the next replica, sends it a
// best-effort PROMOTE, and retries. A write that reaches a still-readonly
// replica ("ERR readonly replica") promotes it in place and retries, so
// the client-driven and stream-break-driven promotion paths can race
// without stranding a command.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"proxystore/internal/kvstore"
)

// promoteTimeout bounds the best-effort PROMOTE sent during failover.
const promoteTimeout = 2 * time.Second

// IsSpec reports whether addr is written as a cluster spec rather than a
// single server address.
func IsSpec(addr string) bool {
	return strings.ContainsAny(addr, ",|")
}

// ParseSpec splits a replica-set spec into its member addresses.
func ParseSpec(spec string) ([]string, error) {
	if strings.Contains(spec, ",") {
		return nil, fmt.Errorf("cluster: spec %q names several shards; only one replica set is supported", spec)
	}
	var addrs []string
	for _, addr := range strings.Split(spec, "|") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("cluster: empty address in spec %q", spec)
		}
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// FailoverClient implements kvstore.KV over one replica set: clients for
// every member, and which member commands currently go to.
type FailoverClient struct {
	clients []*kvstore.Client

	mu  sync.Mutex
	cur int
}

var _ kvstore.KV = (*FailoverClient)(nil)

// New builds a failover client from a spec (see the package doc), passing
// opts through to every member's kvstore.Client.
func New(spec string, opts ...kvstore.ClientOption) (*FailoverClient, error) {
	addrs, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	fc := &FailoverClient{}
	for _, addr := range addrs {
		fc.clients = append(fc.clients, kvstore.NewClient(addr, opts...))
	}
	return fc, nil
}

func (fc *FailoverClient) client() *kvstore.Client {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.clients[fc.cur]
}

// advanceFrom moves to the next replica if failed is still current (a
// concurrent failover may already have moved on), returning the new
// current client.
func (fc *FailoverClient) advanceFrom(failed *kvstore.Client) *kvstore.Client {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.clients[fc.cur] == failed {
		fc.cur = (fc.cur + 1) % len(fc.clients)
	}
	return fc.clients[fc.cur]
}

// failedOver moves on from failed and promotes whichever member is
// current now.
func (fc *FailoverClient) failedOver(failed *kvstore.Client) {
	if next := fc.advanceFrom(failed); next != failed {
		promote(next)
	}
}

// promote asks c (best-effort, bounded) to start accepting writes.
func promote(c *kvstore.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), promoteTimeout)
	defer cancel()
	c.Do(ctx, "PROMOTE") // ignore the error: the retry tells us if it worked
}

// withFailover runs fn against the current client, failing over through
// the replicas on transport errors. Error replies are returned as-is —
// the server answered; asking another one would be wrong — with one
// exception: a write refused by a not-yet-promoted replica promotes it in
// place and retries.
func (fc *FailoverClient) withFailover(ctx context.Context, fn func(*kvstore.Client) error) error {
	var err error
	for attempt := 0; attempt <= len(fc.clients); attempt++ {
		c := fc.client()
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
		fc.failedOver(c)
	}
	return err
}

// Do sends one command to the current primary.
func (fc *FailoverClient) Do(ctx context.Context, name string, args ...[]byte) (r kvstore.PipeReply) {
	fc.withFailover(ctx, func(c *kvstore.Client) error {
		r = c.Do(ctx, name, args...)
		return r.Err()
	})
	return r
}

func (fc *FailoverClient) WaitGet(ctx context.Context, key string, timeout time.Duration) (val []byte, ok bool, err error) {
	err = fc.withFailover(ctx, func(c *kvstore.Client) error {
		val, ok, err = c.WaitGet(ctx, key, timeout)
		return err
	})
	return val, ok, err
}

func (fc *FailoverClient) WaitPrefix(ctx context.Context, prefix string, after uint64, timeout time.Duration) (seq uint64, err error) {
	err = fc.withFailover(ctx, func(c *kvstore.Client) error {
		seq, err = c.WaitPrefix(ctx, prefix, after, timeout)
		return err
	})
	return seq, err
}

// Pipeline returns a pipeline bound at Exec time to the current primary.
// A transport failure fails the set over, so the caller's retry lands on
// the promoted replica.
func (fc *FailoverClient) Pipeline() *kvstore.Pipeline {
	var used *kvstore.Client
	pick := func() *kvstore.Client {
		used = fc.client()
		return used
	}
	return kvstore.NewRoutedPipeline(pick, func(error) { fc.failedOver(used) })
}

// Dials sums connection dials across every member client.
func (fc *FailoverClient) Dials() (n uint64) {
	for _, c := range fc.clients {
		n += c.Dials()
	}
	return n
}

// RoundTrips sums request round trips across every member client.
func (fc *FailoverClient) RoundTrips() (n uint64) {
	for _, c := range fc.clients {
		n += c.RoundTrips()
	}
	return n
}

// Close closes every member client.
func (fc *FailoverClient) Close() error {
	var errs []error
	for _, c := range fc.clients {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
