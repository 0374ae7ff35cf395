package pstream

import (
	"context"
	"fmt"
	"sync/atomic"

	"proxystore/internal/proxy"
	"proxystore/internal/store"
)

// ConsumerStats are cumulative per-consumer counters.
type ConsumerStats struct {
	// Items is the number of payload events delivered.
	Items uint64
	// Prefetched counts items resolved through the batched prefetch path.
	Prefetched uint64
	// Evictions counts objects this consumer evicted under evict-on-ack.
	Evictions uint64
	// EvictErrors counts evict-on-ack attempts that failed. Eviction is
	// best-effort garbage collection: a failure leaks the object but does
	// not fail the ack (the offset is already committed).
	EvictErrors uint64
}

// ConsumerOption configures a Consumer.
type ConsumerOption func(*consumerConfig)

type consumerConfig struct {
	window int
	ends   int
	group  string
}

// WithWindow bounds the in-flight prefetch window: when a Next call finds
// multiple events pending, up to window of them are drained and their
// proxies resolved together with one batched store operation
// (store.ResolveBatch). window <= 1 disables prefetch, leaving proxies
// fully lazy. Default 16.
func WithWindow(n int) ConsumerOption {
	return func(c *consumerConfig) { c.window = n }
}

// WithEndCount sets how many producer end-of-stream markers complete the
// topic for this consumer (default 1 — single-producer topics). Use the
// topic's producer count for fan-in topics, or 0 to ignore End events and
// consume forever.
func WithEndCount(n int) ConsumerOption {
	return func(c *consumerConfig) { c.ends = n }
}

// WithGroup makes the consumer a member of the named consumer group: the
// topic becomes a work queue where each event is claimed by exactly one
// live member, under the broker's claim lease. The consumer name passed
// to NewConsumer identifies the member within the group. Members should
// ack promptly — a claim whose lease expires before Ack is redelivered to
// another member — and size the prefetch window so that
// window × per-item-time stays well inside the lease. End markers are
// delivered to every member (after all preceding work is acked), so
// WithEndCount works unchanged.
func WithGroup(group string) ConsumerOption {
	return func(c *consumerConfig) { c.group = group }
}

// Item is one delivered stream element: the event record plus a lazy proxy
// for the payload. Resolve with Value (or the proxy directly); call Ack
// once consumed so the consumer's offset commits and evict-on-ack can
// reclaim the object.
type Item[T any] struct {
	Event Event
	Proxy *proxy.Proxy[T]

	c     *Consumer[T]
	acked bool
}

// Value resolves the payload (batched prefetch may have already primed it).
func (it *Item[T]) Value(ctx context.Context) (T, error) {
	return it.Proxy.Value(ctx)
}

// Ack commits the consumer's offset past this item. When the item's
// producer enabled evict-on-ack and this ack is the last expected one, the
// payload is evicted from its store. Ack is idempotent per item. Eviction
// is best-effort: once the offset commit succeeds the ack succeeds, and an
// eviction failure only bumps ConsumerStats.EvictErrors (the event is
// consumed either way; failing it would discard a committed value).
func (it *Item[T]) Ack(ctx context.Context) error {
	if it.acked {
		return nil
	}
	n, err := it.c.sub.Ack(ctx, it.Event)
	if err != nil {
		return err
	}
	it.acked = true
	if want := it.Event.evictAfter(); want > 0 && n >= want {
		st, key, ok, err := store.KeyOf(it.Proxy)
		if err != nil || !ok {
			it.c.evictErrs.Add(1)
			return nil
		}
		if err := st.Evict(ctx, key); err != nil {
			it.c.evictErrs.Add(1)
			return nil
		}
		it.c.evicts.Add(1)
	}
	return nil
}

// Consumer iterates a topic as a stream of lazy proxies. Events arrive
// through the subscription's cursor; payloads stay in the data plane until
// a proxy resolves. When several events are pending, the consumer drains up
// to its window and resolves the batch with one backend round trip — the
// paper's proxy_batch applied to streams.
//
// A Consumer owns its subscription and must be used from one goroutine.
type Consumer[T any] struct {
	b     Broker
	sub   Subscription
	topic string
	name  string
	cfg   consumerConfig

	queue    []*Item[T]
	endsSeen int

	items      atomic.Uint64
	prefetched atomic.Uint64
	evicts     atomic.Uint64
	evictErrs  atomic.Uint64
}

// NewConsumer subscribes consumer name to topic. Events carry
// self-contained proxies, so no store handle is needed: proxies
// materialize their stores from embedded configs, exactly like proxies
// passed between processes. With WithGroup, name identifies this member
// inside the group and the subscription claims events instead of fanning
// out.
func NewConsumer[T any](ctx context.Context, b Broker, topic, name string, opts ...ConsumerOption) (*Consumer[T], error) {
	cfg := consumerConfig{window: 16, ends: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.window < 1 {
		cfg.window = 1
	}
	var sub Subscription
	var err error
	if cfg.group != "" {
		sub, err = b.SubscribeGroup(ctx, topic, cfg.group, name)
	} else {
		sub, err = b.Subscribe(ctx, topic, name)
	}
	if err != nil {
		return nil, err
	}
	return &Consumer[T]{b: b, sub: sub, topic: topic, name: name, cfg: cfg}, nil
}

// Stats returns a snapshot of the consumer's counters.
func (c *Consumer[T]) Stats() ConsumerStats {
	return ConsumerStats{
		Items:       c.items.Load(),
		Prefetched:  c.prefetched.Load(),
		Evictions:   c.evicts.Load(),
		EvictErrors: c.evictErrs.Load(),
	}
}

// item wraps a delivered event, deserializing its payload proxy.
func (c *Consumer[T]) item(ev Event) (*Item[T], error) {
	p := new(proxy.Proxy[T])
	if err := p.UnmarshalBinary(ev.ProxyData); err != nil {
		return nil, fmt.Errorf("pstream: rebuilding payload proxy: %w", err)
	}
	return &Item[T]{Event: ev, Proxy: p, c: c}, nil
}

// handleEnd counts an End event toward stream completion. End markers are
// deliberately never acked: committing past one would make a consumer that
// fully consumed a stream and reconnected block forever instead of seeing
// the redelivered marker and returning ErrEnd again. (Item acks are
// cumulative, so an End a consumer skipped past mid-stream on a fan-in
// topic is covered by later item acks and not redelivered — resuming
// consumers on multi-producer topics should size WithEndCount to the
// producers still open, or use 0 and bound consumption externally.)
func (c *Consumer[T]) handleEnd(_ context.Context, _ Event) (done bool, err error) {
	c.endsSeen++
	return c.cfg.ends > 0 && c.endsSeen >= c.cfg.ends, nil
}

// Next returns the next stream item, blocking until one is published. It
// returns ErrEnd once the expected number of producers have closed. When
// the topic has a backlog, Next drains up to the prefetch window and primes
// the whole batch with one batched store get before returning the first
// item.
func (c *Consumer[T]) Next(ctx context.Context) (*Item[T], error) {
	for {
		if len(c.queue) > 0 {
			it := c.queue[0]
			c.queue = c.queue[1:]
			return it, nil
		}
		if c.complete() {
			return nil, ErrEnd
		}
		ev, err := c.sub.Next(ctx)
		if err != nil {
			return nil, err
		}
		if ev.End {
			done, err := c.handleEnd(ctx, ev)
			if err != nil {
				return nil, err
			}
			if done {
				return nil, ErrEnd
			}
			continue
		}
		first, err := c.item(ev)
		if err != nil {
			return nil, err
		}
		batch := []*Item[T]{first}
		// Drain whatever is already pending, up to the window, without
		// blocking: these are "free" events whose payloads can be fetched
		// together. Errors mid-drain must not discard events already taken
		// off the subscription cursor — they would be skipped for the rest
		// of the session — so a Poll failure just stops the drain (a
		// persistent one resurfaces on the next blocking Next), and a
		// corrupt event surfaces its error only after the good drained
		// items are queued for delivery.
		var drainErr error
		for len(batch) < c.cfg.window {
			ev, ok, err := c.sub.Poll(ctx)
			if err != nil || !ok {
				break
			}
			if ev.End {
				done, err := c.handleEnd(ctx, ev)
				if err != nil {
					drainErr = err
					break
				}
				if done {
					// Deliver the drained items first; ErrEnd surfaces
					// once the queue runs dry.
					break
				}
				continue
			}
			it, err := c.item(ev)
			if err != nil {
				drainErr = err
				break
			}
			batch = append(batch, it)
		}
		if len(batch) > 1 {
			proxies := make([]*proxy.Proxy[T], len(batch))
			for i, it := range batch {
				proxies[i] = it.Proxy
			}
			// Prefetch is an optimization: on failure the items are
			// delivered lazy and each Value surfaces its own error.
			if err := store.ResolveBatch(ctx, proxies); err == nil {
				c.prefetched.Add(uint64(len(batch)))
			}
		}
		c.items.Add(uint64(len(batch)))
		c.queue = batch[1:]
		if drainErr != nil {
			// The queued items deliver on subsequent calls; report the
			// corrupt event now.
			c.queue = batch
			return nil, drainErr
		}
		return batch[0], nil
	}
}

// complete reports whether all expected End markers have been seen.
func (c *Consumer[T]) complete() bool {
	return c.cfg.ends > 0 && c.endsSeen >= c.cfg.ends
}

// NextValue is Next + Value + Ack: the convenience loop body for consumers
// that want at-most-window pipelining without touching items.
func (c *Consumer[T]) NextValue(ctx context.Context) (T, error) {
	var zero T
	it, err := c.Next(ctx)
	if err != nil {
		return zero, err
	}
	v, err := it.Value(ctx)
	if err != nil {
		return zero, err
	}
	if err := it.Ack(ctx); err != nil {
		return zero, err
	}
	return v, nil
}

// Close detaches the subscription; the committed offset survives for a
// later NewConsumer with the same name.
func (c *Consumer[T]) Close() error { return c.sub.Close() }
