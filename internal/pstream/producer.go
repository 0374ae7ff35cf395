package pstream

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/proxy"
	"proxystore/internal/store"
	"proxystore/internal/telemetry"
)

// AttrPubTime stamps each payload event with the producer's publish
// wall-clock (UnixNano, decimal). Brokers that can observe delivery —
// today KVBroker — subtract it from the delivery time to feed their
// publish→deliver histograms. Like the ot.trace/ot.span pair it lives
// in the "ot." attr namespace reserved for cross-plane telemetry.
const AttrPubTime = "ot.pub"

// ProducerStats are cumulative per-producer counters.
type ProducerStats struct {
	// Items is the number of payload events published (End excluded).
	Items uint64
	// PayloadBytes is the stored size of published payloads.
	PayloadBytes uint64
}

// ProducerOption configures a Producer.
type ProducerOption func(*producerConfig)

type producerConfig struct {
	evictAfter int
	id         string
}

// WithEvictOnAck opts published objects into the evict-on-ack lifetime
// policy: once consumers distinct consumers have acked an event, the acking
// consumer evicts the object from its store, so consumed stream items are
// garbage-collected automatically. The producer must know the topic's
// consumer count; an undercount evicts before everyone has read.
//
// Eviction triggers on the ack of the event itself — consumers must ack
// each item (as Item.Ack/NextValue do). Items skipped over by a cumulative
// ack of a later event have their counters advanced but no acking consumer
// observing the threshold, so their objects are not reclaimed.
func WithEvictOnAck(consumers int) ProducerOption {
	return func(c *producerConfig) { c.evictAfter = consumers }
}

// WithProducerID pins the producer's ID (default: a fresh UUID). Stable IDs
// let a restarted producer keep its identity in per-producer ordering.
func WithProducerID(id string) ProducerOption {
	return func(c *producerConfig) { c.id = id }
}

// Producer publishes a stream of T values: each value is stored through the
// Store (streamed puts for large payloads, batched puts via SendBatch) and
// announced to the topic with a compact event carrying a self-contained
// proxy.
//
// A Producer is safe for concurrent use; per-producer Seq order matches
// publish order only when Send calls are not concurrent with each other.
type Producer[T any] struct {
	st    *store.Store
	b     Broker
	topic string
	cfg   producerConfig
	seq   atomic.Uint64

	items atomic.Uint64
	bytes atomic.Uint64
}

// NewProducer returns a producer publishing to topic, storing payloads in
// st and events through b.
func NewProducer[T any](st *store.Store, b Broker, topic string, opts ...ProducerOption) *Producer[T] {
	cfg := producerConfig{id: connector.NewID()}
	for _, o := range opts {
		o(&cfg)
	}
	return &Producer[T]{st: st, b: b, topic: topic, cfg: cfg}
}

// ID returns the producer's identity used in event records.
func (p *Producer[T]) ID() string { return p.cfg.id }

// Stats returns a snapshot of the producer's counters.
func (p *Producer[T]) Stats() ProducerStats {
	return ProducerStats{Items: p.items.Load(), PayloadBytes: p.bytes.Load()}
}

// event assembles the record for an already-stored payload.
func (p *Producer[T]) event(pxy *proxy.Proxy[T], key connector.Key, attrs map[string]string) (Event, error) {
	data, err := pxy.MarshalBinary()
	if err != nil {
		return Event{}, fmt.Errorf("pstream: serializing payload proxy: %w", err)
	}
	ev := Event{
		Topic:     p.topic,
		Producer:  p.cfg.id,
		Seq:       p.seq.Add(1),
		Key:       key,
		ProxyData: data,
	}
	ev.Attrs = make(map[string]string, len(attrs)+2)
	for k, v := range attrs {
		ev.Attrs[k] = v
	}
	if p.cfg.evictAfter > 0 {
		ev.Attrs[attrEvictAfter] = strconv.Itoa(p.cfg.evictAfter)
	}
	ev.Attrs[AttrPubTime] = strconv.FormatInt(time.Now().UnixNano(), 10)
	return ev, nil
}

// publishSpan opens a "publish" span when the caller's attrs carry a
// trace (ot.trace), parented under the caller's span (ot.span). Returns
// nil — inert — for untraced sends, so the hot path pays only a map
// lookup.
func publishSpan(attrs map[string]string) *telemetry.Span {
	trace := attrs[telemetry.AttrTrace]
	if trace == "" {
		return nil
	}
	return telemetry.Default().StartSpan(trace, attrs[telemetry.AttrSpan], "publish")
}

// Send stores v and publishes its event. Large payloads stream into the
// connector when the store's serializer and connector support it, so the
// producer never materializes more than O(chunk) beyond the value itself.
// attrs, if given, travel in the event record — keep them small; names
// starting with "ps." are reserved.
func (p *Producer[T]) Send(ctx context.Context, v T, attrs map[string]string) error {
	sp := publishSpan(attrs)
	defer sp.End()
	key, err := p.st.PutObject(ctx, v)
	if err != nil {
		return err
	}
	ev, err := p.event(store.ProxyFromKey[T](p.st, key), key, attrs)
	if err != nil {
		p.unput(ctx, key)
		return err
	}
	if err := p.b.Publish(ctx, p.topic, ev); err != nil {
		p.unput(ctx, key)
		return err
	}
	p.items.Add(1)
	p.bytes.Add(uint64(key.Size))
	return nil
}

// unput best-effort evicts a stored payload whose event never reached the
// broker — no consumer can ever learn the key, so leaving it would leak.
// The evict runs detached from the caller's cancellation, which may be the
// very reason the publish failed.
func (p *Producer[T]) unput(ctx context.Context, key connector.Key) {
	p.st.Evict(context.WithoutCancel(ctx), key)
}

// SendBatch stores values with one batched backend operation
// (Store.PutBatch) and announces them with one batched broker operation
// (Broker.PublishBatch) — both halves of the batched streaming fast path
// pay O(1) round trips per batch. attrs, when non-nil, must be
// len(values) long: attrs[i] travels in value i's event record.
func (p *Producer[T]) SendBatch(ctx context.Context, values []T, attrs ...[]map[string]string) error {
	if len(values) == 0 {
		return nil
	}
	var perValue []map[string]string
	if len(attrs) > 0 && attrs[0] != nil {
		if len(attrs[0]) != len(values) {
			return fmt.Errorf("pstream: SendBatch got %d attr maps for %d values", len(attrs[0]), len(values))
		}
		perValue = attrs[0]
	}
	anyValues := make([]any, len(values))
	for i, v := range values {
		anyValues[i] = v
	}
	keys, err := p.st.PutBatch(ctx, anyValues)
	if err != nil {
		return err
	}
	unputAll := func() {
		for _, k := range keys {
			p.unput(ctx, k)
		}
	}
	evs := make([]Event, len(keys))
	for i, key := range keys {
		var a map[string]string
		if perValue != nil {
			a = perValue[i]
		}
		ev, err := p.event(store.ProxyFromKey[T](p.st, key), key, a)
		if err != nil {
			unputAll()
			return err
		}
		evs[i] = ev
	}
	if err := p.b.PublishBatch(ctx, p.topic, evs); err != nil {
		// None of the values were announced; reclaim them all. (Brokers
		// append a batch whole or not at all.)
		unputAll()
		return err
	}
	for _, key := range keys {
		p.items.Add(1)
		p.bytes.Add(uint64(key.Size))
	}
	return nil
}

// Close publishes the producer's end-of-stream marker. Consumers configured
// with the topic's producer count stop after collecting every marker. Close
// does not close the store or broker, which the producer borrows.
func (p *Producer[T]) Close(ctx context.Context) error {
	ev := Event{
		Topic:    p.topic,
		Producer: p.cfg.id,
		Seq:      p.seq.Add(1),
		End:      true,
	}
	return p.b.Publish(ctx, p.topic, ev)
}
