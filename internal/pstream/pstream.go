// Package pstream is a topic-based pub/sub streaming subsystem built on the
// proxy model (the ProxyStream pattern from the paper's follow-up work):
// producers publish bulk objects through a Store — the data plane — and
// stream only compact event records through a Broker — the metadata plane.
// Consumers iterate a topic receiving lazy proxies, so moving an item
// through the broker costs O(100 B) regardless of payload size, and bulk
// bytes travel store-to-consumer only when (and if) a proxy is resolved.
//
// Brokers are append-only logs per topic with per-consumer committed
// offsets: every named consumer sees every event (fan-out), acks advance a
// consumer's offset cumulatively (Kafka-style), and re-subscribing with the
// same name resumes after the last acked event — at-least-once delivery.
//
// Alongside fan-out, topics support consumer groups (work-queue
// semantics): members of a named group claim events so each event is
// processed by exactly one member, claims carry leases so a crashed
// member's unacked events are reclaimed and redelivered, and End markers
// broadcast to every member once all preceding work is acked. Two
// implementations ship behind one conformance battery (brokertest):
// MemBroker (in-process, for tests and benches) and KVBroker (append-to-log
// over the kvstore RESP server, with push delivery through the server's
// tagged waits — the one remote broker, replicated for cross-site use).
package pstream

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"proxystore/internal/connector"
)

// ErrEnd is returned by Consumer.Next after the expected number of
// producers have closed their streams.
var ErrEnd = errors.New("pstream: end of stream")

// Reserved event-attribute names. Application attrs must not start with
// "ps.".
const (
	// attrEvictAfter is the distinct-consumer ack count after which the
	// event's object is evicted from its store (the evict-on-ack policy).
	attrEvictAfter = "ps.evict_after"
)

// Event is the compact record traveling through the metadata plane: a
// pointer into the data plane plus ordering metadata. Events are O(100 B)
// on the wire; the payload they describe never touches the broker.
type Event struct {
	// Topic names the stream.
	Topic string
	// Producer is the publishing producer's ID; Seq is its per-producer
	// sequence number, starting at 1. Brokers deliver each producer's
	// events in Seq order.
	Producer string
	Seq      uint64
	// Offset is the event's position in the topic log, assigned by the
	// broker at publish time. Acks commit offsets past delivered events.
	Offset uint64
	// Key locates the payload in the data plane (zero for End events).
	Key connector.Key
	// ProxyData is the serialized proxy for the payload, so events are
	// self-contained: a consumer needs no out-of-band store configuration.
	ProxyData []byte
	// Attrs carries small application metadata. Names starting with "ps."
	// are reserved.
	Attrs map[string]string
	// End marks a producer's end-of-stream; End events carry no payload.
	End bool
}

// Attr returns an event attribute, or "" when unset.
func (e Event) Attr(name string) string {
	if e.Attrs == nil {
		return ""
	}
	return e.Attrs[name]
}

// evictAfter returns the evict-on-ack consumer threshold, or 0 when the
// policy is off for this event.
func (e Event) evictAfter() int {
	n, err := strconv.Atoi(e.Attr(attrEvictAfter))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// EncodeEvent serializes an event for brokers that move records as bytes.
func EncodeEvent(ev Event) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ev); err != nil {
		return nil, fmt.Errorf("pstream: encoding event: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeEvent is the inverse of EncodeEvent.
func DecodeEvent(data []byte) (Event, error) {
	var ev Event
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ev); err != nil {
		return Event{}, fmt.Errorf("pstream: decoding event: %w", err)
	}
	return ev, nil
}

// Broker is the metadata plane: an append-only event log per topic with
// per-consumer committed offsets (fan-out) and per-group claim state
// (work queues). Implementations must be safe for concurrent use and must
// deliver every event to every named fan-out consumer and to exactly one
// live member of each group.
type Broker interface {
	// Publish appends ev to the topic's log. The broker assigns ev.Offset.
	Publish(ctx context.Context, topic string, ev Event) error
	// PublishBatch appends evs to the topic's log contiguously, assigning
	// consecutive offsets, with O(1) broker round trips for remote brokers
	// (one offset-range reservation plus one bulk write, instead of two
	// round trips per event). Order within evs is preserved.
	PublishBatch(ctx context.Context, topic string, evs []Event) error
	// Subscribe attaches a named consumer to the topic at its committed
	// offset — 0 for a consumer the broker has never seen, the offset of
	// the first unacked event for one that reconnects.
	Subscribe(ctx context.Context, topic, consumer string) (Subscription, error)
	// SubscribeGroup attaches member to the topic as part of the named
	// consumer group. Members of one group share the topic as a work
	// queue: Next/Poll claim the earliest unclaimed, unacked event under a
	// lease, so each event is delivered to exactly one live member; a
	// claim whose lease expires before Ack (member crash, stall) is
	// reclaimed by another member — at-least-once per group. End markers
	// are not claimed: they broadcast to every member, and only once every
	// payload event before them is group-acked, so a member that sees End
	// knows no unfinished work precedes it. Distinct groups (and fan-out
	// consumers) on one topic are independent.
	SubscribeGroup(ctx context.Context, topic, group, member string) (Subscription, error)
	// Close releases broker resources. Topic logs in external brokers
	// survive Close.
	Close() error
}

// Subscription is one consumer's cursor over a topic log. A subscription
// is owned by one goroutine; implementations need not support concurrent
// calls on a single subscription (brokers themselves are concurrent-safe).
type Subscription interface {
	// Next blocks until the event at the read cursor is available and
	// advances the cursor. The read cursor is local to the subscription;
	// only Ack moves the durable committed offset. For group
	// subscriptions, Next instead claims the earliest available event
	// under the broker's claim lease.
	Next(ctx context.Context) (Event, error)
	// Poll is the non-blocking Next: ok is false when no event is pending.
	Poll(ctx context.Context) (ev Event, ok bool, err error)
	// Ack commits the consumer's offset cumulatively past ev (acking event
	// k implies events 0..k are consumed) and returns how many distinct
	// consumers have acked ev — the counter behind evict-on-ack. Re-acking
	// an already-committed event does not inflate the count. For group
	// subscriptions, Ack settles this member's claim on ev (per-event,
	// not cumulative); the whole group counts as one distinct consumer in
	// the returned count, and an ack of a claim that was reclaimed by
	// another member after lease expiry is a no-op.
	Ack(ctx context.Context, ev Event) (int, error)
	// Close detaches the cursor. The committed offset survives, so a
	// later Subscribe with the same consumer name resumes. A group
	// member's unacked claims are not released by Close; they expire with
	// their leases and are then reclaimed by other members.
	Close() error
}

// --- Byte accounting ------------------------------------------------------

// CountingBroker wraps a Broker and tallies encoded event bytes moving
// through it, so tests and benches can assert the metadata plane stays
// metadata-sized while payloads move through the store.
type CountingBroker struct {
	Broker
	published atomic.Uint64
	delivered atomic.Uint64
}

// NewCounting wraps b.
func NewCounting(b Broker) *CountingBroker { return &CountingBroker{Broker: b} }

// Unwrap returns the wrapped broker, so AsKV can see through the counter.
func (c *CountingBroker) Unwrap() Broker { return c.Broker }

// BytesPublished returns total encoded bytes of published events.
func (c *CountingBroker) BytesPublished() uint64 { return c.published.Load() }

// BytesDelivered returns total encoded bytes of delivered events, summed
// across all consumers.
func (c *CountingBroker) BytesDelivered() uint64 { return c.delivered.Load() }

// Publish implements Broker.
func (c *CountingBroker) Publish(ctx context.Context, topic string, ev Event) error {
	c.published.Add(eventWireSize(ev))
	return c.Broker.Publish(ctx, topic, ev)
}

// PublishBatch implements Broker.
func (c *CountingBroker) PublishBatch(ctx context.Context, topic string, evs []Event) error {
	for _, ev := range evs {
		c.published.Add(eventWireSize(ev))
	}
	return c.Broker.PublishBatch(ctx, topic, evs)
}

// Subscribe implements Broker.
func (c *CountingBroker) Subscribe(ctx context.Context, topic, consumer string) (Subscription, error) {
	sub, err := c.Broker.Subscribe(ctx, topic, consumer)
	if err != nil {
		return nil, err
	}
	return &countingSub{Subscription: sub, c: c}, nil
}

// SubscribeGroup implements Broker.
func (c *CountingBroker) SubscribeGroup(ctx context.Context, topic, group, member string) (Subscription, error) {
	sub, err := c.Broker.SubscribeGroup(ctx, topic, group, member)
	if err != nil {
		return nil, err
	}
	return &countingSub{Subscription: sub, c: c}, nil
}

type countingSub struct {
	Subscription
	c *CountingBroker
}

func (s *countingSub) Next(ctx context.Context) (Event, error) {
	ev, err := s.Subscription.Next(ctx)
	if err == nil {
		s.c.delivered.Add(eventWireSize(ev))
	}
	return ev, err
}

func (s *countingSub) Poll(ctx context.Context) (Event, bool, error) {
	ev, ok, err := s.Subscription.Poll(ctx)
	if err == nil && ok {
		s.c.delivered.Add(eventWireSize(ev))
	}
	return ev, ok, err
}

// eventWireSize is the encoded size of ev; encoding failures count 0 and
// surface later on the real publish path.
func eventWireSize(ev Event) uint64 {
	data, err := EncodeEvent(ev)
	if err != nil {
		return 0
	}
	return uint64(len(data))
}
