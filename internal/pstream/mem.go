package pstream

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// DefaultLease is the claim lease applied to group subscriptions when the
// broker is not configured with an explicit lease: a member that claims an
// event must ack it within the lease or the claim expires and another
// member reclaims the event.
const DefaultLease = 30 * time.Second

// MemBroker is the in-process broker: topic logs live in memory, waiters
// block on a broadcast channel that append rotates. It is the reference
// implementation of the Broker contract (brokertest runs against it first)
// and the right choice for tests and single-process pipelines.
//
// A MemBroker is safe for concurrent use.
type MemBroker struct {
	lease time.Duration

	mu     sync.Mutex
	topics map[string]*memTopic
	// futures holds the task planes' result futures by key (see task.go).
	futures map[string]*memFuture
	closed  bool
	// done is closed by Close so fetchers parked on empty topics wake
	// immediately instead of waiting out their timers.
	done chan struct{}
}

type memTopic struct {
	events []Event
	// acks[i] is the number of distinct consumers whose committed offset
	// has moved past event i (a whole group counts once).
	acks []int
	// committed maps consumer name to its committed offset (index of the
	// first unacked event). Entries persist across Subscribe/Close cycles,
	// which is what makes offsets resumable.
	committed map[string]uint64
	// groups holds per-group work-queue state, keyed by group name.
	groups map[string]*memGroup
	// changed is closed and replaced on every append and every group ack
	// (acks can unblock End barriers); blocked readers wake on it.
	changed chan struct{}
}

// memGroup is one consumer group's claim state over a topic log.
type memGroup struct {
	// floor is the first offset not yet resolved for the group: every
	// payload event below it is acked (End markers resolve automatically
	// once reached). Claim scans start here.
	floor uint64
	// claims maps offset to the active claim at or above floor.
	claims map[uint64]memClaim
	// acked marks group-acked offsets at or above floor; entries are
	// dropped as floor sweeps past them.
	acked map[uint64]bool
}

type memClaim struct {
	member   string
	deadline time.Time
}

// MemOption configures a MemBroker.
type MemOption func(*MemBroker)

// WithMemLease sets the claim lease for group subscriptions (default
// DefaultLease). A member must ack a claimed event within the lease or the
// event is reclaimed and redelivered to another member.
func WithMemLease(d time.Duration) MemOption {
	return func(b *MemBroker) {
		if d > 0 {
			b.lease = d
		}
	}
}

// NewMem returns an empty in-process broker.
func NewMem(opts ...MemOption) *MemBroker {
	b := &MemBroker{
		topics:  make(map[string]*memTopic),
		futures: make(map[string]*memFuture),
		done:    make(chan struct{}),
		lease:   DefaultLease,
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

func (b *MemBroker) topic(name string) *memTopic {
	t := b.topics[name]
	if t == nil {
		t = &memTopic{
			committed: make(map[string]uint64),
			groups:    make(map[string]*memGroup),
			changed:   make(chan struct{}),
		}
		b.topics[name] = t
	}
	return t
}

func (t *memTopic) group(name string) *memGroup {
	g := t.groups[name]
	if g == nil {
		g = &memGroup{claims: make(map[uint64]memClaim), acked: make(map[uint64]bool)}
		t.groups[name] = g
	}
	return g
}

// signal wakes blocked readers; callers must hold b.mu.
func (t *memTopic) signal() {
	close(t.changed)
	t.changed = make(chan struct{})
}

// Publish implements Broker.
func (b *MemBroker) Publish(_ context.Context, topic string, ev Event) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.append(topic, ev)
}

// PublishBatch implements Broker: the whole batch lands under one lock
// acquisition with one waiter wake-up.
func (b *MemBroker) PublishBatch(_ context.Context, topic string, evs []Event) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ev := range evs {
		if err := b.append(topic, ev); err != nil {
			return err
		}
	}
	return nil
}

// append adds one event to the topic log; callers must hold b.mu.
func (b *MemBroker) append(topic string, ev Event) error {
	if b.closed {
		return fmt.Errorf("pstream: broker closed")
	}
	t := b.topic(topic)
	ev.Topic = topic
	ev.Offset = uint64(len(t.events))
	t.events = append(t.events, ev)
	t.acks = append(t.acks, 0)
	t.signal()
	return nil
}

// Subscribe implements Broker.
func (b *MemBroker) Subscribe(_ context.Context, topic, consumer string) (Subscription, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("pstream: broker closed")
	}
	t := b.topic(topic)
	if _, ok := t.committed[consumer]; !ok {
		t.committed[consumer] = 0
	}
	return &memSub{b: b, topic: topic, consumer: consumer, cursor: t.committed[consumer]}, nil
}

// SubscribeGroup implements Broker.
func (b *MemBroker) SubscribeGroup(_ context.Context, topic, group, member string) (Subscription, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("pstream: broker closed")
	}
	b.topic(topic).group(group)
	return &memGroupSub{b: b, topic: topic, group: group, member: member}, nil
}

// Close implements Broker. Topic logs are dropped with the broker and
// blocked Next calls fail promptly.
func (b *MemBroker) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		close(b.done)
	}
	return nil
}

// memFuture is one result future: set is closed once val is in.
type memFuture struct {
	val []byte
	set chan struct{}
}

// future returns key's future, making it if absent. Callers hold b.mu.
func (b *MemBroker) future(key string) *memFuture {
	f := b.futures[key]
	if f == nil {
		f = &memFuture{set: make(chan struct{})}
		b.futures[key] = f
	}
	return f
}

// setFuture implements resultFutures.
func (b *MemBroker) setFuture(_ context.Context, key string, val []byte) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f := b.future(key)
	if f.val != nil {
		return false, nil
	}
	f.val = val
	close(f.set)
	return true, nil
}

// awaitFuture implements resultFutures.
func (b *MemBroker) awaitFuture(ctx context.Context, key string, round time.Duration) ([]byte, bool, error) {
	b.mu.Lock()
	f := b.future(key)
	b.mu.Unlock()
	timer := time.NewTimer(round)
	defer timer.Stop()
	select {
	case <-f.set:
		return f.val, true, nil
	case <-timer.C:
		return nil, false, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	case <-b.done:
		return nil, false, fmt.Errorf("pstream: broker closed")
	}
}

// deleteFutures implements resultFutures.
func (b *MemBroker) deleteFutures(_ context.Context, keys ...string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range keys {
		delete(b.futures, k)
	}
	return nil
}

// fetch returns the event at cursor in topic. With block set it waits
// until an event lands, the broker closes, or ctx cancels; without, it
// polls once and ok is false when the slot is still empty.
func (b *MemBroker) fetch(ctx context.Context, topic string, cursor uint64, block bool) (Event, bool, error) {
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return Event{}, false, fmt.Errorf("pstream: broker closed")
		}
		t := b.topic(topic)
		if cursor < uint64(len(t.events)) {
			ev := t.events[cursor]
			b.mu.Unlock()
			return ev, true, nil
		}
		changed := t.changed
		b.mu.Unlock()
		if !block {
			return Event{}, false, nil
		}
		select {
		case <-changed:
		case <-b.done:
			return Event{}, false, fmt.Errorf("pstream: broker closed")
		case <-ctx.Done():
			return Event{}, false, ctx.Err()
		}
	}
}

// ack advances the consumer's committed offset to at least offset+1,
// bumping ack counts for every newly covered event, and returns the ack
// count of the event at offset.
func (b *MemBroker) ack(topic, consumer string, offset uint64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topic(topic)
	if offset >= uint64(len(t.events)) {
		return 0, fmt.Errorf("pstream: ack of unknown offset %d in %q", offset, topic)
	}
	cur := t.committed[consumer]
	for i := cur; i <= offset; i++ {
		t.acks[i]++
	}
	if offset+1 > cur {
		t.committed[consumer] = offset + 1
	}
	return t.acks[offset], nil
}

type memSub struct {
	b        *MemBroker
	topic    string
	consumer string

	mu     sync.Mutex
	cursor uint64
}

// Next implements Subscription.
func (s *memSub) Next(ctx context.Context) (Event, error) {
	s.mu.Lock()
	cursor := s.cursor
	s.mu.Unlock()
	ev, _, err := s.b.fetch(ctx, s.topic, cursor, true)
	if err != nil {
		return Event{}, err
	}
	s.advance(cursor)
	return ev, nil
}

// Poll implements Subscription.
func (s *memSub) Poll(ctx context.Context) (Event, bool, error) {
	s.mu.Lock()
	cursor := s.cursor
	s.mu.Unlock()
	ev, ok, err := s.b.fetch(ctx, s.topic, cursor, false)
	if err != nil || !ok {
		return Event{}, false, err
	}
	s.advance(cursor)
	return ev, true, nil
}

// advance moves the cursor past a delivered event; concurrent Next/Poll
// callers may race delivery, so only the winning cursor advances.
func (s *memSub) advance(delivered uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cursor == delivered {
		s.cursor++
	}
}

// Ack implements Subscription.
func (s *memSub) Ack(_ context.Context, ev Event) (int, error) {
	return s.b.ack(s.topic, s.consumer, ev.Offset)
}

// Close implements Subscription; the committed offset survives.
func (s *memSub) Close() error { return nil }

// --- Consumer groups ------------------------------------------------------

// advanceGroupFloor sweeps the group's floor past resolved offsets: acked
// payload events and End markers (an End resolves once everything below
// it has — which is exactly when the floor reaches it).
// Claim and ack bookkeeping below the floor is dropped as it passes.
// Callers must hold b.mu.
func advanceGroupFloor(t *memTopic, g *memGroup) {
	for g.floor < uint64(len(t.events)) {
		ev := t.events[g.floor]
		if !ev.End && !g.acked[g.floor] {
			return
		}
		delete(g.acked, g.floor)
		delete(g.claims, g.floor)
		g.floor++
	}
}

// fetchGroup claims and returns the next event for a group member,
// blocking or polling as in fetch. endCursor is the member's private
// End-marker cursor (offsets below it hold no undelivered End for this
// member); the possibly advanced cursor is returned alongside the event.
// Delivery order: a deliverable End (all payload events before it
// group-acked) wins over new claims, then the earliest claimable payload
// event — unclaimed, unacked, and not under another member's live lease.
func (b *MemBroker) fetchGroup(ctx context.Context, topic, group, member string, endCursor uint64, block bool) (Event, uint64, bool, error) {
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return Event{}, endCursor, false, fmt.Errorf("pstream: broker closed")
		}
		t := b.topic(topic)
		g := t.group(group)
		advanceGroupFloor(t, g)

		// End markers broadcast to every member, but only once the work
		// before them is done: the floor has swept past (it passes an End
		// exactly when all earlier payload events are acked).
		for endCursor < uint64(len(t.events)) {
			if !t.events[endCursor].End {
				endCursor++
				continue
			}
			if g.floor > endCursor {
				ev := t.events[endCursor]
				endCursor++
				b.mu.Unlock()
				return ev, endCursor, true, nil
			}
			break
		}

		// Claim the earliest available payload event. Offsets under another
		// member's live lease are skipped but remembered: the earliest
		// expiry bounds how long a blocked fetch sleeps, so reclamation
		// does not depend on new appends arriving.
		now := time.Now()
		var nextExpiry time.Time
		for i := g.floor; i < uint64(len(t.events)); i++ {
			ev := t.events[i]
			if ev.End || g.acked[i] {
				continue
			}
			if c, held := g.claims[i]; held && now.Before(c.deadline) {
				if nextExpiry.IsZero() || c.deadline.Before(nextExpiry) {
					nextExpiry = c.deadline
				}
				continue
			}
			g.claims[i] = memClaim{member: member, deadline: now.Add(b.lease)}
			b.mu.Unlock()
			return ev, endCursor, true, nil
		}
		changed := t.changed
		b.mu.Unlock()
		if !block {
			return Event{}, endCursor, false, nil
		}
		var expiry <-chan time.Time
		var expiryTimer *time.Timer
		if !nextExpiry.IsZero() {
			expiryTimer = time.NewTimer(time.Until(nextExpiry))
			expiry = expiryTimer.C
		}
		stop := func() {
			if expiryTimer != nil {
				expiryTimer.Stop()
			}
		}
		select {
		case <-changed:
			stop()
		case <-expiry:
		case <-b.done:
			stop()
			return Event{}, endCursor, false, fmt.Errorf("pstream: broker closed")
		case <-ctx.Done():
			stop()
			return Event{}, endCursor, false, ctx.Err()
		}
	}
}

// groupAck settles member's claim on offset: the event becomes group-acked
// and the topic-level distinct-consumer ack count is bumped once for the
// whole group. A stale ack — the claim expired and another member holds it
// now — is a no-op returning the current count, so a reclaimed event is
// never counted twice. Acks can satisfy End barriers, so waiters are
// woken.
func (b *MemBroker) groupAck(topic, group, member string, offset uint64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topic(topic)
	g := t.group(group)
	if offset >= uint64(len(t.events)) {
		return 0, fmt.Errorf("pstream: ack of unknown offset %d in %q", offset, topic)
	}
	if offset < g.floor || g.acked[offset] {
		return t.acks[offset], nil // already settled: idempotent
	}
	if c, held := g.claims[offset]; held && c.member != member {
		return t.acks[offset], nil // reclaimed by another member: stale ack
	}
	delete(g.claims, offset)
	g.acked[offset] = true
	t.acks[offset]++
	advanceGroupFloor(t, g)
	t.signal()
	return t.acks[offset], nil
}

// memGroupSub is one group member's cursor; claims live in the shared
// group state, only the End-broadcast cursor is subscription-local (a
// member that resubscribes re-sees End markers, mirroring fan-out).
type memGroupSub struct {
	b      *MemBroker
	topic  string
	group  string
	member string

	mu        sync.Mutex
	endCursor uint64
}

// Next implements Subscription, blocking until an event is claimable.
func (s *memGroupSub) Next(ctx context.Context) (Event, error) {
	s.mu.Lock()
	cur := s.endCursor
	s.mu.Unlock()
	ev, cur, _, err := s.b.fetchGroup(ctx, s.topic, s.group, s.member, cur, true)
	s.setEndCursor(cur)
	if err != nil {
		return Event{}, err
	}
	return ev, nil
}

// Poll implements Subscription.
func (s *memGroupSub) Poll(ctx context.Context) (Event, bool, error) {
	s.mu.Lock()
	cur := s.endCursor
	s.mu.Unlock()
	ev, cur, ok, err := s.b.fetchGroup(ctx, s.topic, s.group, s.member, cur, false)
	s.setEndCursor(cur)
	if err != nil || !ok {
		return Event{}, false, err
	}
	return ev, true, nil
}

func (s *memGroupSub) setEndCursor(cur uint64) {
	s.mu.Lock()
	if cur > s.endCursor {
		s.endCursor = cur
	}
	s.mu.Unlock()
}

// Ack implements Subscription.
func (s *memGroupSub) Ack(_ context.Context, ev Event) (int, error) {
	return s.b.groupAck(s.topic, s.group, s.member, ev.Offset)
}

// Close implements Subscription. Unacked claims are not released; their
// leases expire and other members reclaim them — crash and clean shutdown
// look the same to the group.
func (s *memGroupSub) Close() error { return nil }
