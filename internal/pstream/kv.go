package pstream

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"proxystore/internal/kvstore"
	"proxystore/internal/kvstore/cluster"
	"proxystore/internal/telemetry"
)

// KVBroker is the kvstore-backed broker: topic logs, committed offsets,
// ack counters and group claim records are plain RESP keys on a kvstore
// server, so the metadata plane rides the same infrastructure as a redis
// data plane and survives process restarts (with server persistence, even
// server restarts).
//
// Layout, per topic T (and group G):
//
//	ps:T:len      log length, grown only by LAPPEND
//	ps:T:e:<i>    encoded event at log index i (its offset is i)
//	ps:T:c:<name> consumer name's committed offset
//	ps:T:a:<i>    INCR-maintained distinct-consumer ack count of event i
//	ps:T:t        truncation floor: slots below it have been reclaimed
//	ps:T:r        the registered readers, one line each naming the
//	              reader's floor key ps:T:<f>: a group's g:G:f or a
//	              fan-out consumer's c:<name>
//	ps:T:end      the first End marker a reader read past: trims stop at it
//	ps:T:g:G:f    group G's claim floor (first offset not group-resolved)
//	ps:T:g:G:c:<i> group G's claim record for slot i ("h|member|deadline"
//	              while leased, "a" once acked)
//
// An append is one LAPPEND, which grows the length and fills the slots it
// takes in one server step — a Publish or a whole PublishBatch is one
// command, concurrent producers never collide, and no slot is ever taken
// without its event. Group scans read the log with LREAD: a window of
// slots, their claim records, the length and the group floor, in one
// snapshot. A trim pass collects what every registered reader is done
// with (see trim). Delivery is push: a blocked Next parks in one
// server-side wait on its cursor slot
// (group members on their first unfilled slot, or over the topic keyspace
// while an End barrier is pending) and the write that fills it wakes the
// waiter — O(1) commands while idle and wake latency independent of any
// backoff state. Group members claim slots with server-side CAS on the
// claim record, so an event can never be leased to two members at once.
type KVBroker struct {
	addr string
	// client is the command path: a single-server *kvstore.Client, or a
	// cluster.FailoverClient when addr is a replica-set spec (replicas
	// separated by pipes — see the cluster package doc), which fails over
	// invisibly to everything up here. Blocking waits park on the
	// client's wait multiplexer, a connection outside the command pool, so
	// parked subscriptions can never starve the Publish whose write is
	// supposed to wake them.
	client kvstore.KV
	// wrap, when set, interposes on the client at construction (see
	// WithKVWrap) — the record/replay tap's entry point into the broker.
	wrap func(kvstore.KV) kvstore.KV
	// lease bounds how long a group member may hold a claimed event
	// before other members reclaim it.
	lease time.Duration
	// hbTTL is the liveness window of every group member and task client
	// (see WithKVHeartbeatTTL). hbs holds the heartbeats started here and
	// still running; Close stops them and leaves hbs nil. hbMu guards hbs.
	hbTTL time.Duration
	hbMu  sync.Mutex
	hbs   map[*Heartbeat]struct{}

	// truncMu guards truncPending, ranged deletes owed a retry after a
	// transient failure (the floor has already passed them).
	truncMu      sync.Mutex
	truncPending []pendingDel

	// reg collects broker metrics; handles resolved once at construction.
	reg          *telemetry.Registry
	mPublishNs   *telemetry.Histogram // ps.kv.publish.ns: append op latency
	mDeliverNs   *telemetry.Histogram // ps.kv.deliver.ns: publish→deliver
	mPublished   *telemetry.Counter   // ps.kv.published events
	mClaims      *telemetry.Counter   // ps.kv.claims: fresh lease wins
	mReclaims    *telemetry.Counter   // ps.kv.reclaims: expired-lease takeovers
	mTruncSweeps *telemetry.Counter   // ps.kv.trunc.sweeps
	mTruncSlots  *telemetry.Counter   // ps.kv.trunc.slots collected
	mMembers     *telemetry.Gauge     // ps.members: live members, latest read
	mOrphanGC    *telemetry.Counter   // ps.orphan_gc: orphaned payloads collected
}

// KVOption configures a KVBroker.
type KVOption func(*KVBroker)

// WithKVLease sets the claim lease for group subscriptions (default
// DefaultLease).
func WithKVLease(d time.Duration) KVOption {
	return func(b *KVBroker) {
		if d > 0 {
			b.lease = d
		}
	}
}

// WithKVHeartbeatTTL sets the liveness window of the broker's membership
// domains (default DefaultHeartbeatTTL). Every member SubscribeGroup
// creates, and every task client, joins its domain and refreshes its
// heartbeat key every ttl/3. A group scan treats a claim whose holder's
// key is gone as reclaimable at once, so a crashed member's work is stolen
// in O(ttl) instead of O(lease). A member whose own heartbeat cannot be
// refreshed self-fences and stops claiming new work until refreshes
// recover (see Heartbeat.Fenced).
func WithKVHeartbeatTTL(ttl time.Duration) KVOption {
	return func(b *KVBroker) {
		if ttl > 0 {
			b.hbTTL = ttl
		}
	}
}

// WithKVTelemetry makes the broker record its metrics (publish latency,
// publish→deliver histogram, claims, lease reclaims, trim passes)
// into reg instead of a private registry.
func WithKVTelemetry(reg *telemetry.Registry) KVOption {
	return func(b *KVBroker) { b.reg = reg }
}

// NewKV returns a broker over the kvstore server at addr.
func NewKV(addr string, opts ...KVOption) *KVBroker {
	b := &KVBroker{addr: addr, lease: DefaultLease, hbTTL: DefaultHeartbeatTTL,
		hbs: make(map[*Heartbeat]struct{})}
	for _, o := range opts {
		o(b)
	}
	if b.reg == nil {
		b.reg = telemetry.NewRegistry()
	}
	b.mPublishNs = b.reg.Histogram("ps.kv.publish.ns")
	b.mDeliverNs = b.reg.Histogram("ps.kv.deliver.ns")
	b.mPublished = b.reg.Counter("ps.kv.published")
	b.mClaims = b.reg.Counter("ps.kv.claims")
	b.mReclaims = b.reg.Counter("ps.kv.reclaims")
	b.mTruncSweeps = b.reg.Counter("ps.kv.trunc.sweeps")
	b.mTruncSlots = b.reg.Counter("ps.kv.trunc.slots")
	b.mMembers = b.reg.Gauge("ps.members")
	b.mOrphanGC = b.reg.Counter("ps.orphan_gc")
	b.client = newKVClient(addr, kvstore.WithClientTelemetry(b.reg))
	if b.wrap != nil {
		b.client = b.wrap(b.client)
	}
	return b
}

// WithKVWrap interposes wrap on the broker's kvstore client at
// construction, so a wire tap (kvstore.NewTap over a wiretap recorder) can
// record every command the broker issues without a TCP proxy. The wrapper
// sees the KV interface above pooling, pipelining and failover;
// taps compose with the broker's own wrappers the way CountingBroker and
// JitterBroker compose with AsKV.
func WithKVWrap(wrap func(kvstore.KV) kvstore.KV) KVOption {
	return func(b *KVBroker) { b.wrap = wrap }
}

// newKVClient builds the broker's client for addr: a failover client when
// addr is a replica-set spec, a plain one otherwise. A malformed spec
// (or one naming several shards) degrades to a plain client on the raw
// string, whose first dial fails with the offending spec in the error —
// NewKV has no error return to surface it earlier.
func newKVClient(addr string, opts ...kvstore.ClientOption) kvstore.KV {
	if cluster.IsSpec(addr) {
		if fc, err := cluster.New(addr, opts...); err == nil {
			return fc
		}
	}
	return kvstore.NewClient(addr, opts...)
}

// Telemetry returns the broker's metrics registry. It also carries the
// underlying kvstore client's metrics (kvc.* names), so one snapshot
// answers both "what did the broker do" and "what did it cost on the
// wire".
func (b *KVBroker) Telemetry() *telemetry.Registry { return b.reg }

// HeartbeatTTL reports the liveness window this broker's membership
// domains use (see WithKVHeartbeatTTL).
func (b *KVBroker) HeartbeatTTL() time.Duration { return b.hbTTL }

// AsKV unwraps b to its underlying *KVBroker, walking wrapper brokers
// (CountingBroker, test wrappers) via their Unwrap method. The task planes
// use it to reach kv-only machinery — membership, orphan sweeps — through
// whatever instrumentation the caller layered on top.
func AsKV(b Broker) (*KVBroker, bool) { return unwrapTo[*KVBroker](b) }

// unwrapTo walks b and the brokers it wraps (via their Unwrap method) to
// the first that is a T.
func unwrapTo[T any](b Broker) (T, bool) {
	for b != nil {
		if t, ok := b.(T); ok {
			return t, true
		}
		u, ok := b.(interface{ Unwrap() Broker })
		if !ok {
			break
		}
		b = u.Unwrap()
	}
	var zero T
	return zero, false
}

// observeDeliver records the publish→deliver latency for a delivered
// event when its producer stamped a publish timestamp (the ot.pub attr
// Producer.Send adds).
func (b *KVBroker) observeDeliver(ev Event) {
	raw := ev.Attr(AttrPubTime)
	if raw == "" {
		return
	}
	nanos, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return
	}
	if d := time.Now().UnixNano() - nanos; d >= 0 {
		b.mDeliverNs.Observe(d)
	}
}

func kvLenKey(topic string) string { return "ps:" + topic + ":len" }
func kvEventKey(topic string, i uint64) string {
	return "ps:" + topic + ":e:" + strconv.FormatUint(i, 10)
}
func kvEventPrefix(topic string) string         { return "ps:" + topic + ":e:" }
func kvOffsetKey(topic, consumer string) string { return "ps:" + topic + ":c:" + consumer }
func kvAckKey(topic string, i uint64) string {
	return "ps:" + topic + ":a:" + strconv.FormatUint(i, 10)
}
func kvAckPrefix(topic string) string            { return "ps:" + topic + ":a:" }
func kvTruncKey(topic string) string             { return "ps:" + topic + ":t" }
func kvGroupFloorKey(topic, group string) string { return "ps:" + topic + ":g:" + group + ":f" }
func kvClaimKey(topic, group string, i uint64) string {
	return "ps:" + topic + ":g:" + group + ":c:" + strconv.FormatUint(i, 10)
}
func kvClaimPrefix(topic, group string) string { return "ps:" + topic + ":g:" + group + ":c:" }
func kvReadersKey(topic string) string         { return "ps:" + topic + ":r" }
func kvEndKey(topic string) string             { return "ps:" + topic + ":end" }

// kvTopicPrefix covers every key of one topic — log slots, counters, acks
// and claim records — so one WaitPrefix watch observes appends, settles
// and floor sweeps alike.
func kvTopicPrefix(topic string) string { return "ps:" + topic + ":" }

// kvWaitRound bounds one server-side blocking wait. Blocked consumers
// re-arm in rounds; an idle round costs nothing.
const kvWaitRound = 15 * time.Second

// Publish implements Broker as a one-event PublishBatch: one LAPPEND.
func (b *KVBroker) Publish(ctx context.Context, topic string, ev Event) error {
	return b.PublishBatch(ctx, topic, []Event{ev})
}

// PublishBatch implements Broker with one command per batch: LAPPEND takes
// the next len(evs) slots and fills them in one server step, so a failed
// or abandoned append leaves no reserved, unfilled slot behind. An event's
// offset is the slot it lands in, known only once the append returns; the
// encoded event does not carry it, and every read sets it from the slot.
func (b *KVBroker) PublishBatch(ctx context.Context, topic string, evs []Event) error {
	if len(evs) == 0 {
		return nil
	}
	start := time.Now()
	defer b.mPublishNs.Since(start)
	vals := make([][]byte, len(evs))
	for i := range evs {
		evs[i].Topic = topic
		ev := evs[i]
		ev.Offset = 0
		data, err := EncodeEvent(ev)
		if err != nil {
			return err
		}
		vals[i] = data
	}
	args := append([][]byte{[]byte(kvLenKey(topic)), []byte(kvEventPrefix(topic))}, vals...)
	n, err := b.client.Do(ctx, "LAPPEND", args...).Int()
	if err != nil {
		return fmt.Errorf("pstream: appending %d events: %w", len(evs), err)
	}
	for i := range evs {
		evs[i].Offset = uint64(n) - uint64(len(evs)-i)
	}
	b.mPublished.Add(uint64(len(evs)))
	return nil
}

// Subscribe implements Broker: it registers the consumer as a reader of
// topic and resumes from the committed offset stored on the server. The
// start offset is clamped to the truncation floor: slots below it are
// gone, so a fresh consumer on a truncated topic begins at the oldest
// surviving event instead of polling a deleted slot forever. A clamped
// start is written as the committed offset, so the registration holds the
// trim at the consumer's cursor rather than at 0.
func (b *KVBroker) Subscribe(ctx context.Context, topic, consumer string) (Subscription, error) {
	offKey := kvOffsetKey(topic, consumer)
	if err := b.register(ctx, topic, offKey); err != nil {
		return nil, err
	}
	off, err := b.counter(ctx, offKey)
	if err != nil {
		return nil, err
	}
	floor, err := b.counter(ctx, kvTruncKey(topic))
	if err != nil {
		return nil, err
	}
	s := &kvSub{b: b, topic: topic, consumer: consumer, cursor: off, committed: off}
	if floor > off {
		s.cursor, s.committed = floor, floor
		if err := s.commitOffset(ctx, floor); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SubscribeGroup implements Broker, registering the group as a reader of
// topic. The member's End-broadcast cursor is seeded at the truncation
// floor — not the group claim floor, which sweeps past End markers: a
// member that (re)joins must still receive every surviving End, exactly
// as a reconnecting fan-out consumer re-sees an unacked End.
func (b *KVBroker) SubscribeGroup(ctx context.Context, topic, group, member string) (Subscription, error) {
	if err := b.register(ctx, topic, kvGroupFloorKey(topic, group)); err != nil {
		return nil, err
	}
	floor, err := b.counter(ctx, kvTruncKey(topic))
	if err != nil {
		return nil, err
	}
	hb, err := b.Membership(topic, group).Join(ctx, member)
	if err != nil {
		return nil, err
	}
	return &kvGroupSub{b: b, topic: topic, group: group, member: member, endCursor: floor, floorHint: floor, hb: hb}, nil
}

// register adds the reader whose floor is floorKey to topic's reader set
// (ps:T:r), one line per reader: a GET, and a CAS that retries while
// another reader registers concurrently. It is durable: a reader that
// Closes stays registered, so its floor still holds the trim when it
// resumes.
func (b *KVBroker) register(ctx context.Context, topic, floorKey string) error {
	key := kvReadersKey(topic)
	line := strings.TrimPrefix(floorKey, kvTopicPrefix(topic))
	for {
		raw, _, err := kvstore.Get(ctx, b.client, key)
		if err != nil {
			return fmt.Errorf("pstream: registering a reader of %s: %w", topic, err)
		}
		if slices.Contains(strings.Split(string(raw), "\n"), line) {
			return nil
		}
		set := line
		if raw != nil {
			set = string(raw) + "\n" + line
		}
		won, err := kvstore.CAS(ctx, b.client, key, raw, []byte(set))
		if err != nil {
			return fmt.Errorf("pstream: registering a reader of %s: %w", topic, err)
		}
		if won {
			return nil
		}
	}
}

// counter reads an unsigned decimal counter key, treating absence as 0.
func (b *KVBroker) counter(ctx context.Context, key string) (uint64, error) {
	raw, _, err := kvstore.Get(ctx, b.client, key)
	if err != nil {
		return 0, fmt.Errorf("pstream: reading %s: %w", key, err)
	}
	return parseCounter(key, raw)
}

// parseCounter decodes the unsigned decimal counter read from key; a nil
// raw (a missing key) is 0.
func parseCounter(key string, raw []byte) (uint64, error) {
	if raw == nil {
		return 0, nil
	}
	n, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("pstream: corrupt counter %s=%q: %w", key, raw, err)
	}
	return n, nil
}

// Close implements Broker. Server-side logs and offsets persist. The
// heartbeats still running stop as Kill stops them: the server expires
// their keys within one ttl, and peers then take their claims and futures.
func (b *KVBroker) Close() error {
	b.hbMu.Lock()
	hbs := b.hbs
	b.hbs = nil
	b.hbMu.Unlock()
	for h := range hbs {
		h.stop()
	}
	return b.client.Close()
}

// Dials reports how many TCP connections the broker's client has
// established, command pool and wait multiplexer together. An idle
// N-member group should hold O(1) of them — the wait multiplexer parks
// every blocked Next on one shared connection — and benches report this
// as connections-per-consumer.
func (b *KVBroker) Dials() uint64 { return b.client.Dials() }

// RoundTrips reports how many request flushes the broker's client has
// performed; commands-per-round-trip (server commands over this) measures
// how much the pipelined ack and batched scan paths amortize.
func (b *KVBroker) RoundTrips() uint64 { return b.client.RoundTrips() }

// kvScanWindow is how many adjacent slots one batched scan read fetches.
const kvScanWindow = 32

// kvWindow is a batched read-through view over a topic's log and the
// records kept beside each slot. at() serves single-slot reads from a
// window fetched with one LREAD, collapsing a group scan's O(slots) GET
// walks into O(slots/window) commands. A window carries several key
// families read at the same indices (a group scan's event slots and claim
// records): one LREAD fetches the run of every family at once, bounded at
// the log length.
//
// The window is a snapshot: a slot that fills (or settles) after its
// window was fetched still reads as missing/stale. Callers treat that
// conservatively — stop the walk, park, rescan — and every mutation point
// is CAS-guarded, so a stale view costs a lost CAS, never a wrong outcome.
type kvWindow struct {
	b        *KVBroker
	lenKey   string
	prefixes []string
	base     uint64
	// length is the log length in the latest fetch.
	length uint64
	// fams[k][j] is family k's value at index base+j, for indices below
	// length.
	fams [][]kvstore.PipeReply
}

// window returns an empty window over topic's log and the given key
// families (prefixes of per-slot keys); family k is read with at(ctx, k,
// i), and event() reads family 0.
func (b *KVBroker) window(topic string, prefixes ...string) kvWindow {
	return kvWindow{b: b, lenKey: kvLenKey(topic), prefixes: prefixes}
}

// fetch reads, in one LREAD, the window of every family starting at index
// base, the log length, and the given keys, whose values it returns: all
// one snapshot.
func (w *kvWindow) fetch(ctx context.Context, base uint64, keys ...string) ([]kvstore.PipeReply, error) {
	// LREAD lenKey start count nprefix prefix... key...
	args := [][]byte{[]byte(w.lenKey), []byte(strconv.FormatUint(base, 10)),
		[]byte(strconv.Itoa(kvScanWindow)), []byte(strconv.Itoa(len(w.prefixes)))}
	for _, p := range w.prefixes {
		args = append(args, []byte(p))
	}
	for _, k := range keys {
		args = append(args, []byte(k))
	}
	arr, err := w.b.client.Do(ctx, "LREAD", args...).Array()
	if err == nil && len(arr) != 1+len(keys)+len(w.prefixes) {
		err = fmt.Errorf("%d values, want %d", len(arr), 1+len(keys)+len(w.prefixes))
	}
	fams := make([][]kvstore.PipeReply, len(w.prefixes))
	for k := range fams {
		if err == nil {
			fams[k], err = arr[1+len(keys)+k].Array()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("pstream: reading log window: %w", err)
	}
	length, _ := arr[0].Int()
	w.base, w.length, w.fams = base, uint64(length), fams
	return arr[1 : 1+len(keys)], nil
}

// at returns family k's value at index i, fetching a fresh window when i
// falls outside the current one; ok is false for a missing key.
func (w *kvWindow) at(ctx context.Context, k int, i uint64) ([]byte, bool, error) {
	if w.fams == nil || i < w.base || i >= w.base+kvScanWindow {
		if _, err := w.fetch(ctx, i); err != nil {
			return nil, false, err
		}
	}
	if j := i - w.base; j < uint64(len(w.fams[k])) {
		return w.fams[k][j].Bytes()
	}
	return nil, false, nil
}

// event decodes the event at index i from family 0; ok is false for an
// unfilled slot.
func (w *kvWindow) event(ctx context.Context, i uint64) (Event, bool, error) {
	raw, ok, err := w.at(ctx, 0, i)
	if err != nil || !ok {
		return Event{}, false, err
	}
	return decodeAt(raw, i)
}

// decodeAt decodes the event stored in log slot i. The slot index is the
// event's offset: the encoded event cannot carry it, as the append that
// placed it chose the slot.
func decodeAt(raw []byte, i uint64) (Event, bool, error) {
	ev, err := DecodeEvent(raw)
	if err != nil {
		return Event{}, false, err
	}
	ev.Offset = i
	return ev, true, nil
}

type kvSub struct {
	b        *KVBroker
	topic    string
	consumer string
	cursor   uint64
	// committed mirrors the server-side committed offset. The subscription
	// is the offset's only writer (one cursor per consumer name), so Ack
	// trusts the local copy instead of re-reading it every item. dirty
	// marks a mirror that advanced past a failed server write.
	committed uint64
	dirty     bool
	// end is one past the offset of the latest End marker delivered (0
	// for none): a committed offset reaching that End triggers a trim.
	end uint64
}

// eventAt reads and decodes the event at log index i; ok is false when the
// slot is unfilled (or truncated).
func (b *KVBroker) eventAt(ctx context.Context, topic string, i uint64) (Event, bool, error) {
	raw, ok, err := kvstore.Get(ctx, b.client, kvEventKey(topic, i))
	if err != nil || !ok {
		return Event{}, false, err
	}
	return decodeAt(raw, i)
}

// ackCount reads event i's distinct-consumer ack counter (0 when absent).
func (b *KVBroker) ackCount(ctx context.Context, topic string, i uint64) (int64, error) {
	raw, ok, err := kvstore.Get(ctx, b.client, kvAckKey(topic, i))
	if err != nil || !ok {
		return 0, err
	}
	n, _ := strconv.ParseInt(string(raw), 10, 64)
	return n, nil
}

// skipTruncated disambiguates a missing cursor slot: a trim may have
// collected it (possible only for a slot below the consumer's committed
// offset, or a consumer whose registration was lost). The cursor jumps to
// the truncation floor — retrying a deleted key would poll forever — and
// the committed mirror follows, so a later Ack does not resurrect deleted
// ack counters.
func (s *kvSub) skipTruncated(ctx context.Context) (bool, error) {
	floor, err := s.b.counter(ctx, kvTruncKey(s.topic))
	if err != nil {
		return false, err
	}
	if floor <= s.cursor {
		return false, nil // genuinely unfilled: not appended yet
	}
	s.cursor = floor
	if floor > s.committed {
		s.committed = floor
	}
	return true, nil
}

// Next implements Subscription. A miss parks in one server-side wait on
// the cursor slot: the SET that fills the slot ships the value back in the
// wait's own reply, so a quiet consumer costs O(1) commands per delivered
// event — not O(poll rate) — and wakes in sub-millisecond time regardless
// of how long it idled. The wait returns an already-filled slot
// immediately, so it IS the read: the fast path costs the same one command
// as a plain GET. A wait on a slot a trim has collected returns at once,
// a miss (the server knows the log's length), and skipTruncated moves the
// cursor to the truncation floor.
func (s *kvSub) Next(ctx context.Context) (Event, error) {
	for {
		raw, ok, err := s.b.client.WaitGet(ctx, kvEventKey(s.topic, s.cursor), kvWaitRound)
		if err != nil {
			return Event{}, err
		}
		if !ok {
			if _, err := s.skipTruncated(ctx); err != nil {
				return Event{}, err
			}
			continue // re-arm (at the floor, if the slot was collected)
		}
		ev, _, err := decodeAt(raw, s.cursor)
		if err == nil {
			err = s.deliver(ctx, ev)
		}
		if err != nil {
			return Event{}, err
		}
		return ev, nil
	}
}

// deliver moves the cursor past ev. An End is recorded first (see
// passEnd), and an End delivered at the committed offset triggers a trim:
// the consumer's floor has reached it.
func (s *kvSub) deliver(ctx context.Context, ev Event) error {
	if ev.End {
		if err := s.b.passEnd(ctx, s.topic, ev.Offset); err != nil {
			return err
		}
		s.end = ev.Offset + 1
		if s.committed == ev.Offset {
			defer s.b.trim(ctx, s.topic)
		}
	}
	s.cursor++
	s.b.observeDeliver(ev)
	return nil
}

// Poll implements Subscription: one GET round trip, no waiting.
func (s *kvSub) Poll(ctx context.Context) (Event, bool, error) {
	for {
		ev, ok, err := s.b.eventAt(ctx, s.topic, s.cursor)
		if err != nil {
			return Event{}, false, err
		}
		if ok {
			if err := s.deliver(ctx, ev); err != nil {
				return Event{}, false, err
			}
			return ev, true, nil
		}
		if skipped, err := s.skipTruncated(ctx); err != nil || !skipped {
			return Event{}, false, err
		}
	}
}

// Ack implements Subscription: bump ack counters for every newly committed
// event, then persist the advanced offset — all in ONE pipelined round
// trip (the server executes the queued commands strictly in order, so the
// offset lands after its counters exactly as the sequential loop did).
// The local committed mirror is advanced as soon as the counters are
// bumped: a same-subscription retry after a failed offset commit then
// takes the already-covered path instead of re-running the Incrs, so
// counts cannot double. (A crash before the offset write still
// re-delivers and re-counts on resubscribe — the documented
// at-least-once trade.) An ack that moves the offset across a multiple of
// trimStride, or onto a delivered End, runs a trim pass.
func (s *kvSub) Ack(ctx context.Context, ev Event) (int, error) {
	committed := s.committed
	if ev.Offset < committed {
		// Already covered by an earlier cumulative ack: report the current
		// count without inflating it.
		n, err := s.b.ackCount(ctx, s.topic, ev.Offset)
		if err != nil {
			return 0, err
		}
		// The server-side offset trails after a failed commit; re-attempt
		// it so resubscribes resume correctly.
		if s.dirty {
			if err := s.commitOffset(ctx, committed); err != nil {
				return 0, err
			}
			s.dirty = false
		}
		return int(n), nil
	}
	pipe := s.b.client.Pipeline()
	incrs := make([]*kvstore.PipeReply, 0, ev.Offset-committed+1)
	for i := committed; i <= ev.Offset; i++ {
		incrs = append(incrs, pipe.Do("INCR", []byte(kvAckKey(s.topic, i))))
	}
	offRep := pipe.Do("SET", []byte(kvOffsetKey(s.topic, s.consumer)), []byte(strconv.FormatUint(ev.Offset+1, 10)))
	if err := pipe.Exec(ctx); err != nil {
		return 0, fmt.Errorf("pstream: counting ack: %w", err)
	}
	var last int64
	for _, r := range incrs {
		n, err := r.Int()
		if err != nil {
			return 0, fmt.Errorf("pstream: counting ack: %w", err)
		}
		last = n
	}
	s.committed = ev.Offset + 1
	if err := offRep.Err(); err != nil {
		s.dirty = true
		return 0, fmt.Errorf("pstream: committing offset: %w", err)
	}
	s.dirty = false
	if s.committed+1 == s.end || committed/trimStride != s.committed/trimStride {
		s.b.trim(ctx, s.topic)
	}
	return int(last), nil
}

func (s *kvSub) commitOffset(ctx context.Context, off uint64) error {
	raw := []byte(strconv.FormatUint(off, 10))
	if err := kvstore.Set(ctx, s.b.client, kvOffsetKey(s.topic, s.consumer), raw); err != nil {
		return fmt.Errorf("pstream: committing offset: %w", err)
	}
	return nil
}

// Close implements Subscription: it trims the topic up to the readers'
// floors; the server keeps the committed offset and the registration.
func (s *kvSub) Close() error {
	s.b.trim(context.Background(), s.topic)
	return nil
}

// --- Log trimming ---------------------------------------------------------

// trimStride is how far a reader's floor moves between the trims it runs:
// a pass costs about six commands, about 0.1 per event.
const trimStride = 64

// truncChunk bounds how many slots one trim pass collects, keeping every
// ranged DEL far below the server's range cap.
const truncChunk = 1024

// pendingDel is a ranged delete that failed and is owed a retry.
type pendingDel struct {
	prefix     string
	start, end uint64
}

// deleteRange issues a ranged DEL, queueing the range for a later retry on
// failure: the truncation floor has already moved past it, so no other
// pass would ever revisit those keys.
func (b *KVBroker) deleteRange(ctx context.Context, prefix string, start, end uint64) {
	if _, err := kvstore.DelRange(ctx, b.client, prefix, start, end); err != nil {
		b.truncMu.Lock()
		b.truncPending = append(b.truncPending, pendingDel{prefix: prefix, start: start, end: end})
		b.truncMu.Unlock()
	}
}

// trim collects the slots below the minimum of topic's registered readers'
// floors (absent ones read as 0), capped at the log length and at the
// first End marker a reader read past (see passEnd), which a rejoining
// reader still needs. A pass CASes the truncation floor forward,
// serializing concurrent passes, then deletes the event slots, ack
// counters and every group's claim records below it; a failed delete is
// retried by a later trim (a crash in between leaks the range). Passes
// collect at most truncChunk slots each. The length and the reader set
// are read in one snapshot, so a reader registered after it loses no
// event published after it registered. A trim never fails the operation
// that ran it.
func (b *KVBroker) trim(ctx context.Context, topic string) {
	b.truncMu.Lock()
	pending := b.truncPending
	b.truncPending = nil
	b.truncMu.Unlock()
	for _, r := range pending {
		b.deleteRange(ctx, r.prefix, r.start, r.end)
	}
	for {
		heads, err := kvstore.MGet(ctx, b.client, kvTruncKey(topic), kvLenKey(topic), kvReadersKey(topic))
		if err != nil || heads[2] == nil {
			return
		}
		trunc, err1 := parseCounter(kvTruncKey(topic), heads[0])
		limit, err2 := parseCounter(kvLenKey(topic), heads[1])
		if err1 != nil || err2 != nil || trunc >= limit {
			return
		}
		// The End record is read with the floors, in one MGET: a reader
		// records an End before its floor passes it.
		keys := []string{kvEndKey(topic)}
		prefixes := []string{kvEventPrefix(topic), kvAckPrefix(topic)}
		for _, line := range strings.Split(string(heads[2]), "\n") {
			keys = append(keys, kvTopicPrefix(topic)+line)
			if group, ok := strings.CutSuffix(line, "f"); ok && strings.HasPrefix(line, "g:") {
				prefixes = append(prefixes, kvTopicPrefix(topic)+group+"c:")
			}
		}
		raws, err := kvstore.MGet(ctx, b.client, keys...)
		if err != nil {
			return
		}
		for i, key := range keys {
			if i == 0 && raws[i] == nil {
				continue // no End read past yet
			}
			n, err := parseCounter(key, raws[i])
			if err != nil {
				return
			}
			limit = min(limit, n)
		}
		t := min(limit, trunc+truncChunk)
		if t <= trunc {
			return
		}
		var old []byte
		if trunc > 0 {
			old = []byte(strconv.FormatUint(trunc, 10))
		}
		if won, err := kvstore.CAS(ctx, b.client, kvTruncKey(topic), old, []byte(strconv.FormatUint(t, 10))); err != nil || !won {
			return
		}
		for _, p := range prefixes {
			b.deleteRange(ctx, p, trunc, t)
		}
		b.mTruncSweeps.Inc()
		b.mTruncSlots.Add(t - trunc)
		if t == limit {
			return
		}
	}
}

// passEnd records, before a reader's floor passes the End marker at
// offset i, that a reader read past it, so no trim collects it. A reader
// passes Ends in log order, and records each before passing it, so the
// first record is the topic's first End and later ones leave it be.
func (b *KVBroker) passEnd(ctx context.Context, topic string, i uint64) error {
	if _, err := kvstore.CAS(ctx, b.client, kvEndKey(topic), nil, []byte(strconv.FormatUint(i, 10))); err != nil {
		return fmt.Errorf("pstream: recording the End at %d: %w", i, err)
	}
	return nil
}

// --- Result futures -------------------------------------------------------

// A task plane's result future is one key that a worker sets once, with a
// CAS against absence, and that its client resolves with one TWAITGET and
// deletes once the result is in hand (see task.go).

// setFuture implements resultFutures.
func (b *KVBroker) setFuture(ctx context.Context, key string, val []byte) (bool, error) {
	return kvstore.CAS(ctx, b.client, key, nil, val)
}

// awaitFuture implements resultFutures.
func (b *KVBroker) awaitFuture(ctx context.Context, key string, round time.Duration) ([]byte, bool, error) {
	return b.client.WaitGet(ctx, key, round)
}

// deleteFutures implements resultFutures.
func (b *KVBroker) deleteFutures(ctx context.Context, keys ...string) error {
	_, err := kvstore.Del(ctx, b.client, keys...)
	return err
}

// --- Consumer groups ------------------------------------------------------

// claimAcked is the claim-record value of a settled (group-acked) slot.
const claimAcked = "a"

// claimRecord encodes a live lease, "h|member|deadline": peers may take
// it at the deadline, or once the member's heartbeat key is gone.
func claimRecord(member string, deadline time.Time) []byte {
	return []byte("h|" + member + "|" + strconv.FormatInt(deadline.UnixNano(), 10))
}

// parseClaim decodes a live lease record; ok is false for the acked
// marker or a corrupt record.
func parseClaim(raw []byte) (member string, deadline time.Time, ok bool) {
	parts := strings.SplitN(string(raw), "|", 3)
	if len(parts) != 3 || parts[0] != "h" {
		return "", time.Time{}, false
	}
	nanos, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return "", time.Time{}, false
	}
	return parts[1], time.Unix(0, nanos), true
}

// kvGroupSub is one group member's view of a topic work queue. All claim
// state lives on the server as CAS-guarded claim records; the
// subscription carries the member's private End-broadcast cursor and
// hints that save round trips, never decide outcomes.
type kvGroupSub struct {
	b      *KVBroker
	topic  string
	group  string
	member string
	// endCursor: offsets below it hold no undelivered End marker for this
	// member.
	endCursor uint64
	// lastSeq is the server mutation sequence carried between WaitPrefix
	// rounds: the next wait fires only for topic writes newer than it, so
	// rescans happen exactly once per batch of wakes.
	lastSeq uint64
	// nextLease is the earliest live claim deadline the latest scan saw
	// (zero if none). Lease expiry produces no server write, so a blocked
	// wait must be capped at it for reclamation to happen on time.
	nextLease time.Time
	// endPending marks a scan that found an End marker withheld by its
	// barrier: the wake that matters is then a claim settling (so the
	// floor can sweep), not just an append, and the blocking watch widens
	// from a single log slot to the whole topic keyspace.
	endPending bool
	// floorHint is the group floor as the latest scan left it (seeded at
	// the truncation floor): where the next scan fetches its window. The
	// floor never moves back, so it is a lower bound of the real floor.
	floorHint uint64
	// claimed maps each slot this member won and has not acked to the
	// exact claim record it wrote, so Ack settles it with one CAS. Entries
	// leave on Ack, when a scan's floor passes them, and on Close.
	claimed map[uint64][]byte
	// parkSlot is where the latest scan stopped: the first unfilled log
	// slot. A park watches exactly that slot with WaitGet — new
	// claimable work cannot appear anywhere earlier.
	parkSlot uint64
	// pendingIncr holds offsets whose claim record was settled but whose
	// ack-counter increment failed; only this subscription knows the
	// increment is owed, so it retries before further work. (A crash
	// before the retry loses the count — the unavoidable window of a
	// two-step settle on a plain kv server.)
	pendingIncr []uint64
	// hb is this member's membership heartbeat: Close leaves cleanly, and
	// tryClaim consults its fence before taking new work.
	hb *Heartbeat
	// hbSeen maps a peer whose heartbeat key a read found present to when
	// that alive verdict lapses, ttl/3 later on this member's clock.
	hbSeen map[string]time.Time
}

// flushPendingIncr retries owed ack-counter increments, all in one
// pipelined round trip. A transport failure keeps the whole debt; a
// per-command failure keeps only the unpaid tail (the server executed the
// pipeline in order, so everything before the failing command landed).
func (s *kvGroupSub) flushPendingIncr(ctx context.Context) error {
	if len(s.pendingIncr) == 0 {
		return nil
	}
	pipe := s.b.client.Pipeline()
	reps := make([]*kvstore.PipeReply, len(s.pendingIncr))
	for i, off := range s.pendingIncr {
		reps[i] = pipe.Do("INCR", []byte(kvAckKey(s.topic, off)))
	}
	if err := pipe.Exec(ctx); err != nil {
		return fmt.Errorf("pstream: retrying group ack count: %w", err)
	}
	for i, r := range reps {
		if err := r.Err(); err != nil {
			s.pendingIncr = s.pendingIncr[i:]
			return fmt.Errorf("pstream: retrying group ack count: %w", err)
		}
	}
	s.pendingIncr = nil
	return nil
}

// hbAlive reports whether the holder of a live claim may still be alive:
// false only when a fresh EXISTS finds its heartbeat key gone — expired on
// the server's clock, or deleted by a clean Leave. A read error reads as
// alive, and so does this subscription's own claim. A present key is
// cached for ttl/3 of this member's clock (hbSeen).
func (s *kvGroupSub) hbAlive(ctx context.Context, member string, now time.Time) bool {
	if member == s.member {
		return true
	}
	if until, ok := s.hbSeen[member]; ok && now.Before(until) {
		return true
	}
	n, err := kvstore.Exists(ctx, s.b.client, kvHeartbeatKey(s.topic, s.group, member))
	if err != nil {
		return true
	}
	if n == 0 {
		return false
	}
	if s.hbSeen == nil {
		s.hbSeen = make(map[string]time.Time)
	}
	s.hbSeen[member] = now.Add(s.b.HeartbeatTTL() / 3)
	return true
}

// trackLease records a live claim deadline so Next can cap its blocking
// wait at the earliest one. The cap is also the lapse of the holder's
// cached alive verdict: a parked member then re-reads the holder's
// heartbeat, and takes its claims in O(heartbeat) when it died, not
// O(lease).
func (s *kvGroupSub) trackLease(raw []byte, now time.Time) {
	member, deadline, ok := parseClaim(raw)
	if !ok || !deadline.After(now) {
		return
	}
	if until, seen := s.hbSeen[member]; seen && until.Before(deadline) {
		deadline = until
	}
	s.trackLeaseDeadline(deadline)
}

func (s *kvGroupSub) trackLeaseDeadline(deadline time.Time) {
	if s.nextLease.IsZero() || deadline.Before(s.nextLease) {
		s.nextLease = deadline
	}
}

// scan is one non-blocking pass over the work queue: advance the shared
// group floor past resolved slots, deliver a pending End marker once its
// barrier is met (floor swept past it), else claim the earliest available
// payload slot with a CAS-guarded lease. As a side effect it refreshes
// nextLease with the earliest live claim deadline encountered. A closing
// scan only advances the floor and trims; it delivers and claims nothing.
// A scan whose floor CAS crosses a multiple of trimStride, or that
// delivers an End, runs a trim pass before it returns.
//
// A scan reads in one LREAD: the event and claim-record windows at
// floorHint, the floor the previous scan left, together with the log
// length and the group floor — one snapshot. A trim deletes claim records
// only below every group's floor, so a record missing from the window at
// an index at or above the floor read was not collected by a trim: the
// scan never mistakes a settled slot for a free one. An append fills
// every slot it takes in one step, so a slot missing below the length of
// the read that fetched it was collected by a trim, and one at or past
// it is unfilled. A walk that leaves the window refetches it; such a
// read is newer than the floor, and tryClaim's floor guard covers it.
// Over a deep backlog the walks cost O(slots/kvScanWindow) commands, not
// O(slots).
func (s *kvGroupSub) scan(ctx context.Context, closing bool) (Event, bool, error) {
	s.nextLease = time.Time{}
	s.endPending = false
	if err := s.flushPendingIncr(ctx); err != nil {
		return Event{}, false, err
	}
	win := s.b.window(s.topic, kvEventPrefix(s.topic), kvClaimPrefix(s.topic, s.group))
	floorKey := kvGroupFloorKey(s.topic, s.group)
	raws, err := win.fetch(ctx, s.floorHint, floorKey)
	if err != nil {
		return Event{}, false, err
	}
	raw, _, _ := raws[0].Bytes()
	floor, err := parseCounter(floorKey, raw)
	if err != nil {
		return Event{}, false, err
	}
	length := win.length

	// 1. Sweep the shared floor: Ends and truncated slots resolve on
	// contact, payload slots once their claim record reads acked. The
	// sweep is opportunistic — a lost CAS means another member advanced it
	// — and advances at most truncChunk slots per scan, bounding its round
	// trips. The first End it passes is recorded first (see passEnd).
	f := floor
	passed := false
	for f < length && f-floor < truncChunk {
		ev, ok, err := win.event(ctx, f)
		if err != nil {
			return Event{}, false, err
		}
		if !ok {
			if f < win.length {
				f++ // collected by a trim
				continue
			}
			break // unfilled slot
		}
		if ev.End && !passed {
			if err := s.b.passEnd(ctx, s.topic, f); err != nil {
				return Event{}, false, err
			}
			passed = true
		}
		if !ev.End {
			raw, held, err := win.at(ctx, 1, f)
			if err != nil {
				return Event{}, false, err
			}
			if !held || string(raw) != claimAcked {
				if held {
					s.trackLease(raw, time.Now())
				}
				break
			}
		}
		f++
	}
	s.floorHint = floor
	trimDue := closing
	if f > floor {
		var old []byte
		if floor > 0 {
			old = []byte(strconv.FormatUint(floor, 10))
		}
		if ok, err := kvstore.CAS(ctx, s.b.client, floorKey, old, []byte(strconv.FormatUint(f, 10))); err == nil && ok {
			s.floorHint = f
			trimDue = trimDue || floor/trimStride != f/trimStride
		}
	}
	// Every slot below f is settled, so no claim of ours there can still be
	// acked with the record we wrote.
	for off := range s.claimed {
		if off < f {
			delete(s.claimed, off)
		}
	}
	if trimDue {
		s.b.trim(ctx, s.topic)
	}
	if closing {
		return Event{}, false, nil
	}

	// 2. End markers broadcast once all payload work before them is acked
	// (the floor, which passes Ends freely, has swept beyond). Truncated
	// slots cannot hold Ends — truncation stops at them — so they just
	// advance the cursor.
	for s.endCursor < length {
		ev, ok, err := win.event(ctx, s.endCursor)
		if err != nil {
			return Event{}, false, err
		}
		if !ok {
			if s.endCursor < win.length {
				s.endCursor++ // collected by a trim
				continue
			}
			break
		}
		if !ev.End {
			s.endCursor++
			continue
		}
		if f > s.endCursor {
			s.endCursor++
			s.b.trim(ctx, s.topic)
			return ev, true, nil
		}
		s.endPending = true
		break
	}

	// 3. Claim the earliest available payload slot. parkSlot ends at the
	// first slot unfilled in the latest read — the only place new
	// claimable work can appear — which is where park points its blocking
	// watch. A fenced member takes no work, so it parks at the log's end
	// until the fence may lift: fenced members walking (and decoding) the
	// log starve the heartbeats that would lift their fences.
	if s.hb.Fenced() {
		s.parkSlot = length
		s.trackLeaseDeadline(time.Now().Add(s.b.HeartbeatTTL() / 3))
		return Event{}, false, nil
	}
	for i := f; ; i++ {
		ev, ok, err := win.event(ctx, i)
		if err != nil {
			return Event{}, false, err
		}
		if !ok {
			if i < win.length {
				continue // collected by a trim
			}
			s.parkSlot = i
			break // unfilled: preserve log order, wait for the fill
		}
		if ev.End {
			continue
		}
		raw, held, err := win.at(ctx, 1, i)
		if err != nil {
			return Event{}, false, err
		}
		won, err := s.tryClaim(ctx, i, raw, held)
		if err != nil {
			return Event{}, false, err
		}
		if won {
			s.b.observeDeliver(ev)
			return ev, true, nil
		}
	}
	return Event{}, false, nil
}

// tryClaim attempts to lease payload slot i, going straight to a CAS on
// the claim record as the caller last read it (raw, held): held false —
// a scan window's missing record, or park's freshly filled slot — means
// nil→record, a fresh claim; an expired lease, or a live lease whose
// holder's heartbeat key is gone (the crashed member's work is stolen in
// O(heartbeat), not O(lease)), means an exact-record CAS, so two
// reclaimers can never both win; a live lease or
// the acked marker means skip, with no CAS. There is no read of the record
// here, so a stale view costs a lost CAS. After a win, the floor guard protects against resurrecting a
// settled slot — if the slot was acked and its record GC'd before the
// CAS, a fresh claim would redeliver an event whose payload may already be
// evicted. The floor cannot pass a live claim, so if it is still at or
// below i it stays there until we ack or our lease expires; if it already
// moved past, the claim is undone. A kept claim's record is remembered in
// claimed, so Ack can settle it with one CAS. Live peer leases observed
// along the way feed nextLease. A self-fenced member — its own heartbeat
// unrefreshable, so peers may already be stealing its claims — takes no
// new work at all.
func (s *kvGroupSub) tryClaim(ctx context.Context, i uint64, raw []byte, held bool) (bool, error) {
	if s.hb.Fenced() {
		return false, nil
	}
	key := kvClaimKey(s.topic, s.group, i)
	now := time.Now()
	record := claimRecord(s.member, now.Add(s.b.lease))
	var win, reclaimed bool
	var err error
	if !held {
		if win, err = kvstore.CAS(ctx, s.b.client, key, nil, record); err != nil {
			return false, err
		}
		if !win {
			// A peer holds the slot, most likely with a lease that starts
			// about now.
			s.trackLeaseDeadline(now.Add(s.b.lease))
		}
	} else {
		if string(raw) == claimAcked {
			return false, nil
		}
		member, deadline, ok := parseClaim(raw)
		if ok && (now.After(deadline) || !s.hbAlive(ctx, member, now)) {
			// Expired lease, or a live lease whose holder's key is gone
			// (hbAlive re-reads it fresh before that verdict). Reclaim with
			// a CAS against the exact stale record, so two reclaimers can
			// never both win.
			if win, err = kvstore.CAS(ctx, s.b.client, key, raw, record); err != nil {
				return false, err
			}
			reclaimed = win
		} else {
			s.trackLease(raw, now)
		}
	}
	if !win {
		return false, nil
	}
	// The claim record is on the server now; the floor guard and its undo
	// must run even if the caller's context just expired (a Next deadline
	// dying between the CAS and here), or a fresh claim on an already-
	// swept slot is stranded below the floor where no sweep revisits it.
	guardCtx := context.WithoutCancel(ctx)
	cur, err := s.b.counter(guardCtx, kvGroupFloorKey(s.topic, s.group))
	if err != nil {
		return false, err
	}
	if i < cur {
		kvstore.Del(guardCtx, s.b.client, key)
		return false, nil
	}
	if s.claimed == nil {
		s.claimed = make(map[uint64][]byte)
	}
	s.claimed[i] = record
	if reclaimed {
		s.b.mReclaims.Inc()
	} else {
		s.b.mClaims.Inc()
	}
	return true, nil
}

// waitTimeout returns the bound for one blocking wait: kvWaitRound, capped
// just past the earliest live claim deadline the member has seen. Lease
// expiry produces no server write, so only this cap makes reclamation
// after a member crash happen on lease time — with no server-side timers.
func (s *kvGroupSub) waitTimeout() time.Duration {
	timeout := kvWaitRound
	if !s.nextLease.IsZero() {
		if until := time.Until(s.nextLease) + 2*time.Millisecond; until < timeout {
			timeout = until
		}
	}
	if timeout < time.Millisecond {
		timeout = time.Millisecond
	}
	return timeout
}

// park blocks until new work may exist for this member. The watch is the
// narrowest possible: one WaitGet on the first unfilled log slot (the
// only place claimable work can appear), whose filling write delivers the
// event in the wait's own reply — the member then claims it directly,
// with no rescan, and a member that loses the claim race just advances
// its watch to the next slot, still without rescanning. Peer claims,
// settles and floor sweeps never wake a parked member. The exception is a
// withheld End marker (endPending): its barrier clears on a claim
// settling, so the watch widens to a WaitPrefix over the whole topic.
//
// Returns ok=true with a claimed event, or ok=false when the caller must
// rescan: a wait round lapsed (lease expiry → reclamation), the watched
// slot was already collected by a trim (peers consumed it, and the group
// floor passed it, before the wait arrived; the server answers such a
// wait at once), or a delivered End or endPending wake (the barrier logic
// lives in scan).
func (s *kvGroupSub) park(ctx context.Context) (Event, bool, error) {
	parkSlot := s.parkSlot
	for {
		if s.endPending {
			seq, err := s.b.client.WaitPrefix(ctx, kvTopicPrefix(s.topic), s.lastSeq, s.waitTimeout())
			if err != nil {
				return Event{}, false, err
			}
			s.lastSeq = seq
			return Event{}, false, nil
		}
		raw, ok, err := s.b.client.WaitGet(ctx, kvEventKey(s.topic, parkSlot), s.waitTimeout())
		if err != nil {
			return Event{}, false, err
		}
		if !ok {
			return Event{}, false, nil // wait round lapsed, or slot collected
		}
		ev, _, err := decodeAt(raw, parkSlot)
		if err != nil {
			return Event{}, false, err
		}
		if ev.End {
			return Event{}, false, nil
		}
		won, err := s.tryClaim(ctx, parkSlot, nil, false)
		if err != nil {
			return Event{}, false, err
		}
		if won {
			s.b.observeDeliver(ev)
			return ev, true, nil
		}
		parkSlot++ // a peer holds it; watch the next slot
	}
}

// Next implements Subscription. An empty scan parks in a blocking wait
// (see park) instead of polling: an idle member costs O(1) commands
// regardless of how long it idles, wakes carry the triggering event, and
// an append burst is consumed claim-by-claim without rescans.
func (s *kvGroupSub) Next(ctx context.Context) (Event, error) {
	for {
		ev, ok, err := s.scan(ctx, false)
		if err != nil || ok {
			return ev, err
		}
		ev, ok, err = s.park(ctx)
		if err != nil || ok {
			return ev, err
		}
	}
}

// Poll implements Subscription: one scan pass, no waiting.
func (s *kvGroupSub) Poll(ctx context.Context) (Event, bool, error) {
	return s.scan(ctx, false)
}

// Ack implements Subscription: settle the claim by CASing the exact claim
// record to the acked marker, then bump the topic-level ack counter once
// for the whole group. The record is the one tryClaim remembered writing,
// so a live claim settles in two commands, CAS and INCR. Only when that
// CAS loses (or nothing is remembered) does Ack read the record: a stale
// ack — the record was reclaimed (different member) or already settled —
// reports the current count without inflating it, so a redelivered event
// is never double-counted.
func (s *kvGroupSub) Ack(ctx context.Context, ev Event) (int, error) {
	if err := s.flushPendingIncr(ctx); err != nil {
		return 0, err
	}
	key := kvClaimKey(s.topic, s.group, ev.Offset)
	win := false
	if record, ok := s.claimed[ev.Offset]; ok {
		delete(s.claimed, ev.Offset)
		var err error
		if win, err = kvstore.CAS(ctx, s.b.client, key, record, []byte(claimAcked)); err != nil {
			return 0, err
		}
	}
	if !win {
		stale := func() (int, error) {
			n, err := s.b.ackCount(ctx, s.topic, ev.Offset)
			return int(n), err
		}
		raw, held, err := kvstore.Get(ctx, s.b.client, key)
		if err != nil {
			return 0, err
		}
		if !held || string(raw) == claimAcked {
			// Settled (possibly by us, possibly GC'd below the floor).
			return stale()
		}
		member, _, ok := parseClaim(raw)
		if !ok || member != s.member {
			return stale()
		}
		if win, err = kvstore.CAS(ctx, s.b.client, key, raw, []byte(claimAcked)); err != nil {
			return 0, err
		}
		if !win {
			return stale() // reclaimed between the Get and the CAS
		}
	}
	n, err := kvstore.Incr(ctx, s.b.client, kvAckKey(s.topic, ev.Offset))
	if err != nil {
		// The claim is settled but the count is owed: a retried Ack would
		// take the stale() path and never increment, so remember the debt
		// and repay it on the next call.
		s.pendingIncr = append(s.pendingIncr, ev.Offset)
		return 0, fmt.Errorf("pstream: counting group ack: %w", err)
	}
	return int(n), nil
}

// Close implements Subscription. A closing scan sweeps the group floor
// past the member's last acks and trims the topic, so a drained queue
// leaves no slots behind; the group stays registered. Unacked claims are
// abandoned to other members at once: the clean membership leave deletes
// the heartbeat key their records point peers at.
func (s *kvGroupSub) Close() error {
	s.scan(context.Background(), true)
	s.claimed = nil
	return s.hb.Leave(context.Background())
}

// GroupHeartbeat returns the membership heartbeat of a KVBroker group
// subscription, or nil for other subscriptions.
// Callers use it to observe self-fencing (Fenced) — and tests use its Kill
// hook to simulate member crashes without killing processes.
func GroupHeartbeat(sub Subscription) *Heartbeat {
	if s, ok := sub.(*kvGroupSub); ok {
		return s.hb
	}
	return nil
}
