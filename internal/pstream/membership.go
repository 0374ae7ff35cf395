package pstream

// Liveness and membership for fleets of short-lived clients, built on the
// same kvstore primitives as the broker itself: each member runs a
// heartbeater that refreshes a deadline-stamped key, liveness is "the
// stamped deadline has not passed", and the member list is a CAS-maintained
// roster key (the kv surface has no key enumeration, so the roster is how
// one MGET can read every heartbeat). Layout, per topic T and group G:
//
//	ps:m.T:G:r          roster: member names joined by "\n" ("-" when empty)
//	ps:m.T:G:h:<member> heartbeat: the member's deadline (UnixNano, decimal)
//
// The roster key is never deleted — an empty roster holds the "-"
// tombstone — because the kv CAS treats an empty expected value as "key
// must not exist": deleting the key on last-leave would race a concurrent
// join's create-CAS.
//
// Consumers of the layer: group subscriptions under WithKVHeartbeat treat
// an expired heartbeat as early lease reclamation (a crashed member's
// claims are stolen in O(heartbeat) instead of O(lease)); the task planes
// (faas, colmena) reclaim the result futures of clients that are no longer
// live (TaskWorkers.SweepResults), reaping the dead and judging with the
// live set in one pass; and producers size evict-on-ack from Sizer's
// live-member count.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/kvstore"
)

// DefaultHeartbeatTTL is the liveness window used when WithKVHeartbeat is
// not given an explicit TTL: a member whose heartbeat key is older than
// this is presumed dead. Refreshes run at a third of the TTL, so a member
// survives two missed refreshes before peers act on its death.
const DefaultHeartbeatTTL = 3 * time.Second

// rosterEmpty is the tombstone value of a roster with no members. It keeps
// the key present (see the package comment on CAS create semantics) while
// parsing to zero members.
const rosterEmpty = "-"

// rosterCASAttempts bounds the CAS retry loop on the roster key; every
// retry means another member just joined or left, so sustained failure is
// pathological churn, not contention to wait out politely.
const rosterCASAttempts = 32

func kvMemberPrefix(topic, group string) string { return "ps:m." + topic + ":" + group + ":" }
func kvRosterKey(topic, group string) string    { return kvMemberPrefix(topic, group) + "r" }
func kvHeartbeatKey(topic, group, member string) string {
	return kvMemberPrefix(topic, group) + "h:" + member
}

// Membership is a handle on one (topic, group) liveness domain. Handles
// are cheap views over the broker's clients; any number may exist for the
// same domain across processes.
type Membership struct {
	b     *KVBroker
	topic string
	group string
	ttl   time.Duration

	// sizer cache (see Sizer).
	szMu   sync.Mutex
	szN    int
	szWhen time.Time
}

// Membership returns the liveness domain for topic and group, with the
// broker's heartbeat TTL (WithKVHeartbeat, or DefaultHeartbeatTTL).
func (b *KVBroker) Membership(topic, group string) *Membership {
	ttl := b.hbTTL
	if ttl <= 0 {
		ttl = DefaultHeartbeatTTL
	}
	return &Membership{b: b, topic: topic, group: group, ttl: ttl}
}

// rosterParse decodes a roster value into member names.
func rosterParse(raw []byte) []string {
	s := string(raw)
	if s == "" || s == rosterEmpty {
		return nil
	}
	return strings.Split(s, "\n")
}

// rosterEncode is the inverse of rosterParse.
func rosterEncode(names []string) []byte {
	if len(names) == 0 {
		return []byte(rosterEmpty)
	}
	return []byte(strings.Join(names, "\n"))
}

// roster reads the current member list (live and dead alike).
func (m *Membership) roster(ctx context.Context) ([]string, error) {
	raw, _, err := kvstore.Get(ctx, m.b.client, kvRosterKey(m.topic, m.group))
	if err != nil {
		return nil, fmt.Errorf("pstream: reading member roster: %w", err)
	}
	return rosterParse(raw), nil
}

// rosterEdit applies edit to the member list under a CAS loop. edit
// returns the new list and whether anything changed.
func (m *Membership) rosterEdit(ctx context.Context, edit func([]string) ([]string, bool)) error {
	key := kvRosterKey(m.topic, m.group)
	for attempt := 0; attempt < rosterCASAttempts; attempt++ {
		raw, _, err := kvstore.Get(ctx, m.b.client, key)
		if err != nil {
			return fmt.Errorf("pstream: reading member roster: %w", err)
		}
		names, changed := edit(rosterParse(raw))
		if !changed {
			return nil
		}
		ok, err := kvstore.CAS(ctx, m.b.client, key, raw, rosterEncode(names))
		if err != nil {
			return fmt.Errorf("pstream: updating member roster: %w", err)
		}
		if ok {
			return nil
		}
	}
	return errors.New("pstream: member roster contention: CAS attempts exhausted")
}

func rosterAdd(names []string, member string) ([]string, bool) {
	for _, n := range names {
		if n == member {
			return names, false
		}
	}
	names = append(names, member)
	sort.Strings(names)
	return names, true
}

func rosterRemove(names []string, members map[string]bool) ([]string, bool) {
	kept := names[:0]
	for _, n := range names {
		if !members[n] {
			kept = append(kept, n)
		}
	}
	return kept, len(kept) != len(names)
}

// Join registers member in the domain and starts its heartbeater: a
// background goroutine that refreshes the member's deadline-stamped key at
// a third of the TTL, retrying failures with capped exponential backoff
// plus jitter. A member whose refreshes stop landing — failing, or merely
// late — self-fences a third of a TTL before its stamped deadline: Fenced
// flips true, and group subscriptions carrying the heartbeat stop claiming
// new work, so a partitioned or starved member degrades to idle before its
// peers can believe it dead; the fence lifts on the next landed refresh.
// Stop the heartbeater with Leave (clean departure) or abandon it with
// Kill (simulated crash).
func (m *Membership) Join(ctx context.Context, member string) (*Heartbeat, error) {
	if member == "" || strings.Contains(member, "\n") {
		return nil, fmt.Errorf("pstream: invalid member name %q", member)
	}
	h := &Heartbeat{m: m, member: member, done: make(chan struct{})}
	deadline := time.Now().Add(m.ttl)
	if err := kvstore.Set(ctx, m.b.client, kvHeartbeatKey(m.topic, m.group, member),
		stampDeadline(deadline)); err != nil {
		return nil, fmt.Errorf("pstream: writing heartbeat: %w", err)
	}
	if err := m.rosterEdit(ctx, func(names []string) ([]string, bool) {
		return rosterAdd(names, member)
	}); err != nil {
		kvstore.Del(context.WithoutCancel(ctx), m.b.client, kvHeartbeatKey(m.topic, m.group, member))
		return nil, err
	}
	h.deadline.Store(deadline.UnixNano())
	hctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	go h.run(hctx)
	return h, nil
}

func stampDeadline(t time.Time) []byte {
	return []byte(strconv.FormatInt(t.UnixNano(), 10))
}

// parseDeadline decodes a heartbeat value; ok is false for a corrupt one.
func parseDeadline(raw []byte) (time.Time, bool) {
	nanos, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return time.Time{}, false
	}
	return time.Unix(0, nanos), true
}

// Live reads the domain's live members with two commands — one roster GET,
// one MGET over every member's heartbeat key — filtering out members whose
// stamped deadline has passed (dead, but not yet reaped). It also feeds
// the ps.members gauge.
func (m *Membership) Live(ctx context.Context) ([]string, error) {
	live, _, err := m.split(ctx)
	if err != nil {
		return nil, err
	}
	return live, nil
}

// split partitions the roster into live and dead members.
func (m *Membership) split(ctx context.Context) (live, dead []string, err error) {
	names, err := m.roster(ctx)
	if err != nil {
		return nil, nil, err
	}
	if len(names) == 0 {
		m.b.mMembers.Set(0)
		return nil, nil, nil
	}
	keys := make([]string, len(names))
	for i, n := range names {
		keys[i] = kvHeartbeatKey(m.topic, m.group, n)
	}
	raws, err := kvstore.MGet(ctx, m.b.client, keys...)
	if err != nil {
		return nil, nil, fmt.Errorf("pstream: reading heartbeats: %w", err)
	}
	now := time.Now()
	for i, raw := range raws {
		if deadline, ok := parseDeadline(raw); raw != nil && ok && deadline.After(now) {
			live = append(live, names[i])
		} else {
			// Missing key (reaped, or a torn join), corrupt stamp, or an
			// expired deadline: all dead.
			dead = append(dead, names[i])
		}
	}
	m.b.mMembers.Set(int64(len(live)))
	return live, dead, nil
}

// Watch parks in one server-side WaitPrefix over the domain's keyspace
// until a membership write (join, heartbeat refresh, leave, reap) newer
// than after lands, or timeout lapses. It returns the server mutation
// sequence to pass to the next Watch, so callers observe every change
// exactly once. Note that heartbeat refreshes wake watchers too: Watch is
// "membership state may have changed", not an edge-triggered join/leave
// signal — re-read Live and diff.
func (m *Membership) Watch(ctx context.Context, after uint64, timeout time.Duration) (uint64, error) {
	return m.b.client.WaitPrefix(ctx, kvMemberPrefix(m.topic, m.group), after, timeout)
}

// Reap deletes dead members — expired or missing heartbeats — from the
// domain: their heartbeat keys are removed and the roster is pruned.
// Returns the reaped names. Reaping is cooperative garbage collection, not
// required for correctness: Live filters dead members regardless.
func (m *Membership) Reap(ctx context.Context) ([]string, error) {
	_, dead, err := m.cull(ctx)
	return dead, err
}

// cull is Reap plus the live view in one pass: the dead are reaped, the
// live are returned. The task planes' result sweep runs on it.
func (m *Membership) cull(ctx context.Context) (live, dead []string, err error) {
	live, dead, err = m.split(ctx)
	if err != nil || len(dead) == 0 {
		return live, dead, err
	}
	gone := make(map[string]bool, len(dead))
	keys := make([]string, 0, len(dead))
	for _, n := range dead {
		gone[n] = true
		keys = append(keys, kvHeartbeatKey(m.topic, m.group, n))
	}
	if _, err := kvstore.Del(ctx, m.b.client, keys...); err != nil {
		return live, nil, fmt.Errorf("pstream: reaping heartbeats: %w", err)
	}
	if err := m.rosterEdit(ctx, func(names []string) ([]string, bool) {
		return rosterRemove(names, gone)
	}); err != nil {
		return live, nil, err
	}
	return live, dead, nil
}

// Sizer returns a live-member-count function suitable for
// WithEvictSizer: producers publishing to a fleet-consumed fan-out topic
// size the evict-on-ack threshold from it instead of a hand-counted
// constant. Counts are cached for maxAge (the heartbeat TTL when zero —
// without a floor, every Send would read the roster); while the count
// is unknown — first call failing, no live members — it reports 0, which
// WithEvictSizer treats as "policy off for this event" rather than
// guessing a threshold that would evict too early.
func (m *Membership) Sizer(maxAge time.Duration) func() int {
	if maxAge <= 0 {
		maxAge = m.ttl
	}
	return func() int {
		m.szMu.Lock()
		defer m.szMu.Unlock()
		if !m.szWhen.IsZero() && time.Since(m.szWhen) < maxAge {
			return m.szN
		}
		ctx, cancel := context.WithTimeout(context.Background(), m.ttl)
		live, err := m.Live(ctx)
		cancel()
		if err != nil {
			// Keep the stale count briefly rather than flapping the policy;
			// a dead server fences the producer's publishes anyway.
			return m.szN
		}
		m.szN, m.szWhen = len(live), time.Now()
		return m.szN
	}
}

// Heartbeat is one member's running registration: a background refresher
// plus the self-fencing state group subscriptions consult before claiming
// work.
type Heartbeat struct {
	m      *Membership
	member string
	// deadline is the last successfully stamped deadline (UnixNano); Fenced
	// is judged from it alone.
	deadline atomic.Int64
	cancel   context.CancelFunc
	done     chan struct{}
	stopOnce sync.Once
}

// Fenced reports whether the member is self-fenced: its last landed
// refresh stamped a deadline that is now less than ttl/3 away (or past),
// so peers may soon read it as dead and steal its claims, and it must not
// take new work. Refreshes are jittered within [ttl/6, ttl/2) of the
// previous one, so an on-time member never trips the fence; a refresh
// that is only late — its SET queued behind a busy command pool, never
// erroring — fences exactly like a failing one. The fence lifts when a
// refresh lands.
func (h *Heartbeat) Fenced() bool {
	return time.Now().UnixNano() >= h.deadline.Load()-int64(h.m.ttl/3)
}

// run is the refresher: stamp a fresh deadline every ttl/3, with capped
// exponential backoff plus jitter on errors.
func (h *Heartbeat) run(ctx context.Context) {
	defer close(h.done)
	m := h.m
	interval := m.ttl / 3
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	key := kvHeartbeatKey(m.topic, m.group, h.member)
	delay := interval
	for {
		jittered := delay/2 + time.Duration(rand.Int63n(int64(delay)))
		select {
		case <-ctx.Done():
			return
		case <-time.After(jittered):
		}
		deadline := time.Now().Add(m.ttl)
		err := kvstore.Set(ctx, m.b.client, key, stampDeadline(deadline))
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Backoff caps at the TTL: past that the member is fenced and
			// retries are pure recovery probes.
			if delay *= 2; delay > m.ttl {
				delay = m.ttl
			}
			continue
		}
		h.deadline.Store(deadline.UnixNano())
		delay = interval
	}
}

// stop halts the refresher goroutine.
func (h *Heartbeat) stop() {
	h.stopOnce.Do(func() {
		h.cancel()
		<-h.done
	})
}

// Leave is the clean departure: the refresher stops, the heartbeat key is
// deleted, and the roster is pruned, so peers observe the leave
// immediately instead of after a TTL.
func (h *Heartbeat) Leave(ctx context.Context) error {
	h.stop()
	m := h.m
	if _, err := kvstore.Del(ctx, m.b.client, kvHeartbeatKey(m.topic, m.group, h.member)); err != nil {
		return fmt.Errorf("pstream: deleting heartbeat: %w", err)
	}
	return m.rosterEdit(ctx, func(names []string) ([]string, bool) {
		return rosterRemove(names, map[string]bool{h.member: true})
	})
}

// Kill abandons the heartbeat without any cleanup — the refresher stops
// but the heartbeat key and roster entry stay, exactly as a crashed
// process would leave them. Peers then observe the member's death when the
// stamped deadline passes. It exists so tests and benches can simulate
// member crashes without killing processes.
func (h *Heartbeat) Kill() { h.stop() }
