package pstream

// Liveness and membership for fleets of short-lived clients, on the kv
// server's expiring keys: a member is alive while its heartbeat key
// ps:m.T:G:h:<member> exists, for topic T and group G. The server expires
// the key ttl after its last refresh, on its own clock, so no member's
// clock is compared with another's. Liveness is always on: every KVBroker
// group member and task client heartbeats, group scans take a claim early
// once its holder's key is gone, and the task planes reclaim the result
// futures of clients that are not live (TaskWorkers.SweepResults).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/kvstore"
)

// DefaultHeartbeatTTL is a KVBroker's liveness window unless
// WithKVHeartbeatTTL sets another: the server deletes a heartbeat key this
// long after its last refresh. Refreshes run at a third of the TTL, so a
// member survives two missed refreshes before peers act on its death.
const DefaultHeartbeatTTL = 3 * time.Second

// heartbeatVal is every heartbeat key's value: only presence counts.
var heartbeatVal = []byte("1")

func kvHeartbeatPrefix(topic, group string) string { return "ps:m." + topic + ":" + group + ":h:" }
func kvHeartbeatKey(topic, group, member string) string {
	return kvHeartbeatPrefix(topic, group) + member
}

// Membership is a handle on one (topic, group) liveness domain. Handles
// are cheap views over the broker's clients; any number may exist for the
// same domain across processes.
type Membership struct {
	b     *KVBroker
	topic string
	group string
	ttl   time.Duration
}

// Membership returns the liveness domain for topic and group, with the
// broker's heartbeat TTL.
func (b *KVBroker) Membership(topic, group string) *Membership {
	return &Membership{b: b, topic: topic, group: group, ttl: b.HeartbeatTTL()}
}

// Join registers member in the domain with one PSETEX and starts its
// heartbeater, which refreshes the key with one PEXPIRE every ttl/3 (with
// capped exponential backoff plus jitter on errors). A refresh that finds
// the key gone means the member lapsed, and peers may have read it as
// dead: it re-joins with PSETEX and counts the lapse. Stop the heartbeater
// with Leave (clean departure) or abandon it with Kill (simulated crash);
// the broker's Close stops it as Kill does.
func (m *Membership) Join(ctx context.Context, member string) (*Heartbeat, error) {
	if member == "" {
		return nil, fmt.Errorf("pstream: invalid member name %q", member)
	}
	h := &Heartbeat{m: m, key: kvHeartbeatKey(m.topic, m.group, member), epoch: time.Now(), done: make(chan struct{})}
	if err := kvstore.PSetEx(ctx, m.b.client, h.key, m.ttl, heartbeatVal); err != nil {
		return nil, fmt.Errorf("pstream: writing heartbeat: %w", err)
	}
	b := m.b
	b.hbMu.Lock()
	defer b.hbMu.Unlock()
	if b.hbs == nil {
		return nil, fmt.Errorf("pstream: broker closed")
	}
	b.hbs[h] = struct{}{}
	hctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	go h.run(hctx)
	return h, nil
}

// Live lists the domain's live members: the heartbeat keys present, with
// one KEYS. It also feeds the ps.members gauge.
func (m *Membership) Live(ctx context.Context) ([]string, error) {
	prefix := kvHeartbeatPrefix(m.topic, m.group)
	keys, err := kvstore.Keys(ctx, m.b.client, prefix)
	if err != nil {
		return nil, fmt.Errorf("pstream: listing heartbeats: %w", err)
	}
	for i, k := range keys {
		keys[i] = k[len(prefix):]
	}
	m.b.mMembers.Set(int64(len(keys)))
	return keys, nil
}

// Heartbeat is one member's running registration: a background refresher
// plus the self-fencing state group subscriptions consult before claiming
// work.
type Heartbeat struct {
	m   *Membership
	key string
	// epoch anchors sent on the member's monotonic clock; sent is the time
	// since epoch at which the last refresh that landed was sent.
	epoch    time.Time
	sent     atomic.Int64
	lapses   atomic.Int64
	cancel   context.CancelFunc
	done     chan struct{}
	stopOnce sync.Once
}

// Fenced reports whether the member is self-fenced: ttl − ttl/3 has
// passed on its own monotonic clock since it sent its last refresh that
// landed, so the server may soon expire its key, and group subscriptions
// carrying it take no new work. Refreshes come every [ttl/6, ttl/2), so an
// on-time member never trips the fence; one that is only late fences like
// a failing one. The fence lifts when a refresh lands.
func (h *Heartbeat) Fenced() bool {
	ttl := h.m.ttl
	return time.Since(h.epoch)-time.Duration(h.sent.Load()) >= ttl-ttl/3
}

// Lapses reports how many times the member found its heartbeat key
// expired and re-joined. Peers may have read it as dead in between: swept
// its futures, or taken its claims.
func (h *Heartbeat) Lapses() int64 { return h.lapses.Load() }

// run is the refresher: one PEXPIRE every ttl/3, a PSETEX re-join when the
// key lapsed, with capped exponential backoff plus jitter on errors.
func (h *Heartbeat) run(ctx context.Context) {
	defer close(h.done)
	m := h.m
	interval := max(m.ttl/3, 5*time.Millisecond)
	delay := interval
	for {
		jittered := delay/2 + time.Duration(rand.Int63n(int64(delay)))
		select {
		case <-ctx.Done():
			return
		case <-time.After(jittered):
		}
		sent := time.Since(h.epoch)
		alive, err := kvstore.PExpire(ctx, m.b.client, h.key, m.ttl)
		if err == nil && !alive {
			if err = kvstore.PSetEx(ctx, m.b.client, h.key, m.ttl, heartbeatVal); err == nil {
				h.lapses.Add(1)
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Backoff caps at the TTL: past that the member is fenced and
			// retries are pure recovery probes.
			delay = min(2*delay, m.ttl)
			continue
		}
		h.sent.Store(int64(sent))
		delay = interval
	}
}

// stop halts the refresher goroutine and drops it from the broker's
// running set.
func (h *Heartbeat) stop() {
	h.stopOnce.Do(func() {
		h.cancel()
		<-h.done
		b := h.m.b
		b.hbMu.Lock()
		delete(b.hbs, h)
		b.hbMu.Unlock()
	})
}

// Leave is the clean departure: the refresher stops and the heartbeat key
// is deleted, so peers observe the leave at once instead of after a TTL.
func (h *Heartbeat) Leave(ctx context.Context) error {
	h.stop()
	if _, err := kvstore.Del(ctx, h.m.b.client, h.key); err != nil {
		return fmt.Errorf("pstream: deleting heartbeat: %w", err)
	}
	return nil
}

// Kill abandons the heartbeat without any cleanup — the refresher stops
// and the key stays, exactly as a crashed process would leave it, until
// the server expires it a TTL after its last refresh. It exists so tests
// and benches can simulate member crashes without killing processes.
func (h *Heartbeat) Kill() { h.stop() }
