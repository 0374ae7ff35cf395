package pstream_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
)

// newMembershipBroker spins up a kvstore server and a heartbeat-enabled
// KVBroker over it, returning both plus the broker's membership handle for
// a fresh topic/group.
func newMembershipBroker(t *testing.T, ttl time.Duration) (*kvstore.Server, *pstream.KVBroker, *pstream.Membership) {
	t.Helper()
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	b := pstream.NewKV(srv.Addr(), pstream.WithKVHeartbeat(ttl))
	t.Cleanup(func() { b.Close() })
	return srv, b, b.Membership("mtopic", "mgroup")
}

func TestMembershipJoinLiveLeave(t *testing.T) {
	ctx := context.Background()
	_, _, m := newMembershipBroker(t, 500*time.Millisecond)

	ha, err := m.Join(ctx, "alice")
	if err != nil {
		t.Fatalf("Join(alice): %v", err)
	}
	hb, err := m.Join(ctx, "bob")
	if err != nil {
		t.Fatalf("Join(bob): %v", err)
	}
	live, err := m.Live(ctx)
	if err != nil {
		t.Fatalf("Live: %v", err)
	}
	if len(live) != 2 {
		t.Fatalf("Live = %v, want [alice bob]", live)
	}

	if err := ha.Leave(ctx); err != nil {
		t.Fatalf("Leave(alice): %v", err)
	}
	live, err = m.Live(ctx)
	if err != nil {
		t.Fatalf("Live after leave: %v", err)
	}
	if len(live) != 1 || live[0] != "bob" {
		t.Fatalf("Live after leave = %v, want [bob]", live)
	}
	if err := hb.Leave(ctx); err != nil {
		t.Fatalf("Leave(bob): %v", err)
	}
	live, err = m.Live(ctx)
	if err != nil || len(live) != 0 {
		t.Fatalf("Live after all leave = %v, %v; want empty", live, err)
	}
}

func TestMembershipHeartbeatKeepsMemberAliveAndKillExpires(t *testing.T) {
	// The heartbeater must refresh well past the initial TTL stamp; once
	// killed, the member must read as dead within one TTL and Reap must
	// collect its keys.
	ctx := context.Background()
	const ttl = 200 * time.Millisecond
	_, _, m := newMembershipBroker(t, ttl)

	h, err := m.Join(ctx, "worker")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	// Across 3 TTLs of wall time the member stays live only if refreshes
	// are landing.
	deadline := time.Now().Add(3 * ttl)
	for time.Now().Before(deadline) {
		live, err := m.Live(ctx)
		if err != nil {
			t.Fatalf("Live: %v", err)
		}
		if len(live) != 1 {
			t.Fatalf("member died while heartbeating: Live = %v", live)
		}
		time.Sleep(ttl / 4)
	}

	h.Kill() // simulated crash: no cleanup
	time.Sleep(ttl + 50*time.Millisecond)
	dead, err := m.Reap(ctx)
	if err != nil {
		t.Fatalf("Reap: %v", err)
	}
	if len(dead) != 1 || dead[0] != "worker" {
		t.Fatalf("Reap = %v, want [worker]", dead)
	}
	live, err := m.Live(ctx)
	if err != nil || len(live) != 0 {
		t.Fatalf("Live after reap = %v, %v; want empty", live, err)
	}
}

func TestMembershipWatchWakesOnJoin(t *testing.T) {
	// Watch parks in the server's WAITPREFIX; a join must wake it without
	// waiting out the timeout.
	ctx := context.Background()
	_, _, m := newMembershipBroker(t, time.Second)

	woke := make(chan error, 1)
	go func() {
		_, err := m.Watch(ctx, 0, 5*time.Second)
		woke <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the watch park

	start := time.Now()
	h, err := m.Join(ctx, "joiner")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	t.Cleanup(func() { h.Leave(ctx) })
	select {
	case err := <-woke:
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		if since := time.Since(start); since > 2*time.Second {
			t.Fatalf("Watch woke after %v — timed out instead of waking on the join", since)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Watch never returned after a join")
	}
}

func TestMembershipSelfFencesWhenServerDies(t *testing.T) {
	// A member that cannot refresh past its own stamped deadline must
	// self-fence (stop claiming new work) instead of running as a zombie
	// whose claims peers are already stealing.
	ctx := context.Background()
	const ttl = 200 * time.Millisecond
	srv, _, m := newMembershipBroker(t, ttl)

	h, err := m.Join(ctx, "fenceme")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if h.Fenced() {
		t.Fatal("fenced immediately after a successful join")
	}
	srv.Close() // refreshes now fail
	deadline := time.Now().Add(3 * time.Second)
	for !h.Fenced() {
		if time.Now().After(deadline) {
			t.Fatal("member never self-fenced after the server died")
		}
		time.Sleep(20 * time.Millisecond)
	}
	h.Kill()
}

// stallingKV holds SETs of the keys under prefix while stall is set: the
// write neither lands nor fails, the way a heartbeat refresh queued behind
// a saturated command pool behaves. A held SET whose context ends is
// passed on to the wrapped client, which answers it.
type stallingKV struct {
	kvstore.KV
	prefix  string
	stall   atomic.Bool
	release chan struct{}
}

func (s *stallingKV) Do(ctx context.Context, name string, args ...[]byte) kvstore.PipeReply {
	if name == "SET" && strings.HasPrefix(string(args[0]), s.prefix) && s.stall.Load() {
		select {
		case <-s.release:
		case <-ctx.Done():
		}
	}
	return s.KV.Do(ctx, name, args...)
}

func TestMembershipFencesWhenRefreshStallsWithoutError(t *testing.T) {
	// A refresher that is only late never sees an error, yet its peers
	// read it as dead once its stamped deadline passes. It must fence
	// before that, from its own last stamped deadline, and unfence once a
	// refresh lands again.
	ctx := context.Background()
	const ttl = 300 * time.Millisecond
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	kv := &stallingKV{prefix: "ps:m.stall:g:h:slow", release: make(chan struct{})}
	b := pstream.NewKV(srv.Addr(), pstream.WithKVHeartbeat(ttl),
		pstream.WithKVWrap(func(inner kvstore.KV) kvstore.KV { kv.KV = inner; return kv }))
	t.Cleanup(func() { b.Close() })

	h, err := b.Membership("stall", "g").Join(ctx, "slow")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	defer h.Kill()
	if h.Fenced() {
		t.Fatal("fenced immediately after a successful join")
	}
	kv.stall.Store(true)
	stalled := time.Now()
	for !h.Fenced() {
		if time.Since(stalled) > ttl {
			t.Fatalf("member still unfenced %v after its refreshes stalled (ttl %v)", time.Since(stalled), ttl)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(kv.release)
	released := time.Now()
	for h.Fenced() {
		if time.Since(released) > ttl {
			t.Fatal("fence did not lift after refreshes landed again")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMembershipSizerFeedsEvictSizer(t *testing.T) {
	// Producers size evict-on-ack from the live-member count: with two
	// live members the event carries threshold 2; with none the policy is
	// off (no attr) instead of guessing.
	ctx := context.Background()
	_, b, m := newMembershipBroker(t, time.Second)
	st := newLocalStore(t)

	h1, err := m.Join(ctx, "c1")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	h2, err := m.Join(ctx, "c2")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}

	// maxAge 1ns: re-read the roster on every call so the test sees
	// membership changes immediately.
	prod := pstream.NewProducer[int](st, b, "sized", pstream.WithEvictSizer(m.Sizer(time.Nanosecond)))
	if err := prod.Send(ctx, 1, nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	sub, err := b.Subscribe(ctx, "sized", "obs")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()
	ev, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got := ev.Attr("ps.evict_after"); got != "2" {
		t.Fatalf("evict_after attr = %q, want \"2\" (two live members)", got)
	}

	if err := h1.Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if err := h2.Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if err := prod.Send(ctx, 2, nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	ev, err = sub.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got := ev.Attr("ps.evict_after"); got != "" {
		t.Fatalf("evict_after attr = %q with no live members, want unset", got)
	}
}
