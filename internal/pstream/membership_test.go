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

// newMembershipBroker spins up a kvstore server and a KVBroker over it
// whose heartbeats run under ttl, returning both plus the broker's
// membership handle for a fresh topic/group.
func newMembershipBroker(t *testing.T, ttl time.Duration) (*kvstore.Server, *pstream.KVBroker, *pstream.Membership) {
	t.Helper()
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	b := pstream.NewKV(srv.Addr(), pstream.WithKVHeartbeatTTL(ttl))
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
	// The heartbeater must refresh well past the initial TTL; once killed,
	// the member must leave Live, and its key the server, within one TTL
	// plus a margin, with no client action: the server expires it.
	ctx := context.Background()
	const ttl = 200 * time.Millisecond
	srv, _, m := newMembershipBroker(t, ttl)
	cli := kvstore.NewClient(srv.Addr())
	t.Cleanup(func() { cli.Close() })

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
		if len(live) != 1 || live[0] != "worker" {
			t.Fatalf("member died while heartbeating: Live = %v", live)
		}
		time.Sleep(ttl / 4)
	}

	h.Kill() // simulated crash: no cleanup
	killed := time.Now()
	for {
		live, err := m.Live(ctx)
		if err != nil {
			t.Fatalf("Live: %v", err)
		}
		n, err := cli.DBSize(ctx)
		if err != nil {
			t.Fatalf("DBSize: %v", err)
		}
		if len(live) == 0 && n == 0 {
			break
		}
		if time.Since(killed) > ttl+500*time.Millisecond {
			t.Fatalf("%v after Kill: Live = %v, %d server keys; want both empty", time.Since(killed), live, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h.Lapses() != 0 {
		t.Fatalf("Lapses = %d while heartbeating on time, want 0", h.Lapses())
	}
}

func TestMembershipSelfFencesWhenServerDies(t *testing.T) {
	// A member whose refreshes cannot reach the server must self-fence
	// (stop claiming new work) instead of running as a zombie whose claims
	// peers are already stealing.
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

// stallingKV holds every command on a key under prefix while stall is
// set: the command neither lands nor fails, the way a heartbeat refresh
// queued behind a saturated command pool behaves. A held command whose
// context ends is passed on to the wrapped client, which answers it.
type stallingKV struct {
	kvstore.KV
	prefix  string
	stall   atomic.Bool
	release chan struct{}
}

func (s *stallingKV) Do(ctx context.Context, name string, args ...[]byte) kvstore.PipeReply {
	if s.stall.Load() && s.holds(name, args) {
		select {
		case <-s.release:
		case <-ctx.Done():
		}
	}
	return s.KV.Do(ctx, name, args...)
}

// holds reports whether a key argument of the command lies under prefix.
// A KEYS prefix is not a key: listing members is never held.
func (s *stallingKV) holds(name string, args [][]byte) bool {
	cmd, ok := kvstore.LookupCommand(name)
	if !ok || cmd.CheckArgs(args) != nil {
		return false
	}
	for _, k := range cmd.Keys(args) {
		if strings.HasPrefix(string(k), s.prefix) {
			return true
		}
	}
	return false
}

func TestMembershipFencesWhenRefreshStallsWithoutError(t *testing.T) {
	// A refresher that is only late never sees an error, yet the server
	// expires its key a TTL after its last landed refresh. It must fence
	// before that, on its own clock, and unfence once a refresh lands
	// again.
	ctx := context.Background()
	const ttl = 300 * time.Millisecond
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	kv := &stallingKV{prefix: "ps:m.stall:g:h:slow", release: make(chan struct{})}
	b := pstream.NewKV(srv.Addr(), pstream.WithKVHeartbeatTTL(ttl),
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

// pexpireTap counts the PEXPIRE commands a broker's client is asked for,
// whether or not they reach the server.
type pexpireTap struct {
	kvstore.KV
	n atomic.Int64
}

func (p *pexpireTap) Do(ctx context.Context, name string, args ...[]byte) kvstore.PipeReply {
	if name == "PEXPIRE" {
		p.n.Add(1)
	}
	return p.KV.Do(ctx, name, args...)
}

// TestKVBrokerCloseStopsHeartbeats: closing a broker stops the heartbeats
// of the group subscriptions and task clients still open on it, as Kill
// does. Over the next 3 ttls the broker attempts no refresh, and the
// server serves none.
func TestKVBrokerCloseStopsHeartbeats(t *testing.T) {
	const ttl = 100 * time.Millisecond
	srv, plane, st := newTaskPlane(t, "close-hb")
	tap := &pexpireTap{}
	b := pstream.NewKV(srv.Addr(), pstream.WithKVHeartbeatTTL(ttl),
		pstream.WithKVWrap(func(inner kvstore.KV) kvstore.KV { tap.KV = inner; return tap }))
	ctx := context.Background()
	sub, err := b.SubscribeGroup(ctx, "close-hb", "g", "m")
	if err != nil {
		t.Fatalf("SubscribeGroup: %v", err)
	}
	c, err := pstream.NewTaskClient[string, string](st, b, plane)
	if err != nil {
		t.Fatalf("NewTaskClient: %v", err)
	}
	pexpires := srv.Telemetry().Counter("kv.cmd.PEXPIRE.count")
	for pexpires.Value() < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A refresh the closing client abandoned in flight may still land.
	time.Sleep(10 * time.Millisecond)
	served, asked := pexpires.Value(), tap.n.Load()
	time.Sleep(3 * ttl)
	if got := pexpires.Value(); got != served {
		t.Errorf("server served %d PEXPIREs in the 3 ttls after Close", got-served)
	}
	if got := tap.n.Load(); got != asked {
		t.Errorf("heartbeats attempted %d refreshes in the 3 ttls after Close", got-asked)
	}
	sub.Close()
	c.Close()
}
