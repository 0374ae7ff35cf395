package brokertest

// The heartbeat/churn battery: membership-aware group semantics that only
// KVBrokers implement (heartbeats, early lease reclamation, membership-key
// GC), exercised the way the paper's federated fleets behave — members
// joining, crashing, and vanishing while work is in flight.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxystore/internal/pstream"
)

// ChurnOptions tune the churn battery.
type ChurnOptions struct {
	// DBSize reports the backing server's key count, for the no-orphan-
	// growth assertions. Required.
	DBSize func() (int64, error)
	// DebugMGet, when set, lets the battery name the lingering keys when
	// the GC assertion fails, turning "N keys too many" into actionable
	// output. Optional.
	DebugMGet func(keys ...string) [][]byte
}

// RunChurn exercises the heartbeat/churn battery. newBroker builds a
// fresh KVBroker over one shared backing server with the given group
// lease and heartbeat TTL — each subtest picks its own timing.
//
// The battery proves the two fleet-lifecycle guarantees:
//   - a member that dies with a live lease has its claims reclaimed in
//     strictly less than one lease period (heartbeat expiry, not lease
//     expiry, is the detection path);
//   - a 32-member join/leave storm preserves exactly-once group delivery
//     and leaves no per-member keys behind (membership keys, claim
//     records, and log slots all return to a fixed baseline).
func RunChurn(t *testing.T, newBroker func(t *testing.T, lease, heartbeat time.Duration) *pstream.KVBroker, opts ChurnOptions) {
	t.Helper()
	if opts.DBSize == nil {
		t.Fatal("brokertest: ChurnOptions.DBSize is required")
	}

	t.Run("HeartbeatReclaimBeatsLease", func(t *testing.T) {
		churnReclaim(t, newBroker)
	})
	t.Run("JoinLeaveStorm", func(t *testing.T) {
		churnStorm(t, newBroker, opts)
	})
}

// churnReclaim: a member claims an event under a long lease and dies
// (heartbeat stops, claim never acked, subscription abandoned). A
// survivor must steal the claim after the heartbeat TTL — well before the
// lease would have expired.
func churnReclaim(t *testing.T, newBroker func(t *testing.T, lease, heartbeat time.Duration) *pstream.KVBroker) {
	const (
		lease     = 3 * time.Second
		heartbeat = 150 * time.Millisecond
		events    = 4
	)
	b := newBroker(t, lease, heartbeat)
	t.Cleanup(func() { b.Close() })
	ctx := context.Background()
	topic := freshTopic("churn-reclaim")

	for i := 1; i <= events; i++ {
		if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}

	// The victim claims the first event and dies without acking.
	victim, err := b.SubscribeGroup(ctx, topic, "g", "victim")
	if err != nil {
		t.Fatalf("SubscribeGroup(victim): %v", err)
	}
	claimed, err := victim.Next(ctx)
	if err != nil {
		t.Fatalf("victim Next: %v", err)
	}
	hb := pstream.GroupHeartbeat(victim)
	if hb == nil {
		t.Fatal("GroupHeartbeat returned nil for a KVBroker group member")
	}
	died := time.Now()
	hb.Kill() // heartbeat stops; the claim and subscription are abandoned

	survivor, err := b.SubscribeGroup(ctx, topic, "g", "survivor")
	if err != nil {
		t.Fatalf("SubscribeGroup(survivor): %v", err)
	}
	t.Cleanup(func() { survivor.Close() })

	// The survivor must collect every event — including the victim's
	// abandoned claim — long before the 3 s lease runs out.
	seen := make(map[uint64]int)
	var reclaimedAfter time.Duration
	deadlineCtx, cancel := context.WithTimeout(ctx, lease)
	defer cancel()
	for len(seen) < events {
		got, err := survivor.Next(deadlineCtx)
		if err != nil {
			t.Fatalf("survivor Next (seen %d/%d): %v", len(seen), events, err)
		}
		if got.Offset == claimed.Offset {
			reclaimedAfter = time.Since(died)
		}
		seen[got.Offset]++
		if _, err := survivor.Ack(ctx, got); err != nil {
			t.Fatalf("survivor Ack: %v", err)
		}
	}
	for off, n := range seen {
		if n != 1 {
			t.Errorf("offset %d delivered %d times to survivor, want 1", off, n)
		}
	}
	if reclaimedAfter <= 0 {
		t.Fatalf("victim's claim (offset %d) never redelivered", claimed.Offset)
	}
	if reclaimedAfter >= lease {
		t.Fatalf("claim reclaimed after %v — not faster than the %v lease", reclaimedAfter, lease)
	}
	t.Logf("abandoned claim reclaimed after %v (lease %v, heartbeat %v)", reclaimedAfter, lease, heartbeat)
}

// churnStorm: 32 members churn through a group — clean leaves, crashes
// after acking, crashes mid-claim — while a fixed workload drains.
// Exactly-once must hold, and after the dust settles the membership keys
// and log must be garbage-collected back to a fixed baseline.
func churnStorm(t *testing.T, newBroker func(t *testing.T, lease, heartbeat time.Duration) *pstream.KVBroker, opts ChurnOptions) {
	const (
		lease     = 1 * time.Second
		heartbeat = 100 * time.Millisecond
		events    = 96
		wave      = 32
		group     = "storm"
	)
	b := newBroker(t, lease, heartbeat)
	t.Cleanup(func() { b.Close() })
	ctx := context.Background()
	topic := freshTopic("churn-storm")

	baseline, err := opts.DBSize()
	if err != nil {
		t.Fatalf("DBSize: %v", err)
	}

	for i := 1; i <= events; i++ {
		if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}

	var (
		mu      sync.Mutex
		acked   = make(map[uint64][]string) // offset -> acking members
		total   atomic.Int64
		memberN atomic.Int64
		lapses  atomic.Int64 // heartbeat lapses of members that left cleanly
	)
	record := func(off uint64, who string) {
		mu.Lock()
		acked[off] = append(acked[off], who)
		n := len(acked)
		mu.Unlock()
		total.Store(int64(n))
	}
	done := func() bool { return total.Load() >= events }

	// member runs one churning group member. Modes:
	//   clean:    ack its quota, then Close (clean leave).
	//   killAck:  ack its quota, then Kill (crash between tasks — claims
	//             all settled, but membership keys left behind).
	//   killMid:  claim one event and Kill without acking (crash mid-task
	//             — the claim must be reclaimed by a survivor).
	member := func(mode string) {
		name := fmt.Sprintf("m-%s-%d", mode, memberN.Add(1))
		sub, err := b.SubscribeGroup(ctx, topic, group, name)
		if err != nil {
			return // join raced shutdown; the spawner will replace us
		}
		const quota = 3
		for i := 0; i < quota && !done(); i++ {
			nctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
			got, err := sub.Next(nctx)
			cancel()
			if err != nil {
				continue // nothing claimable right now
			}
			if mode == "killMid" {
				pstream.GroupHeartbeat(sub).Kill()
				return // die holding the claim
			}
			if _, err := sub.Ack(ctx, got); err == nil {
				record(got.Offset, name)
			}
		}
		switch mode {
		case "clean":
			lapses.Add(pstream.GroupHeartbeat(sub).Lapses())
			sub.Close()
		default: // killAck
			pstream.GroupHeartbeat(sub).Kill()
		}
	}

	// Waves of 32 members churn until the workload drains. Mode mix per
	// wave: mostly clean/killAck (they make progress), a few killMid
	// (they create work for the others to reclaim).
	stormDeadline := time.Now().Add(30 * time.Second)
	for !done() {
		if time.Now().After(stormDeadline) {
			t.Fatalf("storm did not drain: %d/%d events acked", total.Load(), events)
		}
		var wg sync.WaitGroup
		for i := 0; i < wave; i++ {
			mode := "clean"
			switch i % 4 {
			case 1:
				mode = "killAck"
			case 3:
				mode = "killMid"
			}
			wg.Add(1)
			go func(mode string) {
				defer wg.Done()
				member(mode)
			}(mode)
		}
		wg.Wait()
	}

	t.Logf("%d heartbeat lapses among the members that ran to a clean leave", lapses.Load())

	// Exactly-once: every offset acked by exactly one member.
	mu.Lock()
	defer mu.Unlock()
	if len(acked) != events {
		t.Fatalf("acked %d distinct offsets, want %d", len(acked), events)
	}
	for off, who := range acked {
		if len(who) != 1 {
			t.Errorf("offset %d acked by %d members (%v), want exactly 1", off, len(who), who)
		}
	}

	// GC: the server expires the dead members' heartbeat keys on its own,
	// and a final member's scan and Close — which trims the drained log —
	// must return the server to its baseline plus a fixed handful of
	// bookkeeping keys (log length, truncation floor, group floor and
	// registration).
	m := b.Membership(topic, group)
	const slack = 8
	gcDeadline := time.Now().Add(10 * time.Second)
	for {
		live, err := m.Live(ctx)
		if err != nil {
			t.Fatalf("Live: %v", err)
		}
		// A throwaway member scans once to push the group floor over the
		// tail claims, then leaves cleanly; its Close trims the log.
		if sub, err := b.SubscribeGroup(ctx, topic, group, "janitor"); err == nil {
			nctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			_, _, _ = sub.Poll(nctx)
			cancel()
			sub.Close()
		}
		n, err := opts.DBSize()
		if err != nil {
			t.Fatalf("DBSize: %v", err)
		}
		if len(live) == 0 && n <= baseline+slack {
			t.Logf("server keys settled at %d (baseline %d)", n, baseline)
			return
		}
		if time.Now().After(gcDeadline) {
			if opts.DebugMGet != nil {
				var probe []string
				for i := uint64(0); i < events+4; i++ {
					probe = append(probe,
						fmt.Sprintf("ps:%s:e:%d", topic, i),
						fmt.Sprintf("ps:%s:a:%d", topic, i),
						fmt.Sprintf("ps:%s:g:%s:c:%d", topic, group, i))
				}
				for i := int64(0); i <= memberN.Load(); i++ {
					for _, mode := range []string{"clean", "killAck", "killMid"} {
						probe = append(probe, fmt.Sprintf("ps:m.%s:%s:h:m-%s-%d", topic, group, mode, i))
					}
				}
				raws := opts.DebugMGet(probe...)
				for i, raw := range raws {
					if raw != nil {
						t.Logf("lingering key: %s = %q", probe[i], raw)
					}
				}
			}
			t.Fatalf("GC never settled: %d live members, %d keys (baseline %d, slack %d)", len(live), n, baseline, slack)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
