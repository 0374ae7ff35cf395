// Package brokertest provides a conformance and fault-injection battery
// run against every pstream.Broker implementation, mirroring connectortest
// for connectors: log semantics (late subscribers see history),
// per-producer ordering under concurrent publishes, independent fan-out to
// concurrent consumers, offset resume after reconnect, cumulative ack
// counting, batched publishes, consumer-group work-queue semantics
// (exactly-once claims, lease reclamation after member death, End
// barriers), and fault injection (backing-service restart mid-stream,
// duplicate publishes, consumer crash-and-resume replay) — the contract
// Producer/Consumer and the evict-on-ack policy are built on.
package brokertest

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/pstream"
)

// Options tune the conformance run.
type Options struct {
	// SkipConcurrency skips the concurrent multi-producer stress.
	SkipConcurrency bool
	// ClaimLease is the group-claim lease the broker under test was
	// configured with; the lease-expiry subtests (reclamation, member
	// death, stale acks) wait it out and are skipped when zero. Keep it
	// short (a few hundred ms) so the battery stays fast.
	ClaimLease time.Duration
	// Restart restarts the broker's backing service in place — same
	// address, state recovered from persistence — simulating a broker
	// crash mid-stream. nil skips the restart test. Implementations whose
	// state is process-local (MemBroker) have nothing durable
	// to restart and leave it nil.
	Restart func() error
	// Commands reports the backing service's cumulative command count
	// (e.g. kvstore Server.Commands). When non-nil the battery asserts
	// push delivery: a subscriber blocked in Next issues O(1) backing
	// commands over a quiet window, instead of a poll per backoff tick.
	// Leave nil for brokers with no command-counted backing service.
	Commands func() uint64
	// NewFailoverEnv builds a broker over a REPLICATED backing service
	// plus a kill function that takes down the current primary (graceful
	// close — the drain hands every client-acknowledged write to the
	// replica before the box disappears). The battery then proves the
	// consumer side: the group resumes on the promoted replica with no
	// event lost and no duplicate group delivery. Each call builds an
	// independent environment, so a primary can die once per subtest.
	// nil skips the failover battery.
	NewFailoverEnv func(t *testing.T) (b pstream.Broker, kill func() error)
}

// idleCommandBudget is the command allowance for a subscriber blocked in
// Next across the idle window: registering the blocking wait takes a
// handful of commands, and a push-delivery implementation issues nothing
// further until woken. A polling implementation at a 10ms backoff cap
// issues dozens over the same window and fails decisively.
const idleCommandBudget = 6

// idleWindow is the quiet period over which a blocked Next is observed.
const idleWindow = 500 * time.Millisecond

// retry re-attempts f until it succeeds or attempts run out. After a
// backing-service restart, pooled client connections are dead and the
// first few calls fail while the pool drains and redials; a client that
// ever succeeds within attempts tries is conformant.
func retry[V any](t *testing.T, attempts int, what string, f func() (V, error)) V {
	t.Helper()
	var err error
	for i := 0; i < attempts; i++ {
		var v V
		if v, err = f(); err == nil {
			return v
		}
	}
	t.Fatalf("%s: still failing after %d attempts: %v", what, attempts, err)
	var zero V
	return zero
}

// topicCounter isolates topics between subtests so reruns against shared
// backends (a kv server) never collide.
var topicMu sync.Mutex
var topicN int

func freshTopic(prefix string) string {
	topicMu.Lock()
	defer topicMu.Unlock()
	topicN++
	return fmt.Sprintf("%s-%s-%d", prefix, connector.NewID()[:8], topicN)
}

func ev(producer string, seq uint64) pstream.Event {
	return pstream.Event{
		Producer: producer,
		Seq:      seq,
		Key:      connector.Key{ID: fmt.Sprintf("%s-%d", producer, seq), Type: "test"},
	}
}

// Run exercises the battery against the broker returned by newBroker.
// newBroker is called once; the broker is closed afterwards.
func Run(t *testing.T, newBroker func(t *testing.T) pstream.Broker, opts Options) {
	t.Helper()
	b := newBroker(t)
	t.Cleanup(func() { b.Close() })
	ctx := context.Background()

	next := func(t *testing.T, sub pstream.Subscription) pstream.Event {
		t.Helper()
		nctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		e, err := sub.Next(nctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		return e
	}

	t.Run("PublishDeliverOrder", func(t *testing.T) {
		topic := freshTopic("order")
		for i := 1; i <= 3; i++ {
			if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		sub, err := b.Subscribe(ctx, topic, "c1")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer sub.Close()
		for i := 1; i <= 3; i++ {
			e := next(t, sub)
			if e.Seq != uint64(i) {
				t.Fatalf("event %d has Seq %d", i, e.Seq)
			}
			if e.Offset != uint64(i-1) {
				t.Fatalf("event %d has Offset %d", i, e.Offset)
			}
			if e.Topic != topic {
				t.Fatalf("event Topic = %q, want %q", e.Topic, topic)
			}
		}
	})

	t.Run("LateSubscriberSeesHistory", func(t *testing.T) {
		topic := freshTopic("history")
		if err := b.Publish(ctx, topic, ev("p", 1)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		sub, err := b.Subscribe(ctx, topic, "late")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer sub.Close()
		if e := next(t, sub); e.Seq != 1 {
			t.Fatalf("late subscriber got Seq %d", e.Seq)
		}
	})

	t.Run("PollNonBlocking", func(t *testing.T) {
		topic := freshTopic("poll")
		sub, err := b.Subscribe(ctx, topic, "c1")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer sub.Close()
		if _, ok, err := sub.Poll(ctx); err != nil || ok {
			t.Fatalf("Poll on empty topic = ok=%v, err=%v", ok, err)
		}
		if err := b.Publish(ctx, topic, ev("p", 1)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		e, ok, err := sub.Poll(ctx)
		if err != nil || !ok {
			t.Fatalf("Poll after publish = ok=%v, err=%v", ok, err)
		}
		if e.Seq != 1 {
			t.Fatalf("Poll delivered Seq %d", e.Seq)
		}
	})

	t.Run("NextBlocksUntilPublish", func(t *testing.T) {
		topic := freshTopic("block")
		sub, err := b.Subscribe(ctx, topic, "c1")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer sub.Close()
		done := make(chan pstream.Event, 1)
		errs := make(chan error, 1)
		go func() {
			nctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			e, err := sub.Next(nctx)
			if err != nil {
				errs <- err
				return
			}
			done <- e
		}()
		time.Sleep(20 * time.Millisecond) // let Next park
		if err := b.Publish(ctx, topic, ev("p", 1)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		select {
		case e := <-done:
			if e.Seq != 1 {
				t.Fatalf("blocked Next delivered Seq %d", e.Seq)
			}
		case err := <-errs:
			t.Fatalf("blocked Next: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("Next did not wake on publish")
		}
	})

	t.Run("ConcurrentConsumersFanOut", func(t *testing.T) {
		topic := freshTopic("fanout")
		const n = 5
		for i := 1; i <= n; i++ {
			if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		for _, name := range []string{"alpha", "beta"} {
			sub, err := b.Subscribe(ctx, topic, name)
			if err != nil {
				t.Fatalf("Subscribe(%s): %v", name, err)
			}
			for i := 1; i <= n; i++ {
				if e := next(t, sub); e.Seq != uint64(i) {
					t.Fatalf("consumer %s event %d has Seq %d", name, i, e.Seq)
				}
			}
			sub.Close()
		}
	})

	t.Run("OffsetResumeAfterReconnect", func(t *testing.T) {
		// The topic is long enough (several trim strides) that a trimming
		// broker collects the events every registered reader has acked.
		topic := freshTopic("resume")
		const n, acked = 200, 150
		evs := make([]pstream.Event, n)
		for i := range evs {
			evs[i] = ev("p", uint64(i+1))
		}
		if err := b.PublishBatch(ctx, topic, evs); err != nil {
			t.Fatalf("PublishBatch: %v", err)
		}
		sub, err := b.Subscribe(ctx, topic, "durable")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		var last pstream.Event
		for i := 0; i < acked; i++ {
			last = next(t, sub)
		}
		if _, err := sub.Ack(ctx, last); err != nil {
			t.Fatalf("Ack: %v", err)
		}
		sub.Close()

		// Reconnecting resumes at the first unacked event, not at the read
		// cursor and not at the beginning.
		sub2, err := b.Subscribe(ctx, topic, "durable")
		if err != nil {
			t.Fatalf("re-Subscribe: %v", err)
		}
		defer sub2.Close()
		if e := next(t, sub2); e.Offset != acked {
			t.Fatalf("resumed at Offset %d, want %d", e.Offset, acked)
		}

		// A new consumer name starts at the oldest event the broker kept:
		// at the latest, the first one a registered reader has not acked.
		// From there it receives every event in order, and so every event
		// published after it subscribed.
		fresh, err := b.Subscribe(ctx, topic, "fresh")
		if err != nil {
			t.Fatalf("Subscribe(fresh): %v", err)
		}
		defer fresh.Close()
		first := next(t, fresh)
		if first.Offset > acked {
			t.Fatalf("fresh consumer started at Offset %d, past the first event (%d) a registered reader has not acked", first.Offset, acked)
		}
		for off := first.Offset + 1; off < n; off++ {
			if e := next(t, fresh); e.Offset != off {
				t.Fatalf("fresh consumer got Offset %d, want %d", e.Offset, off)
			}
		}
		if err := b.Publish(ctx, topic, ev("p", n+1)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		if e := next(t, fresh); e.Offset != n {
			t.Fatalf("fresh consumer got Offset %d after a publish, want %d", e.Offset, n)
		}
	})

	t.Run("AckCountsDistinctConsumers", func(t *testing.T) {
		topic := freshTopic("acks")
		if err := b.Publish(ctx, topic, ev("p", 1)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		subA, err := b.Subscribe(ctx, topic, "a")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer subA.Close()
		subB, err := b.Subscribe(ctx, topic, "b")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer subB.Close()

		ea := next(t, subA)
		if n, err := subA.Ack(ctx, ea); err != nil || n != 1 {
			t.Fatalf("first ack count = %d, %v; want 1", n, err)
		}
		// Re-acking the same event from the same consumer must not inflate
		// the distinct-consumer count.
		if n, err := subA.Ack(ctx, ea); err != nil || n != 1 {
			t.Fatalf("repeat ack count = %d, %v; want 1", n, err)
		}
		eb := next(t, subB)
		if n, err := subB.Ack(ctx, eb); err != nil || n != 2 {
			t.Fatalf("second consumer ack count = %d, %v; want 2", n, err)
		}
	})

	t.Run("CumulativeAck", func(t *testing.T) {
		topic := freshTopic("cumulative")
		for i := 1; i <= 3; i++ {
			if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		sub, err := b.Subscribe(ctx, topic, "c")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		var last pstream.Event
		for i := 0; i < 3; i++ {
			last = next(t, sub)
		}
		// Acking the last event commits everything before it.
		if _, err := sub.Ack(ctx, last); err != nil {
			t.Fatalf("Ack: %v", err)
		}
		sub.Close()
		sub2, err := b.Subscribe(ctx, topic, "c")
		if err != nil {
			t.Fatalf("re-Subscribe: %v", err)
		}
		defer sub2.Close()
		if _, ok, err := sub2.Poll(ctx); err != nil || ok {
			t.Fatalf("events redelivered after cumulative ack: ok=%v err=%v", ok, err)
		}
	})

	t.Run("EndMarkerPassesThrough", func(t *testing.T) {
		topic := freshTopic("end")
		e := ev("p", 1)
		e.End = true
		e.Key = connector.Key{}
		if err := b.Publish(ctx, topic, e); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		sub, err := b.Subscribe(ctx, topic, "c")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer sub.Close()
		if got := next(t, sub); !got.End {
			t.Fatal("End flag lost in transit")
		}
	})

	t.Run("AttrsAndProxyDataRoundTrip", func(t *testing.T) {
		topic := freshTopic("attrs")
		e := ev("p", 1)
		e.Attrs = map[string]string{"round": "7"}
		e.ProxyData = []byte{1, 2, 3, 4}
		if err := b.Publish(ctx, topic, e); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		sub, err := b.Subscribe(ctx, topic, "c")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer sub.Close()
		got := next(t, sub)
		if got.Attr("round") != "7" {
			t.Fatalf("Attrs = %v", got.Attrs)
		}
		if len(got.ProxyData) != 4 || got.ProxyData[2] != 3 {
			t.Fatalf("ProxyData = %v", got.ProxyData)
		}
	})

	t.Run("PublishBatchContiguousOrder", func(t *testing.T) {
		topic := freshTopic("batch")
		evs := make([]pstream.Event, 5)
		for i := range evs {
			evs[i] = ev("p", uint64(i+1))
		}
		if err := b.PublishBatch(ctx, topic, evs); err != nil {
			t.Fatalf("PublishBatch: %v", err)
		}
		// Batches from other producers interleave at batch granularity.
		if err := b.PublishBatch(ctx, topic, []pstream.Event{ev("q", 1)}); err != nil {
			t.Fatalf("second PublishBatch: %v", err)
		}
		sub, err := b.Subscribe(ctx, topic, "c")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer sub.Close()
		for i := 0; i < 5; i++ {
			e := next(t, sub)
			if e.Producer != "p" || e.Seq != uint64(i+1) || e.Offset != uint64(i) {
				t.Fatalf("batch event %d = {%s %d @%d}", i, e.Producer, e.Seq, e.Offset)
			}
		}
		if e := next(t, sub); e.Producer != "q" || e.Offset != 5 {
			t.Fatalf("post-batch event = {%s %d @%d}", e.Producer, e.Seq, e.Offset)
		}
	})

	t.Run("EmptyPublishBatchIsNoOp", func(t *testing.T) {
		topic := freshTopic("batch0")
		if err := b.PublishBatch(ctx, topic, nil); err != nil {
			t.Fatalf("empty PublishBatch: %v", err)
		}
		sub, err := b.Subscribe(ctx, topic, "c")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer sub.Close()
		if _, ok, err := sub.Poll(ctx); err != nil || ok {
			t.Fatalf("topic not empty after empty batch: ok=%v err=%v", ok, err)
		}
	})

	// --- Consumer groups --------------------------------------------------

	// groupSub subscribes a member, failing the test on error.
	groupSub := func(t *testing.T, topic, group, member string) pstream.Subscription {
		t.Helper()
		sub, err := b.SubscribeGroup(ctx, topic, group, member)
		if err != nil {
			t.Fatalf("SubscribeGroup(%s/%s): %v", group, member, err)
		}
		t.Cleanup(func() { sub.Close() })
		return sub
	}

	t.Run("GroupClaimsEachEventOnce", func(t *testing.T) {
		topic := freshTopic("group")
		const n = 6
		for i := 1; i <= n; i++ {
			if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		subA := groupSub(t, topic, "g", "a")
		subB := groupSub(t, topic, "g", "b")
		got := make(map[uint64]string)
		// Alternate members; every event must surface exactly once across
		// the group, acked as it goes so claims settle.
		for i := 0; i < n; i++ {
			sub, who := subA, "a"
			if i%2 == 1 {
				sub, who = subB, "b"
			}
			e := next(t, sub)
			if prev, dup := got[e.Offset]; dup {
				t.Fatalf("offset %d delivered to both %s and %s", e.Offset, prev, who)
			}
			got[e.Offset] = who
			if _, err := sub.Ack(ctx, e); err != nil {
				t.Fatalf("Ack: %v", err)
			}
		}
		if len(got) != n {
			t.Fatalf("group saw %d distinct offsets, want %d", len(got), n)
		}
		for _, sub := range []pstream.Subscription{subA, subB} {
			if _, ok, err := sub.Poll(ctx); err != nil || ok {
				t.Fatalf("drained queue still had work: ok=%v err=%v", ok, err)
			}
		}
	})

	t.Run("GroupsAndFanOutIndependent", func(t *testing.T) {
		topic := freshTopic("coexist")
		const n = 4
		for i := 1; i <= n; i++ {
			if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		// A fan-out consumer sees everything regardless of group claims.
		fan, err := b.Subscribe(ctx, topic, "watcher")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer fan.Close()
		// Two groups each see everything; members inside a group split it.
		seen := map[string]map[uint64]bool{"g1": {}, "g2": {}}
		for _, g := range []string{"g1", "g2"} {
			m1 := groupSub(t, topic, g, "m1")
			m2 := groupSub(t, topic, g, "m2")
			for i := 0; i < n; i++ {
				sub := m1
				if i%2 == 1 {
					sub = m2
				}
				e := next(t, sub)
				if seen[g][e.Offset] {
					t.Fatalf("group %s saw offset %d twice", g, e.Offset)
				}
				seen[g][e.Offset] = true
				if _, err := sub.Ack(ctx, e); err != nil {
					t.Fatalf("Ack: %v", err)
				}
			}
			if len(seen[g]) != n {
				t.Fatalf("group %s saw %d events, want %d", g, len(seen[g]), n)
			}
		}
		for i := 1; i <= n; i++ {
			if e := next(t, fan); e.Seq != uint64(i) {
				t.Fatalf("fan-out consumer got Seq %d, want %d", e.Seq, i)
			}
		}
	})

	t.Run("GroupCountsOnceInAckCounts", func(t *testing.T) {
		topic := freshTopic("gack")
		if err := b.Publish(ctx, topic, ev("p", 1)); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		solo, err := b.Subscribe(ctx, topic, "solo")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer solo.Close()
		e := next(t, solo)
		if n, err := solo.Ack(ctx, e); err != nil || n != 1 {
			t.Fatalf("fan-out ack count = %d, %v; want 1", n, err)
		}
		// The whole group is one distinct consumer.
		m := groupSub(t, topic, "g", "m")
		ge := next(t, m)
		if n, err := m.Ack(ctx, ge); err != nil || n != 2 {
			t.Fatalf("group ack count = %d, %v; want 2", n, err)
		}
		// Re-acking from the same member does not inflate the count.
		if n, err := m.Ack(ctx, ge); err != nil || n != 2 {
			t.Fatalf("repeat group ack count = %d, %v; want 2", n, err)
		}
	})

	t.Run("GroupEndBarrier", func(t *testing.T) {
		topic := freshTopic("gend")
		for i := 1; i <= 2; i++ {
			if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		end := pstream.Event{Producer: "p", Seq: 3, End: true}
		if err := b.Publish(ctx, topic, end); err != nil {
			t.Fatalf("Publish End: %v", err)
		}
		subA := groupSub(t, topic, "g", "a")
		subB := groupSub(t, topic, "g", "b")
		ea := next(t, subA)
		eb := next(t, subB)
		// Both payload events are claimed but unacked: the End must be
		// withheld from every member.
		for name, sub := range map[string]pstream.Subscription{"a": subA, "b": subB} {
			if e, ok, err := sub.Poll(ctx); err != nil || ok {
				t.Fatalf("%s got %+v before the End barrier (ok=%v err=%v)", name, e, ok, err)
			}
		}
		if _, err := subA.Ack(ctx, ea); err != nil {
			t.Fatalf("Ack a: %v", err)
		}
		if _, err := subB.Ack(ctx, eb); err != nil {
			t.Fatalf("Ack b: %v", err)
		}
		// All work acked: the End broadcasts to every member.
		if e := next(t, subA); !e.End {
			t.Fatalf("member a got %+v, want End", e)
		}
		if e := next(t, subB); !e.End {
			t.Fatalf("member b got %+v, want End", e)
		}
	})

	t.Run("TrimKeepsWhatReadersNeed", func(t *testing.T) {
		// A group acks far past any trim stride while a fan-out reader
		// lags at offset 10: the lagging reader must still get every event
		// from there. A reader registered before a publish must get it,
		// however far the other readers go past it. An End must survive.
		topic := freshTopic("trim")
		const n, lag = 200, 10
		publish := func() {
			evs := make([]pstream.Event, n)
			for i := range evs {
				evs[i] = ev("p", uint64(i+1))
			}
			if err := b.PublishBatch(ctx, topic, evs); err != nil {
				t.Fatalf("PublishBatch: %v", err)
			}
		}
		// read takes and acks the events at offsets [from, to), in order.
		read := func(sub pstream.Subscription, from, to uint64) {
			t.Helper()
			for off := from; off < to; off++ {
				if e := next(t, sub); e.Offset != off {
					t.Fatalf("got offset %d, want %d", e.Offset, off)
				} else if _, err := sub.Ack(ctx, e); err != nil {
					t.Fatalf("Ack: %v", err)
				}
			}
		}
		group := groupSub(t, topic, "g", "m")
		lagging, err := b.Subscribe(ctx, topic, "lagging")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer lagging.Close()
		publish()
		read(lagging, 0, lag)
		read(group, 0, n)
		read(lagging, lag, n)

		late, err := b.Subscribe(ctx, topic, "late")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer late.Close()
		publish()
		read(group, n, 2*n)
		read(lagging, n, 2*n)
		e := next(t, late)
		for e.Offset < n {
			e = next(t, late)
		}
		if e.Offset != n {
			t.Fatalf("late reader skipped to offset %d, past offset %d published after it registered", e.Offset, n)
		}
		read(late, n+1, 2*n)

		// An End survives every trim, even once every reader has acked
		// past it (and the member's Close has trimmed): a member rejoining
		// the group still receives it.
		if err := b.Publish(ctx, topic, pstream.Event{Producer: "p", Seq: 2*n + 1, End: true}); err != nil {
			t.Fatalf("Publish End: %v", err)
		}
		for _, sub := range []pstream.Subscription{group, lagging, late} {
			if e := next(t, sub); !e.End {
				t.Fatalf("got {seq %d @%d}, want the End", e.Seq, e.Offset)
			} else if _, err := sub.Ack(ctx, e); err != nil {
				t.Fatalf("Ack End: %v", err)
			}
		}
		group.Close()
		if e := next(t, groupSub(t, topic, "g", "rejoined")); !e.End {
			t.Fatalf("rejoined member got {seq %d @%d}, want the End", e.Seq, e.Offset)
		}
	})

	if opts.ClaimLease > 0 {
		t.Run("GroupReclaimsExpiredClaims", func(t *testing.T) {
			topic := freshTopic("lease")
			if err := b.Publish(ctx, topic, ev("p", 1)); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			subA := groupSub(t, topic, "g", "a")
			subB := groupSub(t, topic, "g", "b")
			ea := next(t, subA) // a claims and stalls
			// While a's lease is live, b sees nothing.
			if _, ok, err := subB.Poll(ctx); err != nil || ok {
				t.Fatalf("b claimed a leased event: ok=%v err=%v", ok, err)
			}
			time.Sleep(opts.ClaimLease + opts.ClaimLease/2)
			// Lease expired: b reclaims and settles the event.
			eb := next(t, subB)
			if eb.Offset != ea.Offset {
				t.Fatalf("b reclaimed offset %d, want %d", eb.Offset, ea.Offset)
			}
			if n, err := subB.Ack(ctx, eb); err != nil || n != 1 {
				t.Fatalf("reclaim ack count = %d, %v; want 1", n, err)
			}
			// a's late ack is stale: a no-op that must not double-count.
			if n, err := subA.Ack(ctx, ea); err != nil || n != 1 {
				t.Fatalf("stale ack count = %d, %v; want 1", n, err)
			}
		})

		t.Run("GroupMemberDeathReclamation", func(t *testing.T) {
			topic := freshTopic("death")
			const n = 5
			for i := 1; i <= n; i++ {
				if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
					t.Fatalf("Publish: %v", err)
				}
			}
			if err := b.Publish(ctx, topic, pstream.Event{Producer: "p", Seq: n + 1, End: true}); err != nil {
				t.Fatalf("Publish End: %v", err)
			}
			// The doomed member claims two events and dies without acking.
			doomed := groupSub(t, topic, "g", "doomed")
			next(t, doomed)
			next(t, doomed)
			doomed.Close()
			// The survivor works the whole queue: three fresh events
			// immediately, the two orphaned ones once their leases expire,
			// then the End — delivery of which certifies every payload
			// event was acked by somebody.
			survivor := groupSub(t, topic, "g", "survivor")
			got := make(map[uint64]bool)
			for {
				e := next(t, survivor)
				if e.End {
					break
				}
				if got[e.Offset] {
					t.Fatalf("offset %d delivered twice to the survivor", e.Offset)
				}
				got[e.Offset] = true
				if _, err := survivor.Ack(ctx, e); err != nil {
					t.Fatalf("Ack: %v", err)
				}
			}
			if len(got) != n {
				t.Fatalf("survivor consumed %d events, want all %d", len(got), n)
			}
		})
	}

	// --- Push delivery ----------------------------------------------------

	if opts.Commands != nil {
		t.Run("IdleBlockedNextIsO1Commands", func(t *testing.T) {
			topic := freshTopic("idle")
			sub, err := b.Subscribe(ctx, topic, "c1")
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			defer sub.Close()
			nctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			got := make(chan pstream.Event, 1)
			errs := make(chan error, 1)
			go func() {
				e, err := sub.Next(nctx)
				if err != nil {
					errs <- err
					return
				}
				got <- e
			}()
			time.Sleep(100 * time.Millisecond) // let Next park in its wait
			before := opts.Commands()
			time.Sleep(idleWindow)
			if delta := opts.Commands() - before; delta > idleCommandBudget {
				t.Errorf("blocked Next issued %d commands over a %v quiet window, budget %d (polling, not push)",
					delta, idleWindow, idleCommandBudget)
			}
			// The parked subscriber must wake promptly on publish.
			start := time.Now()
			if err := b.Publish(ctx, topic, ev("p", 1)); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			select {
			case e := <-got:
				if e.Seq != 1 {
					t.Fatalf("woke with Seq %d", e.Seq)
				}
				if wake := time.Since(start); wake > 2*time.Second {
					t.Errorf("wake latency %v", wake)
				}
			case err := <-errs:
				t.Fatalf("blocked Next: %v", err)
			case <-time.After(10 * time.Second):
				t.Fatal("blocked Next did not wake on publish")
			}
		})

		t.Run("IdleBlockedGroupNextIsO1Commands", func(t *testing.T) {
			topic := freshTopic("idleg")
			sub, err := b.SubscribeGroup(ctx, topic, "g", "m")
			if err != nil {
				t.Fatalf("SubscribeGroup: %v", err)
			}
			defer sub.Close()
			nctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			got := make(chan pstream.Event, 1)
			errs := make(chan error, 1)
			go func() {
				e, err := sub.Next(nctx)
				if err != nil {
					errs <- err
					return
				}
				got <- e
			}()
			time.Sleep(100 * time.Millisecond)
			before := opts.Commands()
			time.Sleep(idleWindow)
			if delta := opts.Commands() - before; delta > idleCommandBudget {
				t.Errorf("blocked group Next issued %d commands over a %v quiet window, budget %d",
					delta, idleWindow, idleCommandBudget)
			}
			if err := b.Publish(ctx, topic, ev("p", 1)); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			select {
			case e := <-got:
				if e.Seq != 1 {
					t.Fatalf("woke with Seq %d", e.Seq)
				}
				if _, err := sub.Ack(ctx, e); err != nil {
					t.Fatalf("Ack: %v", err)
				}
			case err := <-errs:
				t.Fatalf("blocked group Next: %v", err)
			case <-time.After(10 * time.Second):
				t.Fatal("blocked group Next did not wake on publish")
			}
		})
	}

	if opts.Restart != nil {
		t.Run("RestartMidBlockedWait", func(t *testing.T) {
			// The backing service restarts while a consumer is parked in a
			// blocking wait. The severed wait surfaces an error; retrying
			// Next on the same subscription must resume without loss (the
			// cursor is subscription-local) and deliver the first
			// post-restart publish.
			topic := freshTopic("restartwait")
			sub, err := b.Subscribe(ctx, topic, "durable")
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			defer sub.Close()
			nctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			got := make(chan pstream.Event, 1)
			go func() {
				for {
					e, err := sub.Next(nctx)
					if err == nil {
						got <- e
						return
					}
					if nctx.Err() != nil {
						return
					}
					// Stale pooled connections drain while the service
					// restarts; keep retrying.
					time.Sleep(20 * time.Millisecond)
				}
			}()
			time.Sleep(100 * time.Millisecond) // park in the blocked wait
			if err := opts.Restart(); err != nil {
				t.Fatalf("Restart: %v", err)
			}
			retry(t, 8, "Publish after restart", func() (struct{}, error) {
				return struct{}{}, b.Publish(ctx, topic, ev("p", 1))
			})
			select {
			case e := <-got:
				if e.Seq != 1 || e.Offset != 0 {
					t.Fatalf("resumed consumer got {Seq %d @%d}, want {1 @0}", e.Seq, e.Offset)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("consumer did not resume after restart mid-wait")
			}
		})
	}

	// --- Fault injection --------------------------------------------------

	t.Run("DuplicatePublishDelivered", func(t *testing.T) {
		// Brokers are append-only logs: a producer that retries a publish
		// (e.g. after a lost reply) appends a second copy. Both must be
		// delivered intact at distinct offsets — duplicate suppression is
		// the application's job, at-least-once is the broker's.
		topic := freshTopic("dup")
		e := ev("p", 1)
		if err := b.Publish(ctx, topic, e); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		if err := b.Publish(ctx, topic, e); err != nil {
			t.Fatalf("duplicate Publish: %v", err)
		}
		sub, err := b.Subscribe(ctx, topic, "c")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		defer sub.Close()
		first := next(t, sub)
		second := next(t, sub)
		if first.Seq != 1 || second.Seq != 1 {
			t.Fatalf("duplicate Seqs = %d, %d; want 1, 1", first.Seq, second.Seq)
		}
		if first.Offset == second.Offset {
			t.Fatalf("duplicates share offset %d", first.Offset)
		}
		if _, err := sub.Ack(ctx, second); err != nil {
			t.Fatalf("Ack past duplicates: %v", err)
		}
	})

	t.Run("ConsumerCrashReplaysUnacked", func(t *testing.T) {
		topic := freshTopic("crash")
		const n = 4
		for i := 1; i <= n; i++ {
			if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		sub, err := b.Subscribe(ctx, topic, "fragile")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		// Read three, ack only the first, then crash: the two delivered
		// but unacked events must replay — at-least-once, not at-most-once.
		first := next(t, sub)
		next(t, sub)
		next(t, sub)
		if _, err := sub.Ack(ctx, first); err != nil {
			t.Fatalf("Ack: %v", err)
		}
		sub.Close()

		resumed, err := b.Subscribe(ctx, topic, "fragile")
		if err != nil {
			t.Fatalf("re-Subscribe: %v", err)
		}
		defer resumed.Close()
		for want := uint64(1); want < n; want++ {
			if e := next(t, resumed); e.Offset != want {
				t.Fatalf("replay delivered offset %d, want %d", e.Offset, want)
			}
		}
	})

	if opts.Restart != nil {
		t.Run("RestartMidStream", func(t *testing.T) {
			topic := freshTopic("restart")
			for i := 1; i <= 3; i++ {
				if err := b.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
					t.Fatalf("Publish: %v", err)
				}
			}
			sub, err := b.Subscribe(ctx, topic, "durable")
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			next(t, sub)
			second := next(t, sub)
			if _, err := sub.Ack(ctx, second); err != nil {
				t.Fatalf("Ack: %v", err)
			}
			sub.Close()

			if err := opts.Restart(); err != nil {
				t.Fatalf("Restart: %v", err)
			}

			// The log, offsets and ack counts must have survived; clients
			// may need a few attempts while stale pooled connections drain.
			retry(t, 8, "Publish after restart", func() (struct{}, error) {
				return struct{}{}, b.Publish(ctx, topic, ev("p", 4))
			})
			resumed := retry(t, 8, "Subscribe after restart", func() (pstream.Subscription, error) {
				return b.Subscribe(ctx, topic, "durable")
			})
			defer resumed.Close()
			for want := uint64(2); want <= 3; want++ {
				e := retry(t, 8, "Next after restart", func() (pstream.Event, error) {
					nctx, cancel := context.WithTimeout(ctx, 10*time.Second)
					defer cancel()
					return resumed.Next(nctx)
				})
				if e.Offset != want {
					t.Fatalf("post-restart delivery at offset %d, want %d", e.Offset, want)
				}
				if want == 3 && e.Seq != 4 {
					t.Fatalf("post-restart append has Seq %d, want 4", e.Seq)
				}
			}
			e := ev("p", 4)
			e.Offset = 3
			if n, err := resumed.Ack(ctx, e); err != nil || n != 1 {
				t.Fatalf("post-restart ack = %d, %v; want 1", n, err)
			}
		})
	}

	if !opts.SkipConcurrency {
		t.Run("ConcurrentProducersKeepPerProducerOrder", func(t *testing.T) {
			topic := freshTopic("multi")
			const producers, per = 4, 20
			var wg sync.WaitGroup
			errs := make(chan error, producers)
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					name := fmt.Sprintf("p%d", p)
					for i := 1; i <= per; i++ {
						if err := b.Publish(ctx, topic, ev(name, uint64(i))); err != nil {
							errs <- err
							return
						}
					}
				}(p)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("Publish: %v", err)
			}

			sub, err := b.Subscribe(ctx, topic, "c")
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			defer sub.Close()
			lastSeq := make(map[string]uint64)
			for i := 0; i < producers*per; i++ {
				e := next(t, sub)
				if e.Seq != lastSeq[e.Producer]+1 {
					t.Fatalf("producer %s: Seq %d after %d", e.Producer, e.Seq, lastSeq[e.Producer])
				}
				lastSeq[e.Producer] = e.Seq
			}
			for p := 0; p < producers; p++ {
				name := fmt.Sprintf("p%d", p)
				if lastSeq[name] != per {
					t.Fatalf("producer %s delivered %d events, want %d", name, lastSeq[name], per)
				}
			}
		})
	}

	// --- Primary failover -------------------------------------------------

	if opts.NewFailoverEnv != nil {
		// nextRetry is next with transport-failure tolerance: after the
		// primary dies, pooled connections to it fail until the client
		// fails over to the promoted replica.
		nextRetry := func(t *testing.T, sub pstream.Subscription) pstream.Event {
			t.Helper()
			return retry(t, 50, "Next across failover", func() (pstream.Event, error) {
				nctx, cancel := context.WithTimeout(ctx, 5*time.Second)
				defer cancel()
				return sub.Next(nctx)
			})
		}

		t.Run("FailoverMidStreamGroup", func(t *testing.T) {
			// A consumer group is mid-stream when its primary dies: half the
			// log consumed and acked, half not yet delivered. The group must
			// finish the stream on the promoted replica with every offset
			// delivered exactly once across the members — the replica holds
			// the full log (drained on close), the committed claims, and the
			// group floor.
			fb, kill := opts.NewFailoverEnv(t)
			t.Cleanup(func() { fb.Close() })
			topic := freshTopic("failover")
			const before, after = 8, 8

			for i := 1; i <= before; i++ {
				if err := fb.Publish(ctx, topic, ev("p", uint64(i))); err != nil {
					t.Fatalf("Publish: %v", err)
				}
			}
			subA, err := fb.SubscribeGroup(ctx, topic, "g", "a")
			if err != nil {
				t.Fatalf("SubscribeGroup: %v", err)
			}
			defer subA.Close()
			subB, err := fb.SubscribeGroup(ctx, topic, "g", "b")
			if err != nil {
				t.Fatalf("SubscribeGroup: %v", err)
			}
			defer subB.Close()

			got := make(map[uint64]string)
			consume := func(t *testing.T, sub pstream.Subscription, who string) {
				t.Helper()
				e := nextRetry(t, sub)
				if prev, dup := got[e.Offset]; dup {
					t.Fatalf("offset %d delivered to both %s and %s", e.Offset, prev, who)
				}
				got[e.Offset] = who
				retry(t, 50, "Ack across failover", func() (struct{}, error) {
					_, err := sub.Ack(ctx, e)
					return struct{}{}, err
				})
			}
			// Consume half the pre-failover log, alternating members.
			for i := 0; i < before/2; i++ {
				sub, who := subA, "a"
				if i%2 == 1 {
					sub, who = subB, "b"
				}
				consume(t, sub, who)
			}

			if err := kill(); err != nil {
				t.Fatalf("killing primary: %v", err)
			}

			// The producer keeps publishing; its first attempts fail over.
			for i := before + 1; i <= before+after; i++ {
				retry(t, 50, "Publish across failover", func() (struct{}, error) {
					return struct{}{}, fb.Publish(ctx, topic, ev("p", uint64(i)))
				})
			}
			// The group finishes the stream on the survivor.
			for i := before / 2; i < before+after; i++ {
				sub, who := subA, "a"
				if i%2 == 1 {
					sub, who = subB, "b"
				}
				consume(t, sub, who)
			}
			if len(got) != before+after {
				t.Fatalf("group saw %d distinct offsets, want %d", len(got), before+after)
			}
			for off := uint64(0); off < before+after; off++ {
				if _, ok := got[off]; !ok {
					t.Fatalf("offset %d lost across failover", off)
				}
			}
			// Fully drained: no replays surface after the exactly-once sweep.
			for _, sub := range []pstream.Subscription{subA, subB} {
				if _, ok, err := sub.Poll(ctx); err == nil && ok {
					t.Fatal("drained group had residual work after failover")
				}
			}
		})

		t.Run("FailoverMidBlockedWait", func(t *testing.T) {
			// A consumer is parked in a blocking wait on the primary when it
			// dies. The severed wait errors; retrying Next must re-park
			// against the promoted replica and be woken by the first
			// post-failover publish.
			fb, kill := opts.NewFailoverEnv(t)
			t.Cleanup(func() { fb.Close() })
			topic := freshTopic("failoverwait")
			sub, err := fb.Subscribe(ctx, topic, "durable")
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			defer sub.Close()
			nctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			got := make(chan pstream.Event, 1)
			go func() {
				for {
					e, err := sub.Next(nctx)
					if err == nil {
						got <- e
						return
					}
					if nctx.Err() != nil {
						return
					}
					time.Sleep(20 * time.Millisecond)
				}
			}()
			time.Sleep(100 * time.Millisecond) // park in the blocked wait
			if err := kill(); err != nil {
				t.Fatalf("killing primary: %v", err)
			}
			retry(t, 50, "Publish across failover", func() (struct{}, error) {
				return struct{}{}, fb.Publish(ctx, topic, ev("p", 1))
			})
			select {
			case e := <-got:
				if e.Seq != 1 || e.Offset != 0 {
					t.Fatalf("woken consumer got {Seq %d @%d}, want {1 @0}", e.Seq, e.Offset)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("consumer never woke on the promoted replica")
			}
		})
	}
}
