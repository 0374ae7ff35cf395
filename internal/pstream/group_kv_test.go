package pstream_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/local"
	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/store"
)

// --- KVBroker group path: command cost and scan read order ----------------

func newGroupServer(t *testing.T) *kvstore.Server {
	t.Helper()
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestGroupCommandBudget pins the server commands one group member spends
// per event, one event per round: Publish is one LAPPEND in one round
// trip; Next is the scan's LREAD, the claim CAS and the floor guard; Ack
// is a CAS of the remembered record plus INCR; the draining Poll after the
// ack is the LREAD and the floor CAS. The drain whose floor CAS crosses
// 128, the second multiple of the trim stride, also pays one trim pass up
// to the floor: MGET of the truncation floor, length and reader set, MGET
// of the End record and the readers' floors, the truncation-floor CAS and
// three DELRANGEs (slots, ack counters, claim records). The member's
// heartbeat refreshes run on their own timer, so a step's cost leaves out
// the PEXPIREs the server served during it.
func TestGroupCommandBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv := newGroupServer(t)
	b := pstream.NewKV(srv.Addr())
	defer b.Close()
	const topic = "budget"
	sub, err := b.SubscribeGroup(ctx, topic, "g", "m")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pexpires := srv.Telemetry().Counter("kv.cmd.PEXPIRE.count")
	cost := func(f func()) uint64 {
		refreshes, before := pexpires.Value(), srv.Commands()
		f()
		return srv.Commands() - before - (pexpires.Value() - refreshes)
	}
	for round := 0; round < 5; round++ {
		trips := b.RoundTrips()
		if got := cost(func() {
			if err := b.Publish(ctx, topic, pstream.Event{Producer: "p", Seq: uint64(round + 1)}); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}); got != 1 {
			t.Errorf("round %d: Publish cost %d server commands, want 1", round, got)
		}
		if got := b.RoundTrips() - trips; got != 1 {
			t.Errorf("round %d: Publish took %d round trips, want 1", round, got)
		}
		var ev pstream.Event
		if got := cost(func() {
			if ev, err = sub.Next(ctx); err != nil {
				t.Fatalf("Next: %v", err)
			}
		}); got > 3 {
			t.Errorf("round %d: Next cost %d server commands, want ≤ 3", round, got)
		}
		if ev.Offset != uint64(round) {
			t.Fatalf("round %d: Next delivered offset %d", round, ev.Offset)
		}
		if got := cost(func() {
			if n, err := sub.Ack(ctx, ev); err != nil || n != 1 {
				t.Fatalf("Ack = %d, %v; want 1", n, err)
			}
		}); got != 2 {
			t.Errorf("round %d: Ack cost %d server commands, want 2", round, got)
		}
		if got := cost(func() {
			if _, ok, err := sub.Poll(ctx); err != nil || ok {
				t.Fatalf("drain Poll = %v, %v; want nothing pending", ok, err)
			}
		}); got > 2 {
			t.Errorf("round %d: drain Poll cost %d server commands, want ≤ 2", round, got)
		}
	}

	// Consume up to the last slot below the second stride; the drain after
	// its ack moves the floor from 127 to 128.
	const stride = 64
	evs := make([]pstream.Event, 2*stride-5)
	for i := range evs {
		evs[i] = pstream.Event{Producer: "p", Seq: uint64(i + 6)}
	}
	if err := b.PublishBatch(ctx, topic, evs); err != nil {
		t.Fatalf("PublishBatch: %v", err)
	}
	for range evs {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if _, err := sub.Ack(ctx, ev); err != nil {
			t.Fatalf("Ack: %v", err)
		}
	}
	probe := kvstore.NewClient(srv.Addr())
	defer probe.Close()
	before, err := probe.DBSize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := cost(func() {
		if _, ok, err := sub.Poll(ctx); err != nil || ok {
			t.Fatalf("drain Poll = %v, %v; want nothing pending", ok, err)
		}
	}); got != 2+6 {
		t.Errorf("stride-crossing drain Poll cost %d server commands, want 8 (2 + a 6-command trim pass)", got)
	}
	after, err := probe.DBSize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The pass collected the second stride's events, ack counters and
	// claim records; the first stride's went when the floor crossed 64.
	if before-after != 3*stride {
		t.Errorf("the trim pass took the key count down by %d, want %d", before-after, 3*stride)
	}

	// An Ack whose remembered record was reclaimed by a peer loses its CAS
	// and takes the stale path: one GET of the record, one of the count,
	// and no INCR.
	const lease = 50 * time.Millisecond
	bl := pstream.NewKV(srv.Addr(), pstream.WithKVLease(lease))
	defer bl.Close()
	const stale = "budget-stale"
	if err := bl.Publish(ctx, stale, pstream.Event{Producer: "p", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	subA, err := bl.SubscribeGroup(ctx, stale, "g", "a")
	if err != nil {
		t.Fatal(err)
	}
	subB, err := bl.SubscribeGroup(ctx, stale, "g", "b")
	if err != nil {
		t.Fatal(err)
	}
	ea, ok, err := subA.Poll(ctx)
	if err != nil || !ok {
		t.Fatalf("A Poll = %v, %v", ok, err)
	}
	time.Sleep(lease + lease/2)
	eb, ok, err := subB.Poll(ctx)
	if err != nil || !ok || eb.Offset != ea.Offset {
		t.Fatalf("B reclaim Poll = %+v, %v, %v; want offset %d", eb, ok, err, ea.Offset)
	}
	if n, err := subB.Ack(ctx, eb); err != nil || n != 1 {
		t.Fatalf("B Ack = %d, %v; want 1", n, err)
	}
	if got := cost(func() {
		if n, err := subA.Ack(ctx, ea); err != nil || n != 1 {
			t.Fatalf("stale Ack = %d, %v; want 1", n, err)
		}
	}); got != 3 {
		t.Errorf("stale Ack cost %d server commands, want 3 (lost CAS, GET, count GET)", got)
	}
	if raw, _, err := kvstore.Get(ctx, probe, fmt.Sprintf("ps:%s:a:%d", stale, ea.Offset)); err != nil || string(raw) != "1" {
		t.Fatalf("ack counter after the stale Ack = %q, %v; want 1", raw, err)
	}
}

// TestGroupMemberDoesNotStallOnACollectedSlot walks member A off a lost
// claim onto a slot that peer B then consumes before A's wait arrives: B
// takes slots 0–4, acks them and closes, which trims the topic past slot
// 4. A's wait on the collected slot must end at once, so A rescans and
// takes the next event, instead of sitting out a 15 s wait round.
func TestGroupMemberDoesNotStallOnACollectedSlot(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv := newGroupServer(t)
	const topic, group = "walk", "g"
	slot := func(i int) string { return fmt.Sprintf("ps:%s:e:%d", topic, i) }
	claim3 := "ps:" + topic + ":g:" + group + ":c:3"

	// A pauses before its claim CAS on slot 3 and before its wait on
	// slot 4, each once.
	casPaused, casResume := make(chan struct{}), make(chan struct{})
	waitPaused, waitResume := make(chan struct{}), make(chan struct{})
	var sawCAS, sawWait bool
	bA := pstream.NewKV(srv.Addr(), pstream.WithKVWrap(func(kv kvstore.KV) kvstore.KV {
		return kvstore.NewTap(kv, func(name string, args [][]byte, _ bool) kvstore.TapDone {
			switch {
			case name == "CAS" && string(args[0]) == claim3 && !sawCAS:
				sawCAS = true
				close(casPaused)
				<-casResume
			case name == "WAITGET" && string(args[0]) == slot(4) && !sawWait:
				sawWait = true
				close(waitPaused)
				<-waitResume
			}
			return func([][]byte, error) {}
		})
	}))
	defer bA.Close()
	bB := pstream.NewKV(srv.Addr())
	defer bB.Close()
	publish := func(seq uint64) {
		t.Helper()
		if err := bB.Publish(ctx, topic, pstream.Event{Producer: "p", Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	subA, err := bA.SubscribeGroup(ctx, topic, group, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer subA.Close()
	subB, err := bB.SubscribeGroup(ctx, topic, group, "b")
	if err != nil {
		t.Fatal(err)
	}
	var held []pstream.Event
	take := func() {
		t.Helper()
		ev, ok, err := subB.Poll(ctx)
		if err != nil || !ok {
			t.Fatalf("B Poll = %v, %v", ok, err)
		}
		held = append(held, ev)
	}
	for i := 1; i <= 3; i++ {
		publish(uint64(i))
		take()
	}

	type result struct {
		ev  pstream.Event
		err error
		at  time.Time
	}
	done := make(chan result, 1)
	go func() {
		ev, err := subA.Next(ctx)
		done <- result{ev, err, time.Now()}
	}()
	publish(4)
	<-casPaused // A found slot 3 filled and is about to claim it
	take()      // B wins slot 3
	close(casResume)
	<-waitPaused // A lost slot 3 and walks to slot 4
	publish(5)
	take()
	for _, ev := range held {
		if _, err := subB.Ack(ctx, ev); err != nil {
			t.Fatalf("B Ack: %v", err)
		}
	}
	if err := subB.Close(); err != nil {
		t.Fatal(err)
	}
	probe := kvstore.NewClient(srv.Addr())
	defer probe.Close()
	if _, ok, err := kvstore.Get(ctx, probe, slot(4)); err != nil || ok {
		t.Fatalf("slot 4 after B's Close: present=%v, %v; want it trimmed", ok, err)
	}
	resumed := time.Now()
	close(waitResume)
	publish(6)
	r := <-done
	if r.err != nil || r.ev.Offset != 5 {
		t.Fatalf("A Next = %+v, %v; want offset 5", r.ev, r.err)
	}
	if d := r.at.Sub(resumed); d > 5*time.Second {
		t.Fatalf("A took %v to get the next event after its wait on a collected slot", d)
	}
}

// TestGroupScanReadsFloorAfterClaims checks that a scan never reads the
// group floor before its claim window: both come from one LREAD, one
// snapshot. Just before member A's read, peer B claims slot 0, acks it and
// closes, which sweeps the floor past it and trims the topic, deleting
// the claim record. A must see slot 0 as settled: no CAS and no DEL on
// slot 0's claim key.
func TestGroupScanReadsFloorAfterClaims(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv := newGroupServer(t)
	const topic, group = "order", "g"
	claimPrefix := "ps:" + topic + ":g:" + group + ":c:"
	claimKey := claimPrefix + "0"
	floorKey := "ps:" + topic + ":g:" + group + ":f"

	bB := pstream.NewKV(srv.Addr())
	defer bB.Close()
	if err := bB.Publish(ctx, topic, pstream.Event{Producer: "p", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	subB, err := bB.SubscribeGroup(ctx, topic, group, "b")
	if err != nil {
		t.Fatal(err)
	}
	probe := kvstore.NewClient(srv.Addr())
	defer probe.Close()

	has := func(args [][]byte, key string) bool {
		for _, a := range args {
			if string(a) == key {
				return true
			}
		}
		return false
	}
	var injected bool
	var touched []string
	peer := func() {
		ev, ok, err := subB.Poll(ctx)
		if err != nil || !ok || ev.Offset != 0 {
			t.Errorf("B Poll = %+v, %v, %v; want offset 0", ev, ok, err)
			return
		}
		if _, err := subB.Ack(ctx, ev); err != nil {
			t.Errorf("B Ack: %v", err)
			return
		}
		if err := subB.Close(); err != nil {
			t.Errorf("B Close: %v", err)
			return
		}
		if _, held, err := kvstore.Get(ctx, probe, claimKey); err != nil || held {
			t.Errorf("B's trim left the claim record: held=%v err=%v", held, err)
		}
	}
	tap := func(name string, args [][]byte, _ bool) kvstore.TapDone {
		switch {
		case has(args, floorKey) && !injected:
			injected = true
			if name != "LREAD" || !has(args, claimPrefix) {
				t.Errorf("A read its group floor with %s %q, apart from its claim window", name, args)
			}
			peer()
		case (name == "CAS" || name == "DEL") && has(args, claimKey):
			touched = append(touched, name)
		}
		return func([][]byte, error) {}
	}
	bA := pstream.NewKV(srv.Addr(), pstream.WithKVWrap(func(kv kvstore.KV) kvstore.KV {
		return kvstore.NewTap(kv, tap)
	}))
	defer bA.Close()
	subA, err := bA.SubscribeGroup(ctx, topic, group, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := subA.Poll(ctx); err != nil || ok {
		t.Fatalf("A Poll = %v, %v; want nothing on a settled topic", ok, err)
	}
	if !injected {
		t.Fatal("A's scan never read the group floor")
	}
	if len(touched) > 0 {
		t.Fatalf("A issued %v on slot 0's swept claim key", touched)
	}
	if floor, _, err := kvstore.Get(ctx, probe, floorKey); err != nil || string(floor) != "1" {
		t.Fatalf("floor = %q, %v; want 1", floor, err)
	}
}

// TestGroupClaimedRecordsDropOnceFloorPasses bounds the records a member
// remembers for its claims: claims it never acks, whose leases expire and
// which a peer reclaims and acks, are forgotten by the member's first scan
// after the floor passes them.
func TestGroupClaimedRecordsDropOnceFloorPasses(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv := newGroupServer(t)
	const lease = 50 * time.Millisecond
	b := pstream.NewKV(srv.Addr(), pstream.WithKVLease(lease))
	defer b.Close()
	const topic, n = "bound", 3
	for i := 0; i < n; i++ {
		if err := b.Publish(ctx, topic, pstream.Event{Producer: "p", Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	subA, err := b.SubscribeGroup(ctx, topic, "g", "a")
	if err != nil {
		t.Fatal(err)
	}
	defer subA.Close()
	subB, err := b.SubscribeGroup(ctx, topic, "g", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer subB.Close()
	for i := 0; i < n; i++ {
		if _, ok, err := subA.Poll(ctx); err != nil || !ok {
			t.Fatalf("A Poll %d = %v, %v", i, ok, err)
		}
	}
	if got := pstream.ClaimedCount(subA); got != n {
		t.Fatalf("A remembers %d claims, want %d", got, n)
	}
	time.Sleep(lease + lease/2)
	for i := 0; i < n; i++ {
		ev, ok, err := subB.Poll(ctx)
		if err != nil || !ok {
			t.Fatalf("B reclaim Poll %d = %v, %v", i, ok, err)
		}
		if _, err := subB.Ack(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := subB.Poll(ctx); err != nil || ok { // sweeps the floor to n
		t.Fatalf("B sweep Poll = %v, %v", ok, err)
	}
	if _, ok, err := subA.Poll(ctx); err != nil || ok {
		t.Fatalf("A Poll after the sweep = %v, %v", ok, err)
	}
	if got := pstream.ClaimedCount(subA); got != 0 {
		t.Fatalf("A still remembers %d claims once the floor passed them", got)
	}
	if got := pstream.ClaimedCount(subB); got != 0 {
		t.Fatalf("B remembers %d claims after acking all of them", got)
	}
}

// TestKVBrokerGroupTrimBoundsServerKeys runs one group member over n
// evict-on-ack events and closes it. The trim is on with no option, so
// the server keeps the same handful of keys at n = 500 and n = 2,000, and
// its passes cost the consume side little: at most 7.2 commands per event,
// about what it cost before any trimming.
func TestKVBrokerGroupTrimBoundsServerKeys(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	run := func(n int) (keys int64, perEvent float64) {
		srv := newGroupServer(t)
		id := connector.NewID()[:8]
		st, err := store.New("trim-"+id, local.New("trim-conn-"+id))
		if err != nil {
			t.Fatal(err)
		}
		defer store.Unregister("trim-" + id)
		b := pstream.NewKV(srv.Addr())
		defer b.Close()
		prod := pstream.NewProducer[[]byte](st, b, "s", pstream.WithEvictOnAck(1))
		const batch = 50
		for sent := 0; sent < n; sent += batch {
			vals := make([][]byte, batch)
			for i := range vals {
				vals[i] = make([]byte, 16)
			}
			if err := prod.SendBatch(ctx, vals); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
		}
		before := srv.Commands()
		cons, err := pstream.NewConsumer[[]byte](ctx, b, "s", "m", pstream.WithGroup("g"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := cons.NextValue(ctx); err != nil {
				t.Fatalf("NextValue %d: %v", i, err)
			}
		}
		if err := cons.Close(); err != nil {
			t.Fatal(err)
		}
		perEvent = float64(srv.Commands()-before) / float64(n)
		probe := kvstore.NewClient(srv.Addr())
		defer probe.Close()
		if keys, err = probe.DBSize(ctx); err != nil {
			t.Fatal(err)
		}
		if got := st.Metrics().Evicts; got != uint64(n) {
			t.Fatalf("store Evicts = %d, want %d", got, n)
		}
		return keys, perEvent
	}
	small, smallCost := run(500)
	large, largeCost := run(2000)
	t.Logf("server keys %d and %d; consume side %.2f and %.2f commands per event", small, large, smallCost, largeCost)
	if small != large {
		t.Errorf("server keys grew with the event count: %d at 500, %d at 2000", small, large)
	}
	for _, c := range []float64{smallCost, largeCost} {
		if c > 7.2 {
			t.Errorf("consume side cost %.2f commands per event, want ≤ 7.2", c)
		}
	}
}

// TestGroupHeartbeatClaimMarker: a claim is stealable before its lease
// only once its holder's heartbeat key is gone. Members A and B share a
// group with a 3 s lease; B heartbeats with a 150 ms ttl. A member with
// the default ttl that claims and goes silent, while its heartbeat still
// runs, keeps its claim for the whole lease; one that Closes with the
// claim unacked loses it to B at once, because its Leave deleted the key.
func TestGroupHeartbeatClaimMarker(t *testing.T) {
	const lease = 3 * time.Second
	srv := newGroupServer(t)
	plain := pstream.NewKV(srv.Addr(), pstream.WithKVLease(lease))
	t.Cleanup(func() { plain.Close() })
	beating := pstream.NewKV(srv.Addr(), pstream.WithKVLease(lease), pstream.WithKVHeartbeatTTL(150*time.Millisecond))
	t.Cleanup(func() { beating.Close() })
	ctx := context.Background()

	for _, tc := range []struct {
		name   string
		holder *pstream.KVBroker
		steal  bool
	}{
		{"SilentHeartbeatingMemberKeepsLease", plain, false},
		{"ClosedHeartbeatingMemberLosesClaim", beating, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topic := "marker-" + tc.name
			if err := plain.Publish(ctx, topic, pstream.Event{Producer: "p", Seq: 1}); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			a, err := tc.holder.SubscribeGroup(ctx, topic, "g", "a")
			if err != nil {
				t.Fatalf("SubscribeGroup(a): %v", err)
			}
			claimed, err := a.Next(ctx)
			if err != nil {
				t.Fatalf("a Next: %v", err)
			}
			if tc.steal {
				a.Close()
			} else {
				defer a.Close()
			}
			b, err := beating.SubscribeGroup(ctx, topic, "g", "b")
			if err != nil {
				t.Fatalf("SubscribeGroup(b): %v", err)
			}
			defer b.Close()
			start := time.Now()
			nctx, cancel := context.WithTimeout(ctx, lease/3)
			defer cancel()
			got, err := b.Next(nctx)
			switch {
			case !tc.steal && err == nil:
				t.Fatalf("b took offset %d after %v, inside a silent member's %v lease", got.Offset, time.Since(start), lease)
			case tc.steal && err != nil:
				t.Fatalf("b Next: %v; want the closed member's claim well inside the %v lease", err, lease)
			case tc.steal && got.Offset != claimed.Offset:
				t.Fatalf("b took offset %d, want the abandoned %d", got.Offset, claimed.Offset)
			}
		})
	}
}

// TestGroupKilledMemberLosesClaimInsideLease: with default-configuration
// brokers and a 20 s lease, a member that claims and then dies — its
// heartbeat stops, its claim stays — loses the claim to a peer within two
// default heartbeat ttls: the server expires its key within one ttl, and
// the peer's cached alive verdict adds at most a third of one.
func TestGroupKilledMemberLosesClaimInsideLease(t *testing.T) {
	const lease = 20 * time.Second
	srv := newGroupServer(t)
	ba := pstream.NewKV(srv.Addr(), pstream.WithKVLease(lease))
	t.Cleanup(func() { ba.Close() })
	bb := pstream.NewKV(srv.Addr(), pstream.WithKVLease(lease))
	t.Cleanup(func() { bb.Close() })
	ctx := context.Background()
	const topic = "killed-holder"
	if err := ba.Publish(ctx, topic, pstream.Event{Producer: "p", Seq: 1}); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	a, err := ba.SubscribeGroup(ctx, topic, "g", "a")
	if err != nil {
		t.Fatalf("SubscribeGroup(a): %v", err)
	}
	claimed, err := a.Next(ctx)
	if err != nil {
		t.Fatalf("a Next: %v", err)
	}
	hb := pstream.GroupHeartbeat(a)
	if hb == nil {
		t.Fatal("a group member of a default KVBroker has no heartbeat")
	}
	hb.Kill()
	killed := time.Now()

	b, err := bb.SubscribeGroup(ctx, topic, "g", "b")
	if err != nil {
		t.Fatalf("SubscribeGroup(b): %v", err)
	}
	defer b.Close()
	limit := 2 * pstream.DefaultHeartbeatTTL
	nctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	got, err := b.Next(nctx)
	if err != nil {
		t.Fatalf("b Next: %v; want the killed member's claim within %v, inside the %v lease", err, limit, lease)
	}
	if got.Offset != claimed.Offset {
		t.Fatalf("b took offset %d, want the abandoned %d", got.Offset, claimed.Offset)
	}
	t.Logf("claim taken %v after its holder died (lease %v)", time.Since(killed), lease)
}
