package pstream_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
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
// ack is the LREAD, the floor CAS and the claim-record DELRANGE.
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

	cost := func(f func()) uint64 {
		before := srv.Commands()
		f()
		return srv.Commands() - before
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
		}); got > 3 {
			t.Errorf("round %d: drain Poll cost %d server commands, want ≤ 3", round, got)
		}
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
	probe := kvstore.NewClient(srv.Addr())
	defer probe.Close()
	if raw, _, err := kvstore.Get(ctx, probe, fmt.Sprintf("ps:%s:a:%d", stale, ea.Offset)); err != nil || string(raw) != "1" {
		t.Fatalf("ack counter after the stale Ack = %q, %v; want 1", raw, err)
	}
}

// TestGroupScanReadsFloorAfterClaims checks that a scan never reads the
// group floor before its claim window: both come from one LREAD, one
// snapshot. Just before member A's read, peer B claims slot 0, acks it and
// sweeps the floor past it, which deletes the claim record. A must see
// slot 0 as settled: no CAS and no DEL on slot 0's claim key.
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
		if _, _, err := subB.Poll(ctx); err != nil {
			t.Errorf("B sweep Poll: %v", err)
			return
		}
		if _, held, err := kvstore.Get(ctx, probe, claimKey); err != nil || held {
			t.Errorf("B's sweep left the claim record: held=%v err=%v", held, err)
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
