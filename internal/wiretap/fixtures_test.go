package wiretap_test

// Committed trace fixtures: recorded interleavings checked into testdata/
// and replayed as ordinary go test cases. Each fixture has a generator —
// an orchestrated live run, gated behind WIRETAP_UPDATE=1 so `go test`
// never silently rewrites evidence — and a replay test that loads the
// committed bytes and asserts the recorded interleaving reproduces
// deterministically on a fresh server.
//
// Regenerate with:
//
//	WIRETAP_UPDATE=1 go test ./internal/wiretap/ -run Fixture
//
// The claim-race generator doubles as a live regression test for the
// guard-context fix in tryClaim (it runs on every `go test`, with or
// without WIRETAP_UPDATE): it forces the claimer's context to die between
// the create-CAS and the floor guard and asserts the undo still runs.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/telemetry"
	"proxystore/internal/wiretap"
)

func updateFixtures() bool { return os.Getenv("WIRETAP_UPDATE") != "" }

func fixturePath(name string) string { return filepath.Join("testdata", name) }

func saveFixture(t *testing.T, tr *wiretap.Trace, name string) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(fixturePath(name)); err != nil {
		t.Fatalf("saving fixture %s: %v", name, err)
	}
	t.Logf("wrote %s: %d ops", fixturePath(name), len(tr.Ops))
}

func loadFixture(t *testing.T, name string) *wiretap.Trace {
	t.Helper()
	tr, err := wiretap.Load(fixturePath(name))
	if err != nil {
		t.Fatalf("loading committed fixture %s (regenerate with WIRETAP_UPDATE=1): %v", name, err)
	}
	if len(tr.Ops) == 0 {
		t.Fatalf("fixture %s is empty", name)
	}
	return tr
}

// assertDeterministicReplay replays tr twice at 1× on fresh servers and
// asserts the tentpole guarantee: identical issue orders, identical
// final key sets, zero divergence from the recording, nothing stalled or
// straggling. It returns the (shared) final state for scenario asserts.
func assertDeterministicReplay(t *testing.T, tr *wiretap.Trace) map[string]string {
	t.Helper()
	r1, s1 := replayOnce(t, tr, 1)
	r2, s2 := replayOnce(t, tr, 1)
	for i, r := range []*wiretap.Report{r1, r2} {
		if r.Ops != len(tr.Ops) {
			t.Fatalf("replay %d ran %d ops, trace has %d", i+1, r.Ops, len(tr.Ops))
		}
		if r.Divergences != 0 {
			t.Fatalf("replay %d diverged %d times:\n%s", i+1, r.Divergences, joinDetails(r))
		}
		if r.Stragglers != 0 || r.StallReleases != 0 {
			t.Fatalf("replay %d: %d stragglers, %d stall releases", i+1, r.Stragglers, r.StallReleases)
		}
	}
	if !reflect.DeepEqual(r1.IssueOrder, r2.IssueOrder) {
		t.Fatal("the two replays issued commands in different orders")
	}
	if diff := wiretap.SnapshotDiff(s1, s2); diff != "" {
		t.Fatalf("the two replays left different server state:\n%s", diff)
	}
	return s1
}

// hookWrap composes an orchestration tap outside the recorder's: the
// recorder logs each operation's completion first, then hook runs —
// blocking the calling goroutine at an exact point in the interleaving,
// with the op already on the record.
func hookWrap(rec *wiretap.Recorder, hook func(name string, args [][]byte, reply [][]byte, err error)) func(kvstore.KV) kvstore.KV {
	return func(kv kvstore.KV) kvstore.KV {
		return kvstore.NewTap(rec.WrapKV(kv), func(name string, args [][]byte, _ bool) kvstore.TapDone {
			return func(reply [][]byte, err error) { hook(name, args, reply, err) }
		})
	}
}

const (
	claimRaceFixture = "claim_race.trace"
	churnFixture     = "group_churn.trace"
	failoverFixture  = "failover.trace"
)

// --- Fixture 1: claim undone under a dying context ------------------------

// TestClaimRaceUndoLive reproduces, deterministically and on every run,
// the race the heartbeat-reclaim work fixed in tryClaim: member A's scan
// reads its window (slot 0 filled, its claim record missing) and its
// counters (group floor 0) in one LREAD, and pauses; member B claims the slot,
// acks it, and closes, which sweeps the floor past it and trims the topic
// (GC'ing the claim record); A
// resumes and its create-CAS wins on the swept slot — a claim stranded
// below the floor, invisible to every future sweep — and A's context is
// canceled the instant the CAS completes. The floor guard must still run
// (it uses context.WithoutCancel) and delete the resurrected claim.
//
// With WIRETAP_UPDATE=1 the recorded interleaving is saved as the
// committed claim_race fixture.
func TestClaimRaceUndoLive(t *testing.T) {
	ctx := context.Background()
	srv := newServer(t)
	rec := wiretap.NewRecorder(wiretap.WithRecorderRegistry(telemetry.NewRegistry()))
	rec.SetMeta("scenario", "claim-race-undo")

	const topic, group = "fx", "g"
	claimKey := "ps:" + topic + ":g:" + group + ":c:0"
	floorKey := "ps:" + topic + ":g:" + group + ":f"

	ctxA, cancelA := context.WithCancel(ctx)
	defer cancelA()
	paused := make(chan struct{})
	resume := make(chan struct{})
	sawPause := false
	hook := func(name string, args [][]byte, reply [][]byte, err error) {
		if name == "LREAD" && err == nil && !sawPause && argsHold(args, floorKey) {
			// A's scan has read its counters (floor 0) with a window
			// that showed slot 0 unclaimed; freeze it here, pre-CAS.
			sawPause = true
			close(paused)
			<-resume
		}
		if name == "CAS" && len(args) == 3 && string(args[0]) == claimKey && err == nil &&
			len(reply) == 1 && string(reply[0]) == "i1" && len(args[1]) == 0 {
			// A's create-CAS just won a swept slot: kill its context
			// before the floor guard, the exact window of the race.
			cancelA()
		}
	}
	bA := pstream.NewKV(srv.Addr(),
		pstream.WithKVWrap(hookWrap(rec, hook)),
		pstream.WithKVTelemetry(telemetry.NewRegistry()))
	defer bA.Close()
	bB := pstream.NewKV(srv.Addr(),
		pstream.WithKVWrap(rec.WrapKV),
		pstream.WithKVTelemetry(telemetry.NewRegistry()))
	defer bB.Close()

	if err := bB.Publish(ctx, topic, pstream.Event{Topic: topic, Producer: "p", Seq: 1,
		ProxyData: []byte("payload-0")}); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	subA, err := bA.SubscribeGroup(ctxA, topic, group, "ma")
	if err != nil {
		t.Fatalf("SubscribeGroup ma: %v", err)
	}
	subB, err := bB.SubscribeGroup(ctx, topic, group, "mb")
	if err != nil {
		t.Fatalf("SubscribeGroup mb: %v", err)
	}

	type pollResult struct {
		ok  bool
		err error
	}
	aDone := make(chan pollResult, 1)
	go func() {
		_, ok, err := subA.Poll(ctxA)
		aDone <- pollResult{ok, err}
	}()

	select {
	case <-paused:
	case <-time.After(10 * time.Second):
		t.Fatal("member A never reached the scan's counter read")
	}
	// A is frozen between its counter read and its CAS. B takes the slot,
	// acks it, and closes: the floor sweeps past it and the trim deletes
	// the claim record.
	evB, ok, err := subB.Poll(ctx)
	if err != nil || !ok || evB.Offset != 0 {
		t.Fatalf("B Poll = %+v, %v, %v; want offset 0", evB, ok, err)
	}
	if _, err := subB.Ack(ctx, evB); err != nil {
		t.Fatalf("B Ack: %v", err)
	}
	if err := subB.Close(); err != nil {
		t.Fatalf("B Close: %v", err)
	}
	probe := kvstore.NewClient(srv.Addr())
	defer probe.Close()
	if _, held, err := kvstore.Get(ctx, probe, claimKey); err != nil {
		t.Fatal(err)
	} else if held {
		t.Fatal("B's trim never GC'd the acked claim record")
	}
	close(resume)

	// A resumes: create-CAS wins on the swept slot, its context dies, and
	// the guard-context floor check must still undo the claim.
	res := <-aDone
	if res.ok {
		t.Fatal("A claimed an event on a fully-settled topic")
	}
	_ = res.err // canceled-context errors after the undo are acceptable

	if raw, held, err := kvstore.Get(ctx, probe, claimKey); err != nil {
		t.Fatal(err)
	} else if held {
		t.Fatalf("claim record %q stranded below the floor: the guard-context undo did not run", raw)
	}
	if floor, held, err := kvstore.Get(ctx, probe, floorKey); err != nil || !held || string(floor) != "1" {
		t.Fatalf("floor = %q, %v, %v; want 1", floor, held, err)
	}

	tr := rec.Trace()
	assertClaimUndoInTrace(t, tr, claimKey)
	if updateFixtures() {
		saveFixture(t, tr, claimRaceFixture)
	}
}

// argsHold reports whether a command's arguments include key.
func argsHold(args [][]byte, key string) bool {
	for _, a := range args {
		if string(a) == key {
			return true
		}
	}
	return false
}

// assertClaimUndoInTrace finds the race's signature in a trace: a winning
// create-CAS on the claim key followed, on the same connection, by a
// winning DEL of it — the guard's undo — with no later write to the key.
func assertClaimUndoInTrace(t *testing.T, tr *wiretap.Trace, claimKey string) {
	t.Helper()
	casAt := -1
	var conn uint64
	for i, op := range tr.Ops {
		if op.Name == "CAS" && len(op.Args) == 3 && string(op.Args[0]) == claimKey &&
			len(op.Args[1]) == 0 && op.Err == "" &&
			len(op.Reply) == 1 && string(op.Reply[0]) == "i1" {
			casAt, conn = i, op.Conn
		}
	}
	if casAt < 0 {
		t.Fatal("trace holds no winning create-CAS on the claim key: the race was not recorded")
	}
	undoAt := -1
	for i := casAt + 1; i < len(tr.Ops); i++ {
		op := tr.Ops[i]
		if op.Name == "DEL" && op.Conn == conn && len(op.Args) == 1 &&
			string(op.Args[0]) == claimKey && op.Err == "" &&
			len(op.Reply) == 1 && string(op.Reply[0]) == "i1" {
			undoAt = i
		}
		if (op.Name == "SET" || op.Name == "CAS") && len(op.Args) > 0 && string(op.Args[0]) == claimKey && i > casAt {
			t.Fatalf("trace op %d rewrites the claim key after the racing CAS", i)
		}
	}
	if undoAt < 0 {
		t.Fatal("trace holds no undo DEL after the racing CAS: the stranded claim was never cleaned up")
	}
}

// TestClaimRaceFixtureReplay replays the committed claim-race trace: the
// interleaving must reproduce exactly — racing CAS wins again, undo DEL
// runs again — and the final state must show no stranded claim.
func TestClaimRaceFixtureReplay(t *testing.T) {
	tr := loadFixture(t, claimRaceFixture)
	claimKey := "ps:fx:g:g:c:0"
	assertClaimUndoInTrace(t, tr, claimKey)
	snap := assertDeterministicReplay(t, tr)
	if v, held := snap[claimKey]; held {
		t.Fatalf("replay stranded claim record %q below the floor", v)
	}
	if snap["ps:fx:g:g:f"] != "1" {
		t.Fatalf("replayed floor = %q, want 1", snap["ps:fx:g:g:f"])
	}
}

// --- Fixture 2: group churn — lease expiry steal --------------------------

// TestGroupChurnFixtureUpdate records the group-churn fixture: member A
// claims slot 0 and abandons it (a crashed member); member B works the
// rest of the queue around the live lease, then steals slot 0 with an
// exact-record CAS once the lease expires, and drains the stream.
func TestGroupChurnFixtureUpdate(t *testing.T) {
	if !updateFixtures() {
		t.Skip("fixture generator; run with WIRETAP_UPDATE=1")
	}
	ctx := context.Background()
	srv := newServer(t)
	rec := wiretap.NewRecorder(wiretap.WithRecorderRegistry(telemetry.NewRegistry()))
	rec.SetMeta("scenario", "group-churn-steal")

	const topic, group = "ch", "g"
	const lease = 75 * time.Millisecond
	b := pstream.NewKV(srv.Addr(),
		pstream.WithKVWrap(rec.WrapKV),
		pstream.WithKVLease(lease),
		pstream.WithKVTelemetry(telemetry.NewRegistry()))
	defer b.Close()

	const items = 4
	for i := 0; i < items; i++ {
		ev := pstream.Event{Topic: topic, Producer: "p", Seq: uint64(i + 1),
			ProxyData: []byte(fmt.Sprintf("payload-%d", i))}
		if err := b.Publish(ctx, topic, ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	if err := b.Publish(ctx, topic, pstream.Event{Topic: topic, Producer: "p",
		Seq: items + 1, End: true}); err != nil {
		t.Fatalf("Publish end: %v", err)
	}

	subA, err := b.SubscribeGroup(ctx, topic, group, "ma")
	if err != nil {
		t.Fatal(err)
	}
	subB, err := b.SubscribeGroup(ctx, topic, group, "mb")
	if err != nil {
		t.Fatal(err)
	}

	// A claims slot 0 and walks away mid-lease.
	evA, ok, err := subA.Poll(ctx)
	if err != nil || !ok || evA.Offset != 0 {
		t.Fatalf("A Poll = %+v, %v, %v; want offset 0", evA, ok, err)
	}

	// B consumes everything it can reach around A's live lease.
	for want := uint64(1); want < items; want++ {
		ev, ok, err := subB.Poll(ctx)
		if err != nil || !ok || ev.Offset != want {
			t.Fatalf("B Poll = %+v, %v, %v; want offset %d", ev, ok, err, want)
		}
		if _, err := subB.Ack(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}

	// The lease expires; B's next scan steals A's claim with an
	// exact-record CAS and the queue drains to the End marker.
	time.Sleep(lease + 50*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	stole := false
	for {
		ev, ok, err := subB.Poll(ctx)
		if err != nil {
			t.Fatalf("B Poll: %v", err)
		}
		if ok && ev.End {
			break
		}
		if ok {
			if ev.Offset != 0 {
				t.Fatalf("B stole offset %d, want 0", ev.Offset)
			}
			stole = true
			if _, err := subB.Ack(ctx, ev); err != nil {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("B never drained the stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !stole {
		t.Fatal("B reached End without stealing slot 0")
	}
	tr := rec.Trace()
	assertStealInTrace(t, tr, "ps:"+topic+":g:"+group+":c:0", "ma", "mb")
	saveFixture(t, tr, churnFixture)
}

// assertStealInTrace finds the lease-expiry steal: a winning CAS on the
// claim key whose old value is the abandoned member's exact claim record
// and whose new value names the thief.
func assertStealInTrace(t *testing.T, tr *wiretap.Trace, claimKey, victim, thief string) {
	t.Helper()
	for _, op := range tr.Ops {
		if op.Name == "CAS" && len(op.Args) == 3 && string(op.Args[0]) == claimKey &&
			claimBy(op.Args[1], victim) && claimBy(op.Args[2], thief) &&
			op.Err == "" && len(op.Reply) == 1 && string(op.Reply[0]) == "i1" {
			return
		}
	}
	t.Fatalf("trace holds no winning exact-record steal CAS on %s (%s from %s)", claimKey, thief, victim)
}

// claimBy reports whether raw is a live claim record of member: the
// broker writes "h|member|deadline"; the committed fixtures were recorded
// when a member without heartbeats wrote "c|member|deadline".
func claimBy(raw []byte, member string) bool {
	return bytes.HasPrefix(raw, []byte("h|"+member+"|")) || bytes.HasPrefix(raw, []byte("c|"+member+"|"))
}

// TestGroupChurnFixtureReplay replays the committed churn trace twice:
// the steal interleaving must reproduce, and the drained queue must look
// the same on every replay — floor past the End marker, no claim records
// left, every event slot intact.
func TestGroupChurnFixtureReplay(t *testing.T) {
	tr := loadFixture(t, churnFixture)
	claimPrefix := "ps:ch:g:g:c:"
	assertStealInTrace(t, tr, claimPrefix+"0", "ma", "mb")
	snap := assertDeterministicReplay(t, tr)
	if got := snap["ps:ch:g:g:f"]; got != "5" {
		t.Fatalf("replayed floor = %q, want 5 (4 payloads + End swept)", got)
	}
	for k, v := range snap {
		if strings.HasPrefix(k, claimPrefix) {
			t.Fatalf("claim record %s=%q survived the drain", k, v)
		}
	}
	for i := 0; i < 4; i++ {
		if _, held := snap[fmt.Sprintf("ps:ch:e:%d", i)]; !held {
			t.Fatalf("event slot %d missing after replay", i)
		}
	}
}

// --- Fixture 3: failover — consuming across a primary kill ----------------

// TestFailoverFixtureUpdate records the failover fixture: a group member
// consumes from a primary/replica pair, the primary dies mid-run, and
// consumption finishes against the promoted replica. The recorded ops
// that failed during the outage stay in the trace (replay treats
// recorded errors as environmental); the successful ops replay unchanged
// against one healthy server.
func TestFailoverFixtureUpdate(t *testing.T) {
	if !updateFixtures() {
		t.Skip("fixture generator; run with WIRETAP_UPDATE=1")
	}
	ctx := context.Background()
	dir := t.TempDir()
	prim, err := kvstore.NewServer("127.0.0.1:0",
		kvstore.WithPersistence(filepath.Join(dir, "primary.aof")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close() })
	repl, err := kvstore.NewServer("127.0.0.1:0",
		kvstore.WithPersistence(filepath.Join(dir, "replica.aof")),
		kvstore.WithReplicaOf(prim.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repl.Close() })

	rec := wiretap.NewRecorder(wiretap.WithRecorderRegistry(telemetry.NewRegistry()))
	rec.SetMeta("scenario", "failover")
	const topic, group = "fo", "g"
	b := pstream.NewKV(prim.Addr()+"|"+repl.Addr(),
		pstream.WithKVWrap(rec.WrapKV),
		pstream.WithKVTelemetry(telemetry.NewRegistry()))
	defer b.Close()

	const items = 3
	for i := 0; i < items; i++ {
		ev := pstream.Event{Topic: topic, Producer: "p", Seq: uint64(i + 1),
			ProxyData: []byte(fmt.Sprintf("payload-%d", i))}
		if err := b.Publish(ctx, topic, ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	if err := b.Publish(ctx, topic, pstream.Event{Topic: topic, Producer: "p",
		Seq: items + 1, End: true}); err != nil {
		t.Fatalf("Publish end: %v", err)
	}

	sub, err := b.SubscribeGroup(ctx, topic, group, "m0")
	if err != nil {
		t.Fatal(err)
	}
	ev, ok, err := sub.Poll(ctx)
	if err != nil || !ok || ev.Offset != 0 {
		t.Fatalf("Poll = %+v, %v, %v; want offset 0", ev, ok, err)
	}
	if _, err := sub.Ack(ctx, ev); err != nil {
		t.Fatal(err)
	}

	// Kill the primary between operations (graceful close drains the
	// replication feed, so the replica holds every acknowledged write)
	// and finish the stream against the promoted replica.
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	consumed := map[uint64]bool{0: true}
	deadline := time.Now().Add(20 * time.Second)
	for {
		ev, ok, err := sub.Poll(ctx)
		if err != nil {
			// The outage window: recorded, expected, retried.
			if time.Now().After(deadline) {
				t.Fatalf("failover never completed: %v", err)
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if ok && ev.End {
			break
		}
		if ok {
			consumed[ev.Offset] = true
			if _, err := sub.Ack(ctx, ev); err != nil {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never drained after failover")
		}
		if !ok {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(consumed) != items {
		t.Fatalf("consumed %d items across the failover, want %d", len(consumed), items)
	}
	tr := rec.Trace()
	saveFixture(t, tr, failoverFixture)
}

// TestFailoverFixtureReplay replays the committed failover trace against
// one healthy server: the interleaving recorded across two backends must
// replay deterministically on one, with the full stream drained.
func TestFailoverFixtureReplay(t *testing.T) {
	tr := loadFixture(t, failoverFixture)
	snap := assertDeterministicReplay(t, tr)
	if got := snap["ps:fo:g:g:f"]; got != "4" {
		t.Fatalf("replayed floor = %q, want 4 (3 payloads + End swept)", got)
	}
	for i := 0; i < 3; i++ {
		if _, held := snap[fmt.Sprintf("ps:fo:e:%d", i)]; !held {
			t.Fatalf("event slot %d missing after replay", i)
		}
	}
}
