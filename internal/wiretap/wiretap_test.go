package wiretap_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/telemetry"
	"proxystore/internal/wiretap"
)

func sampleTrace() *wiretap.Trace {
	return &wiretap.Trace{
		Meta: map[string]string{"profile": "test", "items": "3"},
		Ops: []wiretap.Op{
			{Conn: 0, Idx: 0, Plane: wiretap.PlaneKV, Name: "SET",
				Args:  [][]byte{[]byte("k"), []byte("v")},
				Reply: nil, Start: 10, End: 20},
			{Conn: 1, Idx: 0, Plane: wiretap.PlaneKV, Name: "GET",
				Args:  [][]byte{[]byte("k")},
				Reply: [][]byte{[]byte("b"), []byte("v")}, Start: 30, End: 45, Dep: 1},
			{Conn: 1, Idx: 1, Plane: wiretap.PlaneKV, Name: "WAITGET", Blocking: true,
				Args:  [][]byte{[]byte("k2"), []byte("1000000")},
				Reply: [][]byte{[]byte("n")}, Err: "", Start: 50, End: 1050, Dep: 2},
			{Conn: 2, Idx: 0, Plane: "msg", Name: "REQUEST",
				Args:  [][]byte{{0x01, 0x02, 0x00}},
				Reply: [][]byte{{0x03}}, Start: 60, End: 70, Dep: 2},
			{Conn: 0, Idx: 1, Plane: wiretap.PlaneKV, Name: "CAS",
				Args: [][]byte{[]byte("k"), nil, []byte("w")},
				Err:  "kvstore: dialing: refused", Start: 80, End: 90, Dep: 4},
		},
	}
}

// tracesEquivalent compares traces up to the nil-vs-empty []byte
// distinction, which the codec does not preserve.
func tracesEquivalent(t *testing.T, a, b *wiretap.Trace) {
	t.Helper()
	if !reflect.DeepEqual(a.Meta, b.Meta) {
		t.Fatalf("meta mismatch: %v != %v", a.Meta, b.Meta)
	}
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("op count mismatch: %d != %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		oa, ob := a.Ops[i], b.Ops[i]
		if oa.Conn != ob.Conn || oa.Idx != ob.Idx || oa.Plane != ob.Plane ||
			oa.Name != ob.Name || oa.Err != ob.Err || oa.Blocking != ob.Blocking ||
			oa.Start != ob.Start || oa.End != ob.End || oa.Dep != ob.Dep {
			t.Fatalf("op %d fields mismatch:\n%+v\n%+v", i, oa, ob)
		}
		for what, pair := range map[string][2][][]byte{
			"args":  {oa.Args, ob.Args},
			"reply": {oa.Reply, ob.Reply},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("op %d %s length mismatch: %d != %d", i, what, len(pair[0]), len(pair[1]))
			}
			for j := range pair[0] {
				if !bytes.Equal(pair[0][j], pair[1][j]) {
					t.Fatalf("op %d %s[%d]: %q != %q", i, what, j, pair[0][j], pair[1][j])
				}
			}
		}
	}
}

func TestTraceCodecRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := wiretap.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	tracesEquivalent(t, tr, got)

	// Encoding is deterministic: encode(decode(x)) == encode(x).
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	var buf3 bytes.Buffer
	if err := tr.Encode(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("re-encoded trace differs byte-wise from original encoding")
	}
}

func TestTraceKVKeys(t *testing.T) {
	tr := &wiretap.Trace{Ops: []wiretap.Op{
		{Plane: wiretap.PlaneKV, Name: "SET", Args: [][]byte{[]byte("a"), []byte("v")}},
		{Plane: wiretap.PlaneKV, Name: "MGET", Args: [][]byte{[]byte("b"), []byte("c")}},
		{Plane: wiretap.PlaneKV, Name: "DELRANGE", Args: [][]byte{[]byte("p:"), []byte("1"), []byte("3")}},
		{Plane: wiretap.PlaneKV, Name: "PIPELINE", Args: [][]byte{
			[]byte("1"), []byte("INCR"), []byte("1"), []byte("n")}},
		// An LAPPEND of two values that made the length 5 took slots 3
		// and 4; an LREAD names its length key and its counter keys.
		{Plane: wiretap.PlaneKV, Name: "PIPELINE", Args: [][]byte{[]byte("2"),
			[]byte("LAPPEND"), []byte("4"), []byte("L"), []byte("s:"), []byte("x"), []byte("y"),
			[]byte("LREAD"), []byte("6"), []byte("L"), []byte("0"), []byte("32"), []byte("1"), []byte("s:"), []byte("f")},
			Reply: [][]byte{[]byte("i5"), []byte("a3"), []byte("i5"), []byte("n"), []byte("a0")}},
		{Plane: "msg", Name: "REQUEST", Args: [][]byte{[]byte("ignored")}},
	}}
	got := tr.KVKeys()
	want := []string{"L", "a", "b", "c", "f", "n", "p:1", "p:2", "s:3", "s:4"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KVKeys = %v, want %v", got, want)
	}
}

func newServer(t *testing.T) *kvstore.Server {
	t.Helper()
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// recordGroupRun drives a concurrent two-member group consumption through
// a recording broker and returns the trace plus the recording server's
// final state over the trace's key set.
func recordGroupRun(t *testing.T) (*wiretap.Trace, map[string]string) {
	t.Helper()
	ctx := context.Background()
	srv := newServer(t)
	rec := wiretap.NewRecorder(wiretap.WithRecorderRegistry(telemetry.NewRegistry()))
	b := pstream.NewKV(srv.Addr(),
		pstream.WithKVWrap(rec.WrapKV),
		pstream.WithKVTelemetry(telemetry.NewRegistry()))

	const items = 8
	for i := 0; i < items; i++ {
		ev := pstream.Event{Topic: "t", Producer: "p", Seq: uint64(i + 1),
			ProxyData: []byte(fmt.Sprintf("payload-%d", i))}
		if err := b.Publish(ctx, "t", ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	if err := b.Publish(ctx, "t", pstream.Event{Topic: "t", Producer: "p", Seq: items + 1, End: true}); err != nil {
		t.Fatalf("Publish end: %v", err)
	}

	// Two group members claim alternately from one goroutine: a real
	// multi-member claim interleaving, but causally chained — every op
	// happens-before the next — so the recording is exactly reproducible.
	// (Free-running races are exercised by TestReplayCompressed's
	// convergence check and the orchestrated fixtures.)
	consumed := map[uint64]string{}
	var subs [2]pstream.Subscription
	for m := range subs {
		sub, err := b.SubscribeGroup(ctx, "t", "g", fmt.Sprintf("m%d", m))
		if err != nil {
			t.Fatalf("SubscribeGroup: %v", err)
		}
		subs[m] = sub
	}
	var ended [2]bool
	for !ended[0] || !ended[1] {
		for m, sub := range subs {
			if ended[m] {
				continue
			}
			ev, ok, err := sub.Poll(ctx)
			if err != nil {
				t.Fatalf("Poll m%d: %v", m, err)
			}
			if !ok {
				continue
			}
			if ev.End {
				ended[m] = true
				continue
			}
			member := fmt.Sprintf("m%d", m)
			if prev, dup := consumed[ev.Offset]; dup {
				t.Fatalf("offset %d consumed by %s and %s", ev.Offset, prev, member)
			}
			consumed[ev.Offset] = member
			if _, err := sub.Ack(ctx, ev); err != nil {
				t.Fatalf("Ack: %v", err)
			}
		}
	}
	for m := range consumed {
		if consumed[m] == "" {
			t.Fatalf("offset %d unconsumed", m)
		}
	}
	if len(consumed) != items {
		t.Fatalf("group consumed %d events, want %d", len(consumed), items)
	}
	b.Close()

	tr := rec.Trace()
	if len(tr.Ops) == 0 {
		t.Fatal("recorder captured no operations")
	}
	probe := kvstore.NewClient(srv.Addr())
	defer probe.Close()
	snap, err := wiretap.KVSnapshot(ctx, probe, tr.KVKeys())
	if err != nil {
		t.Fatalf("KVSnapshot: %v", err)
	}
	return tr, snap
}

// replayOnce replays tr at speed against a fresh server, returning the
// report and the final state over the trace's key set.
func replayOnce(t *testing.T, tr *wiretap.Trace, speed float64) (*wiretap.Report, map[string]string) {
	t.Helper()
	ctx := context.Background()
	srv := newServer(t)
	cl := kvstore.NewClient(srv.Addr())
	defer cl.Close()
	rep := wiretap.NewReplayer(
		wiretap.WithKVTarget(cl),
		wiretap.WithSpeed(speed),
		wiretap.WithReplayRegistry(telemetry.NewRegistry()))
	report, err := rep.Run(ctx, tr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap, err := wiretap.KVSnapshot(ctx, cl, tr.KVKeys())
	if err != nil {
		t.Fatalf("KVSnapshot: %v", err)
	}
	return report, snap
}

// TestReplayDeterministic is the tentpole guarantee: record a live
// concurrent group run once, replay it twice at 1×, and the two replays
// issue identical command sequences and leave byte-identical server
// state — which also matches the recording server's state.
func TestReplayDeterministic(t *testing.T) {
	tr, liveSnap := recordGroupRun(t)

	r1, s1 := replayOnce(t, tr, 1)
	r2, s2 := replayOnce(t, tr, 1)

	if r1.Ops != len(tr.Ops) || r2.Ops != len(tr.Ops) {
		t.Fatalf("replayed %d and %d ops, trace has %d", r1.Ops, r2.Ops, len(tr.Ops))
	}
	if r1.Divergences != 0 {
		t.Fatalf("first replay diverged %d times:\n%s", r1.Divergences, joinDetails(r1))
	}
	if r2.Divergences != 0 {
		t.Fatalf("second replay diverged %d times:\n%s", r2.Divergences, joinDetails(r2))
	}
	if r1.Stragglers != 0 || r2.Stragglers != 0 {
		t.Fatalf("stragglers: %d and %d, want 0", r1.Stragglers, r2.Stragglers)
	}
	if !reflect.DeepEqual(r1.IssueOrder, r2.IssueOrder) {
		t.Fatal("the two replays issued commands in different orders")
	}
	if diff := wiretap.SnapshotDiff(s1, s2); diff != "" {
		t.Fatalf("replayed servers diverged from each other:\n%s", diff)
	}
	if diff := wiretap.SnapshotDiff(liveSnap, s1); diff != "" {
		t.Fatalf("replayed server diverged from the recording server:\n%s", diff)
	}
}

// TestReplayCompressed replays the recorded run at 50× as trace-driven
// load: every op must execute, and state must still converge to the
// recording (group claims are CAS-guarded, so racing replays stay
// exactly-once).
func TestReplayCompressed(t *testing.T) {
	tr, liveSnap := recordGroupRun(t)
	if !slices.ContainsFunc(tr.Ops, func(op wiretap.Op) bool { return op.Name == "DELRANGE" }) {
		t.Fatal("the recorded run has no trim DELRANGE to replay")
	}
	report, snap := replayOnce(t, tr, 50)
	if report.Ops != len(tr.Ops) {
		t.Fatalf("replayed %d ops, trace has %d", report.Ops, len(tr.Ops))
	}
	if report.Stragglers != 0 {
		t.Fatalf("%d stragglers after compressed replay", report.Stragglers)
	}
	// Compressed mode races by design: reply divergence and differently-
	// ordered claim bookkeeping (a floor sweep racing an ack) are
	// expected. Appends keep their recorded order, and the trim's ranged
	// delete runs after the appends it covers, so the write-once part of
	// the state — the log length and the set of events the trim left in
	// the log — must still converge exactly.
	writeOnce := func(snap map[string]string) map[string]string {
		out := map[string]string{}
		for k, v := range snap {
			if strings.HasPrefix(k, "ps:t:e:") {
				out["event "+v] = ""
			} else if k == "ps:t:len" {
				out[k] = v
			}
		}
		return out
	}
	if diff := wiretap.SnapshotDiff(writeOnce(liveSnap), writeOnce(snap)); diff != "" {
		t.Fatalf("compressed replay event log diverged:\n%s", diff)
	}
}

func joinDetails(r *wiretap.Report) string {
	out := ""
	for _, d := range r.Details {
		out += "  " + d + "\n"
	}
	return out
}

// TestRecorderDepPrefix checks the happens-before encoding: an op's Dep
// counts exactly the ops completed before it was issued, and sequential
// ops on one recorder are totally ordered.
func TestRecorderDepPrefix(t *testing.T) {
	ctx := context.Background()
	srv := newServer(t)
	rec := wiretap.NewRecorder(wiretap.WithRecorderRegistry(telemetry.NewRegistry()))
	kv := rec.WrapKV(kvstore.NewClient(srv.Addr()))
	defer kv.Close()

	if err := kvstore.Set(ctx, kv, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := kvstore.Get(ctx, kv, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := kvstore.Incr(ctx, kv, "n"); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if len(tr.Ops) != 3 {
		t.Fatalf("recorded %d ops, want 3", len(tr.Ops))
	}
	for i, op := range tr.Ops {
		if op.Dep != uint64(i) {
			t.Fatalf("sequential op %d has Dep %d, want %d", i, op.Dep, i)
		}
		if op.Idx != uint64(i) {
			t.Fatalf("op %d has Idx %d, want %d (one connection)", i, op.Idx, i)
		}
		if op.End < op.Start {
			t.Fatalf("op %d has End %d < Start %d", i, op.End, op.Start)
		}
	}
	if tr.Ops[1].Name != "GET" || string(tr.Ops[1].Reply[1]) != "1" {
		t.Fatalf("GET recorded as %s %q", tr.Ops[1].Name, tr.Ops[1].Reply)
	}
}

// TestRecorderPipeline checks that batched commands are recorded through
// the pipeline tap with their full contents and replayed faithfully.
func TestRecorderPipeline(t *testing.T) {
	ctx := context.Background()
	srv := newServer(t)
	rec := wiretap.NewRecorder(wiretap.WithRecorderRegistry(telemetry.NewRegistry()))
	kv := rec.WrapKV(kvstore.NewClient(srv.Addr()))
	defer kv.Close()

	p := kv.Pipeline()
	p.Do("SET", []byte("pk1"), []byte("v1"))
	p.Do("INCR", []byte("pn"))
	p.Do("GET", []byte("pk1"))
	if err := p.Exec(ctx); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	tr := rec.Trace()
	if len(tr.Ops) != 1 || tr.Ops[0].Name != "PIPELINE" {
		t.Fatalf("recorded %+v, want one PIPELINE op", tr.Ops)
	}

	report, snap := replayOnce(t, tr, 1)
	if report.Divergences != 0 {
		t.Fatalf("pipeline replay diverged:\n%s", joinDetails(report))
	}
	if snap["pk1"] != "v1" || snap["pn"] != "1" {
		t.Fatalf("replayed state = %v", snap)
	}
}

// TestReplayRequiresTargets checks the loud-failure stance for traces
// aimed at missing targets.
func TestReplayRequiresTargets(t *testing.T) {
	tr := sampleTrace()
	rep := wiretap.NewReplayer(wiretap.WithReplayRegistry(telemetry.NewRegistry()))
	if _, err := rep.Run(context.Background(), tr); err == nil {
		t.Fatal("replay without targets should fail")
	}

	// A kv target does not cover the trace's msg op: Run refuses the
	// whole trace, naming the plane, before it issues anything.
	srv := newServer(t)
	cli := kvstore.NewClient(srv.Addr())
	defer cli.Close()
	var issued atomic.Int64
	target := kvstore.NewTap(cli, func(string, [][]byte, bool) kvstore.TapDone {
		issued.Add(1)
		return func([][]byte, error) {}
	})
	rep = wiretap.NewReplayer(wiretap.WithKVTarget(target),
		wiretap.WithReplayRegistry(telemetry.NewRegistry()))
	_, err := rep.Run(context.Background(), tr)
	if err == nil || !strings.Contains(err.Error(), `"msg"`) {
		t.Fatalf("Run of a trace with a msg op = %v, want an error naming plane \"msg\"", err)
	}
	if n := issued.Load(); n != 0 {
		t.Fatalf("refused replay issued %d ops, want 0", n)
	}
}

// TestReplayBlockedWaitWakes pins the async dispatch of blocking ops: a
// recorded WAITGET that was satisfied by a later SET must replay without
// deadlock and with the recorded reply.
func TestReplayBlockedWaitWakes(t *testing.T) {
	ctx := context.Background()
	srv := newServer(t)
	rec := wiretap.NewRecorder(wiretap.WithRecorderRegistry(telemetry.NewRegistry()))
	waiter := rec.WrapKV(kvstore.NewClient(srv.Addr()))
	setter := rec.WrapKV(kvstore.NewClient(srv.Addr()))
	defer waiter.Close()
	defer setter.Close()

	done := make(chan error, 1)
	go func() {
		val, ok, err := waiter.WaitGet(ctx, "wake", 5*time.Second)
		if err == nil && (!ok || string(val) != "up") {
			err = fmt.Errorf("WaitGet = %q, %v", val, ok)
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := kvstore.Set(ctx, setter, "wake", []byte("up")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()

	report, snap := replayOnce(t, tr, 1)
	if report.Divergences != 0 {
		t.Fatalf("replay diverged:\n%s", joinDetails(report))
	}
	if report.Stragglers != 0 {
		t.Fatalf("%d stragglers: the blocked wait never woke", report.Stragglers)
	}
	if snap["wake"] != "up" {
		t.Fatalf("final state %v", snap)
	}
}
