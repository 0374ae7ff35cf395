package faas

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/local"
	"proxystore/internal/connectors/redisc"
	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/pstream/brokertest"
	"proxystore/internal/store"
)

// newStreamPlatform wires a stream-backed executor/endpoint pair over the
// given broker with a fresh local store, returning the shared-suite
// platform handle.
func newStreamPlatform(t *testing.T, b pstream.Broker) platform {
	t.Helper()
	t.Cleanup(func() { b.Close() })
	id := connector.NewID()[:8]
	st, err := store.New("faas-stream-"+id, local.New("faas-stream-conn-"+id))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("faas-stream-" + id) })
	epName := "ep-" + id
	ep := StartStreamEndpoint(st, b, epName, 4)
	t.Cleanup(func() { ep.Close() })
	exec, err := NewStreamExecutor(st, b, epName)
	if err != nil {
		t.Fatalf("NewStreamExecutor: %v", err)
	}
	t.Cleanup(func() { exec.Close() })
	return platform{submit: exec.Submit, executed: ep.Executed}
}

func TestStreamNoPayloadLimit(t *testing.T) {
	// The classic cloud rejects >5 MB payloads; the stream executor has no
	// service in the data path, so by-value arguments of any size ride the
	// store bulk plane.
	p := newStreamPlatform(t, pstream.NewMem())
	ctx := context.Background()
	big := make([]byte, PayloadLimit+PayloadLimit/4)
	fut, err := p.submit(ctx, "echo", big)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v, err := fut.Result(ctx)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if len(v.([]byte)) != len(big) {
		t.Fatalf("Result carried %d bytes, want %d", len(v.([]byte)), len(big))
	}
}

func TestStreamKVRoundTripMovesMetadataOnly(t *testing.T) {
	// Full stream plane over a kvstore server with push delivery: the
	// broker must carry O(KB) per task while the 256 KiB arguments and
	// results ride the redis data plane.
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	cb := pstream.NewCounting(pstream.NewKV(srv.Addr()))
	t.Cleanup(func() { cb.Close() })
	id := connector.NewID()[:8]
	st, err := store.New("faas-kv-"+id, redisc.New(srv.Addr()))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("faas-kv-" + id) })

	epName := "kv-ep-" + id
	ep := StartStreamEndpoint(st, cb, epName, 2)
	t.Cleanup(func() { ep.Close() })
	exec, err := NewStreamExecutor(st, cb, epName)
	if err != nil {
		t.Fatalf("NewStreamExecutor: %v", err)
	}
	t.Cleanup(func() { exec.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const tasks = 4
	arg := make([]byte, 256<<10)
	futures := make([]*Future, tasks)
	for i := range futures {
		fut, err := exec.Submit(ctx, "echo", arg)
		if err != nil {
			t.Fatalf("Submit #%d: %v", i, err)
		}
		futures[i] = fut
	}
	for i, fut := range futures {
		v, err := fut.Result(ctx)
		if err != nil {
			t.Fatalf("Result #%d: %v", i, err)
		}
		if len(v.([]byte)) != len(arg) {
			t.Fatalf("Result #%d carried %d bytes", i, len(v.([]byte)))
		}
	}
	brokerBytes := cb.BytesPublished() + cb.BytesDelivered()
	if brokerBytes > 128<<10 {
		t.Fatalf("broker moved %d bytes for %d tasks of %d-byte args — payloads leaked onto the metadata plane",
			brokerBytes, tasks, len(arg))
	}
}

func TestStreamConcurrentResultResolution(t *testing.T) {
	// Futures resolve on caller goroutines and must never touch the
	// dispatcher's subscription (Subscriptions are single-goroutine;
	// payload cleanup goes directly through the store). Hammer many
	// concurrent Result calls over KVBroker — under -race this fails if
	// resolution ever shares broker state.
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	b := pstream.NewKV(srv.Addr())
	t.Cleanup(func() { b.Close() })
	id := connector.NewID()[:8]
	st, err := store.New("faas-conc-"+id, redisc.New(srv.Addr()))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("faas-conc-" + id) })
	epName := "conc-ep-" + id
	ep := StartStreamEndpoint(st, b, epName, 4)
	t.Cleanup(func() { ep.Close() })
	exec, err := NewStreamExecutor(st, b, epName)
	if err != nil {
		t.Fatalf("NewStreamExecutor: %v", err)
	}
	t.Cleanup(func() { exec.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		fut, err := exec.Submit(ctx, "echo", i)
		if err != nil {
			t.Fatalf("Submit #%d: %v", i, err)
		}
		wg.Add(1)
		go func(i int, fut *Future) {
			defer wg.Done()
			v, err := fut.Result(ctx)
			if err != nil {
				t.Errorf("Result #%d: %v", i, err)
				return
			}
			if v.(int) != i {
				t.Errorf("Result #%d = %v", i, v)
			}
		}(i, fut)
	}
	wg.Wait()
}

func TestStreamExactlyOnceUnderKilledWorker(t *testing.T) {
	// The group-fault guarantee, end to end over KVBroker: a worker claims
	// tasks and dies before executing them; its leases expire, survivors
	// reclaim, and every task is executed exactly once with every future
	// resolving. JitterBroker shakes the claim/ack timing.
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	// The lease must comfortably exceed any survivor stall (GC pause,
	// loaded CI runner): a live worker's claim that expires mid-execution
	// would be legitimately re-executed, which this test's exactly-once
	// assertion would misread as a failure. 2 s dwarfs the milliseconds a
	// healthy claim stays open while keeping reclamation (and the test)
	// fast.
	lease := 2 * time.Second
	b := brokertest.NewJitter(pstream.NewKV(srv.Addr(), pstream.WithKVLease(lease)), 7, 5*time.Millisecond)
	t.Cleanup(func() { b.Close() })
	id := connector.NewID()[:8]
	st, err := store.New("faas-kill-"+id, redisc.New(srv.Addr()))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("faas-kill-" + id) })

	var mu sync.Mutex
	execCount := make(map[int]int)
	fnName := "track-" + id
	RegisterFunction(fnName, func(_ context.Context, args []any) (any, error) {
		i := args[0].(int)
		mu.Lock()
		execCount[i]++
		mu.Unlock()
		return i * 10, nil
	})

	epName := "kill-ep-" + id
	exec, err := NewStreamExecutor(st, b, epName)
	if err != nil {
		t.Fatalf("NewStreamExecutor: %v", err)
	}
	t.Cleanup(func() { exec.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	const tasks = 6
	futures := make([]*Future, tasks)
	for i := range futures {
		fut, err := exec.Submit(ctx, fnName, i)
		if err != nil {
			t.Fatalf("Submit #%d: %v", i, err)
		}
		futures[i] = fut
	}

	// The doomed worker: claims two tasks off the group queue and dies
	// without executing or acking either.
	doomed, err := b.SubscribeGroup(ctx, TaskTopic(epName), TaskGroup, "doomed")
	if err != nil {
		t.Fatalf("SubscribeGroup(doomed): %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := doomed.Next(ctx); err != nil {
			t.Fatalf("doomed claim #%d: %v", i, err)
		}
	}
	doomed.Close()

	// Survivors: a real worker pool on the same group. The four unclaimed
	// tasks run immediately; the two orphans run after lease expiry.
	ep := StartStreamEndpoint(st, b, epName, 2)
	t.Cleanup(func() { ep.Close() })

	for i, fut := range futures {
		v, err := fut.Result(ctx)
		if err != nil {
			t.Fatalf("Result #%d: %v", i, err)
		}
		if v.(int) != i*10 {
			t.Fatalf("Result #%d = %v, want %d", i, v, i*10)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(execCount) != tasks {
		t.Fatalf("executed %d distinct tasks, want %d", len(execCount), tasks)
	}
	for i := 0; i < tasks; i++ {
		if execCount[i] != 1 {
			t.Fatalf("task %d executed %d times, want exactly once", i, execCount[i])
		}
	}
	if got := ep.Executed(); got != tasks {
		t.Fatalf("surviving endpoint executed %d tasks, want %d", got, tasks)
	}
}

func TestStreamResultSurvivesClose(t *testing.T) {
	// A result set before Close must still resolve after it: Close ends
	// the executor's waits, but a later Result takes a result that is
	// already in its future.
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	b := pstream.NewKV(srv.Addr())
	t.Cleanup(func() { b.Close() })
	id := connector.NewID()[:8]
	st, err := store.New("faas-close-"+id, local.New("faas-close-conn-"+id))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("faas-close-" + id) })
	epName := "close-ep-" + id
	ep := StartStreamEndpoint(st, b, epName, 1)
	t.Cleanup(func() { ep.Close() })
	exec, err := NewStreamExecutor(st, b, epName)
	if err != nil {
		t.Fatalf("NewStreamExecutor: %v", err)
	}

	ctx := context.Background()
	fut, err := exec.Submit(ctx, "echo", 7)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait until the worker has set the result in its future, so Close
	// deterministically runs after it.
	cli := kvstore.NewClient(srv.Addr())
	t.Cleanup(func() { cli.Close() })
	futures := "ps:" + ResultTopic(epName) + ":f:"
	deadline := time.Now().Add(10 * time.Second)
	for {
		keys, err := kvstore.Keys(ctx, cli, futures)
		if err != nil {
			t.Fatalf("Keys: %v", err)
		}
		if len(keys) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("result never set")
		}
		time.Sleep(2 * time.Millisecond)
	}
	exec.Close()
	v, err := fut.Result(ctx)
	if err != nil {
		t.Fatalf("Result after Close: %v", err)
	}
	if v.(int) != 7 {
		t.Fatalf("Result after Close = %v, want 7", v)
	}
	if keys, err := kvstore.Keys(ctx, cli, futures); err != nil || len(keys) != 0 {
		t.Fatalf("futures after Result = %q (%v), want none", keys, err)
	}
}

// droppingAck drops the first group ack it sees: the worker believes its
// claim is settled, but the claim stays leased, as if the worker died
// between setting the result and acking.
type droppingAck struct {
	pstream.Broker
	acks atomic.Int32
}

func (b *droppingAck) Unwrap() pstream.Broker { return b.Broker }

func (b *droppingAck) SubscribeGroup(ctx context.Context, topic, group, member string) (pstream.Subscription, error) {
	sub, err := b.Broker.SubscribeGroup(ctx, topic, group, member)
	if err != nil {
		return nil, err
	}
	return &droppingAckSub{Subscription: sub, b: b}, nil
}

type droppingAckSub struct {
	pstream.Subscription
	b *droppingAck
}

func (s *droppingAckSub) Ack(ctx context.Context, ev pstream.Event) (int, error) {
	if s.b.acks.Add(1) == 1 {
		return 0, nil
	}
	return s.Subscription.Ack(ctx, ev)
}

func TestStreamDuplicateResultDropped(t *testing.T) {
	// A worker that dies between setting a result and settling its claim
	// makes the task re-run, and the re-run sets the same future a second
	// time. The first result must win, the loser must reclaim its own
	// payload, and the executor keeps serving later tasks. The death is
	// forged by dropping the first ack.
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	b := &droppingAck{Broker: pstream.NewKV(srv.Addr(), pstream.WithKVLease(300*time.Millisecond))}
	t.Cleanup(func() { b.Close() })
	id := connector.NewID()[:8]
	conn := local.New("faas-dup-conn-" + id)
	st, err := store.New("faas-dup-"+id, conn)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("faas-dup-" + id) })
	var runs atomic.Int32
	fnName := "runs-" + id
	RegisterFunction(fnName, func(context.Context, []any) (any, error) {
		return int(runs.Add(1)), nil
	})
	epName := "dup-ep-" + id
	ep := StartStreamEndpoint(st, b, epName, 1)
	t.Cleanup(func() { ep.Close() })
	exec, err := NewStreamExecutor(st, b, epName)
	if err != nil {
		t.Fatalf("NewStreamExecutor: %v", err)
	}
	t.Cleanup(func() { exec.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fut, err := exec.Submit(ctx, fnName)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The re-run's ack is the second: by then both runs have set the
	// future, and neither result has been taken.
	for b.acks.Load() < 2 {
		if ctx.Err() != nil {
			t.Fatalf("task ran %d times, acked %d times; want a re-run after the dropped ack", runs.Load(), b.acks.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	v, err := fut.Result(ctx)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if v.(int) != 1 {
		t.Fatalf("Result = %v, want the first run's 1", v)
	}
	// The request went with the settling ack, the winner's payload with
	// Result, and the loser's with its own worker.
	if n := conn.Len(); n != 0 {
		t.Fatalf("%d payloads left in the store, want 0", n)
	}

	fut2, err := exec.Submit(ctx, "echo", 2)
	if err != nil {
		t.Fatalf("Submit after the duplicate: %v", err)
	}
	v, err = fut2.Result(ctx)
	if err != nil {
		t.Fatalf("Result after the duplicate: %v", err)
	}
	if v.(int) != 2 {
		t.Fatalf("Result = %v, want 2", v)
	}
}

func TestStreamExecutorCloseReturnsServerKeysToBaseline(t *testing.T) {
	// Regression: executors used to leave per-executor keys on the kv
	// server forever — each Close-without-cleanup grew the key count by
	// O(results). Now each result is a future deleted once awaited, Close
	// leaves the membership group, and the endpoint's sweep trims the task
	// topic to its worker group's floor — so a churn of executors must
	// hold the server's key count at a fixed baseline.
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	b := pstream.NewKV(srv.Addr(),
		pstream.WithKVLease(2*time.Second),
		pstream.WithKVHeartbeatTTL(200*time.Millisecond))
	t.Cleanup(func() { b.Close() })

	id := connector.NewID()[:8]
	st, err := store.New("faas-leak-"+id, local.New("faas-leak-conn-"+id))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("faas-leak-" + id) })
	epName := "leak-ep-" + id
	ep := StartStreamEndpoint(st, b, epName, 2)
	t.Cleanup(func() { ep.Close() })

	ctx := context.Background()
	cli := kvstore.NewClient(srv.Addr())
	t.Cleanup(func() { cli.Close() })

	// Two generations of executors: each submits and resolves a batch,
	// then closes cleanly. After a sweep, the server must be back at the
	// same key count both times — no per-executor growth. The count is
	// polled briefly: the sweep trims only to the workers' group floor,
	// which passes the last task on their next scan, an instant after its
	// ack.
	generation := func(ceiling int64) int64 {
		exec, err := NewStreamExecutor(st, b, epName)
		if err != nil {
			t.Fatalf("NewStreamExecutor: %v", err)
		}
		for i := 0; i < 8; i++ {
			fut, err := exec.Submit(ctx, "echo", i)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if _, err := fut.Result(ctx); err != nil {
				t.Fatalf("Result: %v", err)
			}
		}
		if err := exec.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		var n int64
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, err := ep.SweepResults(ctx); err != nil {
				t.Fatalf("SweepResults: %v", err)
			}
			if n, err = cli.DBSize(ctx); err != nil {
				t.Fatalf("DBSize: %v", err)
			}
			if n <= ceiling || time.Now().After(deadline) {
				return n
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// The absolute baseline is a fixed handful: the task topic's counters,
	// the group's floor and registration, and live worker heartbeats —
	// independent of how many tasks or executors have been through.
	first := generation(24)
	second := generation(first)
	if second > first {
		t.Fatalf("server keys grew across executor generations: %d -> %d", first, second)
	}
	if first > 24 {
		t.Fatalf("baseline server key count = %d, want <= 24", first)
	}

	// A third generation crashes with work in flight: its two results are
	// set in the futures of a client whose heartbeat is about to expire,
	// and only the endpoint's sweeps can reclaim them.
	// The loop waits for both the reclaimed slots and the key baseline:
	// the key count alone is already at baseline before the results exist.
	release := make(chan struct{})
	fnName := "held-" + id
	RegisterFunction(fnName, func(fctx context.Context, args []any) (any, error) {
		select {
		case <-release:
		case <-fctx.Done(): // the endpoint closed after a failed Submit
		}
		return args[0], nil
	})
	exec, err := NewStreamExecutor(st, b, epName)
	if err != nil {
		t.Fatalf("NewStreamExecutor: %v", err)
	}
	before := ep.Executed()
	for i := 0; i < 2; i++ {
		if _, err := exec.Submit(ctx, fnName, i); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	exec.Kill()
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for ep.Executed() < before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("executed %d of 2 held tasks", ep.Executed()-before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var reclaimed int
	var n int64
	for {
		swept, err := ep.SweepResults(ctx)
		if err != nil {
			t.Fatalf("SweepResults: %v", err)
		}
		reclaimed += swept
		if n, err = cli.DBSize(ctx); err != nil {
			t.Fatalf("DBSize: %v", err)
		}
		if (reclaimed >= 2 && n <= first) || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if reclaimed < 2 {
		t.Fatalf("sweeps reclaimed %d result slots after a killed executor, want >= 2", reclaimed)
	}
	if n > first {
		t.Fatalf("server keys after a killed executor = %d, want <= baseline %d", n, first)
	}
}
