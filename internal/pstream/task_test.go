package pstream_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/local"
	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/store"
)

// deliveryCounter counts the payload events its group subscriptions hand
// out, so a test can see every (re)delivery of a claimed task.
type deliveryCounter struct {
	pstream.Broker
	n atomic.Int32
}

// Unwrap lets the task planes reach the wrapped broker's result futures.
func (b *deliveryCounter) Unwrap() pstream.Broker { return b.Broker }

func (b *deliveryCounter) SubscribeGroup(ctx context.Context, topic, group, member string) (pstream.Subscription, error) {
	sub, err := b.Broker.SubscribeGroup(ctx, topic, group, member)
	if err != nil {
		return nil, err
	}
	return &countedSub{Subscription: sub, n: &b.n}, nil
}

type countedSub struct {
	pstream.Subscription
	n *atomic.Int32
}

func (s *countedSub) Next(ctx context.Context) (pstream.Event, error) {
	ev, err := s.Subscription.Next(ctx)
	if err == nil && !ev.End {
		s.n.Add(1)
	}
	return ev, err
}

func (s *countedSub) Poll(ctx context.Context) (pstream.Event, bool, error) {
	ev, ok, err := s.Subscription.Poll(ctx)
	if err == nil && ok && !ev.End {
		s.n.Add(1)
	}
	return ev, ok, err
}

// TestTaskPlanePoisonTaskSettlesAfterStrikes drives the core's poison-task
// policy over a KVBroker with a short lease: a task whose request payload
// is gone before any worker resolves it is redelivered on lease expiry
// until DefaultSettleStrikes deliveries have failed, then reported to its
// submitter as an error result and settled — never delivered again — and
// its strike count is dropped.
func TestTaskPlanePoisonTaskSettlesAfterStrikes(t *testing.T) {
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	const lease = 200 * time.Millisecond
	kb := pstream.NewKV(srv.Addr(), pstream.WithKVLease(lease))
	t.Cleanup(func() { kb.Close() })
	b := &deliveryCounter{Broker: kb}

	id := connector.NewID()[:8]
	st, err := store.New("task-poison-"+id, local.New("task-poison-conn-"+id))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("task-poison-" + id) })

	plane := pstream.TaskPlane{
		Tasks: "tp.t." + id, Results: "tp.r." + id,
		Group: "workers", Clients: "clients",
		AttrID: "tp.id", AttrReply: "tp.rt",
	}
	hooks := pstream.TaskHooks[string, string]{
		Execute: func(_ context.Context, req string) (string, error) { return req, nil },
		Failed:  func(_ string, err error) string { return err.Error() },
	}
	c, err := pstream.NewTaskClient[string, string](st, b, plane)
	if err != nil {
		t.Fatalf("NewTaskClient: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	taskID, err := c.Submit(ctx, func(string, map[string]string) string { return "poison" })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Lose the request payload before any worker exists: a fan-out reader
	// of the task topic finds its key without acking anything.
	peek, err := pstream.NewConsumer[string](ctx, kb, plane.Tasks, "peek")
	if err != nil {
		t.Fatalf("NewConsumer: %v", err)
	}
	it, err := peek.Next(ctx)
	if err != nil {
		t.Fatalf("peek Next: %v", err)
	}
	if !pstream.EvictPayload(ctx, it.Proxy) {
		t.Fatal("could not evict the task's request payload")
	}
	peek.Close()

	w := pstream.StartTaskWorkers(st, b, plane, hooks, "poison", 1)
	t.Cleanup(w.Close)

	msg, err := c.Await(ctx, taskID)
	if err != nil {
		t.Fatalf("no error result (%v); %d deliveries so far", err, b.n.Load())
	}
	if !strings.Contains(msg, "resolving task payload") {
		t.Fatalf("error result = %q, want it to report the unresolvable payload", msg)
	}
	if got := b.n.Load(); got != pstream.DefaultSettleStrikes {
		t.Fatalf("task delivered %d times before settling, want %d", got, pstream.DefaultSettleStrikes)
	}
	// Settled: several leases later it has been neither redelivered nor
	// reported again (Await deleted the future, so a second result would
	// set it anew).
	time.Sleep(4 * lease)
	if got := b.n.Load(); got != pstream.DefaultSettleStrikes {
		t.Fatalf("settled task redelivered: %d deliveries, want %d", got, pstream.DefaultSettleStrikes)
	}
	cli := kvstore.NewClient(srv.Addr())
	defer cli.Close()
	if keys, err := kvstore.Keys(ctx, cli, "ps:"+plane.Results+":f:"); err != nil || len(keys) != 0 {
		t.Fatalf("result futures after the settled task = %q (%v), want none", keys, err)
	}
	if n := pstream.TaskStrikes(w); n != 0 {
		t.Fatalf("worker still holds strikes for %d offsets, want 0", n)
	}
}

// newTaskPlane returns a kvstore server, a fresh plane and a store over a
// local connector, so the server counts broker commands only.
func newTaskPlane(t *testing.T, name string) (*kvstore.Server, pstream.TaskPlane, *store.Store) {
	t.Helper()
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	id := connector.NewID()[:8]
	st, err := store.New(name+"-"+id, local.New(name+"-conn-"+id))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister(name + "-" + id) })
	plane := pstream.TaskPlane{
		Tasks: "tp.t." + id, Results: "tp.r." + id,
		Group: "workers", Clients: "clients",
		AttrID: "tp.id", AttrReply: "tp.rt",
	}
	return srv, plane, st
}

// echoHooks run a task by returning its request.
var echoHooks = pstream.TaskHooks[string, string]{
	Execute: func(_ context.Context, req string) (string, error) { return req, nil },
	Failed:  func(_ string, err error) string { return err.Error() },
}

// TestTaskPlaneCommandsFlatInClients: a task costs the same kv commands
// however many clients share the plane — each result is a future of its
// own, read by its client alone. Every client runs closed-loop tasks
// against two workers; with 8 clients a task must cost at most 10 % more
// than with 1.
func TestTaskPlaneCommandsFlatInClients(t *testing.T) {
	const tasksPerClient = 200
	perTask := func(clients int) float64 {
		srv, plane, st := newTaskPlane(t, fmt.Sprintf("task-flat-%d", clients))
		b := pstream.NewKV(srv.Addr())
		t.Cleanup(func() { b.Close() })
		w := pstream.StartTaskWorkers(st, b, plane, echoHooks, "flat", 2)
		t.Cleanup(w.Close)
		cs := make([]*pstream.TaskClient[string, string], clients)
		for i := range cs {
			c, err := pstream.NewTaskClient[string, string](st, b, plane)
			if err != nil {
				t.Fatalf("NewTaskClient: %v", err)
			}
			t.Cleanup(func() { c.Close() })
			cs[i] = c
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		before := srv.Commands()
		errs := make(chan error, clients)
		for i, c := range cs {
			go func() {
				for j := 0; j < tasksPerClient; j++ {
					want := fmt.Sprintf("c%d-t%d", i, j)
					id, err := c.Submit(ctx, func(string, map[string]string) string { return want })
					if err == nil {
						var got string
						if got, err = c.Await(ctx, id); err == nil && got != want {
							err = fmt.Errorf("result %q, want %q", got, want)
						}
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for range cs {
			if err := <-errs; err != nil {
				t.Fatalf("%d clients: %v", clients, err)
			}
		}
		return float64(srv.Commands()-before) / float64(clients*tasksPerClient)
	}
	one, eight := perTask(1), perTask(8)
	t.Logf("kv commands per task: %.2f with 1 client, %.2f with 8", one, eight)
	// Only growth is a failure: busy workers park less between tasks, so
	// a task may cost fewer commands when 8 clients keep them busy.
	if eight > 1.1*one {
		t.Fatalf("kv commands per task: %.2f with 8 clients against %.2f with 1, want at most 10 %% more", eight, one)
	}
}

// waitCapTap counts the waits on result futures that the server refuses
// for its per-connection cap on tagged waits.
type waitCapTap struct {
	kvstore.KV
	prefix  string
	refused atomic.Int32
}

func (w *waitCapTap) WaitGet(ctx context.Context, key string, timeout time.Duration) ([]byte, bool, error) {
	val, ok, err := w.KV.WaitGet(ctx, key, timeout)
	if err != nil && strings.Contains(err.Error(), "too many in-flight tagged waits") && strings.HasPrefix(key, w.prefix) {
		w.refused.Add(1)
	}
	return val, ok, err
}

// TestTaskPlaneAwaitsSurviveTaggedWaitCap: the server parks at most 4,096
// tagged waits per connection, as many as a client may have tasks in
// flight, and a broker's waits all share one connection. A client
// awaiting TaskWindow futures at once beside idle workers' parks of the
// same broker has waits refused; each refused wait is retried, and every
// future resolves.
func TestTaskPlaneAwaitsSurviveTaggedWaitCap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs TaskWindow tasks; the full-length task-plane run covers it")
	}
	srv, plane, st := newTaskPlane(t, "task-cap")
	tap := &waitCapTap{prefix: "ps:" + plane.Results + ":f:"}
	b := pstream.NewKV(srv.Addr(), pstream.WithKVWrap(func(inner kvstore.KV) kvstore.KV { tap.KV = inner; return tap }))
	t.Cleanup(func() { b.Close() })
	waiters := srv.Telemetry().Gauge("kv.waiters")

	// Idle workers of another plane park first and stay parked.
	idle := plane
	idle.Tasks, idle.Results = plane.Tasks+".idle", plane.Results+".idle"
	iw := pstream.StartTaskWorkers(st, b, idle, echoHooks, "idle", 2)
	t.Cleanup(iw.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for waiters.Value() < 2 {
		if ctx.Err() != nil {
			t.Fatalf("idle workers never parked: %d waits", waiters.Value())
		}
		time.Sleep(time.Millisecond)
	}

	c, err := pstream.NewTaskClient[string, string](st, b, plane)
	if err != nil {
		t.Fatalf("NewTaskClient: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	ids := make([]string, pstream.TaskWindow)
	for i := range ids {
		want := strconv.Itoa(i)
		if ids[i], err = c.Submit(ctx, func(string, map[string]string) string { return want }); err != nil {
			t.Fatalf("Submit #%d: %v", i, err)
		}
	}
	errs := make(chan error, len(ids))
	for i, id := range ids {
		go func() {
			got, err := c.Await(ctx, id)
			if err == nil && got != strconv.Itoa(i) {
				err = fmt.Errorf("task %d: result %q", i, got)
			}
			errs <- err
		}()
	}
	// Nothing resolves until the workers start, so every future stays
	// awaited: with the idle parks that is more waits than the cap.
	for tap.refused.Load() == 0 {
		if ctx.Err() != nil {
			t.Fatalf("no future wait refused with %d waits parked", waiters.Value())
		}
		time.Sleep(time.Millisecond)
	}
	w := pstream.StartTaskWorkers(st, b, plane, echoHooks, "cap", 2)
	t.Cleanup(w.Close)
	for range ids {
		if err := <-errs; err != nil {
			t.Fatalf("Await: %v (%d future waits refused)", err, tap.refused.Load())
		}
	}
	t.Logf("%d future waits refused and retried", tap.refused.Load())
}

// TestTaskPlaneFencedClientAwaitFails: a client whose heartbeat stops
// landing may be read as dead, and its futures swept, by peers. Its Await
// must then fail within one wait round rather than wait for a result that
// may never come.
func TestTaskPlaneFencedClientAwaitFails(t *testing.T) {
	srv, plane, st := newTaskPlane(t, "task-fence")
	const ttl = 300 * time.Millisecond
	kv := &stallingKV{prefix: "ps:m." + plane.Results + ":" + plane.Clients + ":h:", release: make(chan struct{})}
	b := pstream.NewKV(srv.Addr(), pstream.WithKVHeartbeatTTL(ttl),
		pstream.WithKVWrap(func(inner kvstore.KV) kvstore.KV { kv.KV = inner; return kv }))
	t.Cleanup(func() { b.Close() })
	c, err := pstream.NewTaskClient[string, string](st, b, plane)
	if err != nil {
		t.Fatalf("NewTaskClient: %v", err)
	}
	t.Cleanup(func() {
		close(kv.release)
		c.Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// No worker runs: the result never comes.
	id, err := c.Submit(ctx, func(string, map[string]string) string { return "never run" })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	kv.stall.Store(true)
	start := time.Now()
	_, err = c.Await(ctx, id)
	if !errors.Is(err, pstream.ErrTaskClientFenced) {
		t.Fatalf("Await of a fenced client = %v, want ErrTaskClientFenced", err)
	}
	if took := time.Since(start); took > 2*ttl {
		t.Fatalf("fenced Await took %v, want within one wait round (%v)", took, ttl)
	}
}

// TestTaskPlaneLapsedClientRejoins: a client whose heartbeat refreshes
// are held past its TTL lapses — the Await in flight fails with
// ErrTaskClientFenced, the server expires its key, and a sweep takes the
// future set meanwhile. Once refreshes land again the client re-joins, is
// live, and its next task's result is not swept.
func TestTaskPlaneLapsedClientRejoins(t *testing.T) {
	srv, plane, st := newTaskPlane(t, "task-lapse")
	const ttl = 200 * time.Millisecond
	kv := &stallingKV{prefix: "ps:m." + plane.Results + ":" + plane.Clients + ":h:", release: make(chan struct{})}
	b := pstream.NewKV(srv.Addr(), pstream.WithKVHeartbeatTTL(ttl),
		pstream.WithKVWrap(func(inner kvstore.KV) kvstore.KV { kv.KV = inner; return kv }))
	t.Cleanup(func() { b.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	gate := make(chan struct{})
	hooks := pstream.TaskHooks[string, string]{
		Execute: func(ctx context.Context, req string) (string, error) {
			if req == "held" {
				select {
				case <-gate:
				case <-ctx.Done():
				}
			}
			return req, nil
		},
		Failed: echoHooks.Failed,
	}
	w := pstream.StartTaskWorkers(st, b, plane, hooks, "lapse", 1)
	t.Cleanup(w.Close)
	c, err := pstream.NewTaskClient[string, string](st, b, plane)
	if err != nil {
		t.Fatalf("NewTaskClient: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	mem := b.Membership(plane.Results, plane.Clients)
	isLive := func() bool {
		live, err := mem.Live(ctx)
		if err != nil {
			t.Fatalf("Live: %v", err)
		}
		return slices.Contains(live, c.ID())
	}
	within := func(what string, since time.Time, limit time.Duration, cond func() bool) {
		t.Helper()
		for !cond() {
			if time.Since(since) > limit {
				t.Fatalf("%s: not within %v", what, limit)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	held, err := c.Submit(ctx, func(string, map[string]string) string { return "held" })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	start := time.Now()
	kv.stall.Store(true)
	if _, err := c.Await(ctx, held); !errors.Is(err, pstream.ErrTaskClientFenced) {
		t.Fatalf("Await across the lapse = %v, want ErrTaskClientFenced", err)
	}
	if took := time.Since(start); took > 2*ttl {
		t.Fatalf("Await across the lapse took %v, want within %v", took, 2*ttl)
	}
	within("the server expires the client's heartbeat", start, ttl+500*time.Millisecond, func() bool { return !isLive() })
	close(gate) // the held task's result is set while the client is not live
	swept := 0
	within("a sweep takes the held task's future", start, 5*time.Second, func() bool {
		n, err := w.SweepResults(ctx)
		if err != nil {
			t.Fatalf("SweepResults: %v", err)
		}
		swept += n
		return swept > 0
	})
	if swept != 1 {
		t.Fatalf("SweepResults reclaimed %d futures, want the held task's 1", swept)
	}
	time.Sleep(time.Until(start.Add(2 * ttl)))
	kv.stall.Store(false)
	close(kv.release)
	within("the client re-joins", time.Now(), ttl+500*time.Millisecond, isLive)

	id, err := c.Submit(ctx, func(string, map[string]string) string { return "after" })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	actx, acancel := context.WithTimeout(ctx, 5*time.Second)
	defer acancel()
	if got, err := c.Await(actx, id); err != nil || got != "after" {
		t.Fatalf("Await after re-joining = %q, %v; want \"after\"", got, err)
	}
}

// TestTaskPlaneKilledClientFutureSwept: on default-configuration brokers
// a task client that dies after a worker set its result leaves a future
// nobody will await. Once one heartbeat ttl has passed, one SweepResults
// reclaims it, and the server's key count is back where it was before the
// client started.
func TestTaskPlaneKilledClientFutureSwept(t *testing.T) {
	srv, plane, st := newTaskPlane(t, "task-killed")
	b := pstream.NewKV(srv.Addr())
	t.Cleanup(func() { b.Close() })
	w := pstream.StartTaskWorkers(st, b, plane, echoHooks, "killed", 1)
	t.Cleanup(w.Close)
	cli := kvstore.NewClient(srv.Addr())
	t.Cleanup(func() { cli.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// settled waits until the worker group's floor reaches n, then trims
	// the task topic up to it.
	floorKey := "ps:" + plane.Tasks + ":g:" + plane.Group + ":f"
	settled := func(n string) {
		t.Helper()
		for {
			raw, _, err := kvstore.Get(ctx, cli, floorKey)
			if err != nil {
				t.Fatalf("reading the group floor: %v", err)
			}
			if string(raw) == n {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if _, err := w.SweepResults(ctx); err != nil {
			t.Fatalf("SweepResults: %v", err)
		}
	}
	run := func(c *pstream.TaskClient[string, string], req string) string {
		t.Helper()
		id, err := c.Submit(ctx, func(string, map[string]string) string { return req })
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return id
	}

	// A first task, run to completion by a client that leaves, creates the
	// task topic's bookkeeping keys.
	warm, err := pstream.NewTaskClient[string, string](st, b, plane)
	if err != nil {
		t.Fatalf("NewTaskClient: %v", err)
	}
	if got, err := warm.Await(ctx, run(warm, "warm")); err != nil || got != "warm" {
		t.Fatalf("Await = %q, %v; want \"warm\"", got, err)
	}
	if err := warm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	settled("1")
	baseline, err := cli.DBSize(ctx)
	if err != nil {
		t.Fatal(err)
	}

	c, err := pstream.NewTaskClient[string, string](st, b, plane)
	if err != nil {
		t.Fatalf("NewTaskClient: %v", err)
	}
	run(c, "orphan")
	for {
		keys, err := kvstore.Keys(ctx, cli, "ps:"+plane.Results+":f:")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Kill()
	killed := time.Now()
	settled("2")
	time.Sleep(time.Until(killed.Add(pstream.DefaultHeartbeatTTL + 250*time.Millisecond)))
	n, err := w.SweepResults(ctx)
	if err != nil || n != 1 {
		t.Fatalf("SweepResults one ttl after the client died = %d, %v; want its 1 future", n, err)
	}
	if after, err := cli.DBSize(ctx); err != nil || after != baseline {
		t.Fatalf("server keys = %d (%v), want the %d from before the client started", after, err, baseline)
	}
}
