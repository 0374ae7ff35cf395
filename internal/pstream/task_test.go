package pstream_test

import (
	"context"
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
		AttrID: "tp.id", AttrReply: "tp.rt", AttrClient: "tp.cl",
	}
	results := make(chan *pstream.Item[string], 4)
	hooks := pstream.TaskHooks[string, string]{
		Execute: func(_ context.Context, req string) (string, error) { return req, nil },
		Failed:  func(_ string, err error) string { return err.Error() },
		Deliver: func(_ context.Context, it *pstream.Item[string]) bool {
			results <- it
			return true
		},
	}
	c, err := pstream.NewTaskClient(st, b, plane, hooks)
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

	var res *pstream.Item[string]
	select {
	case res = <-results:
	case <-ctx.Done():
		t.Fatalf("no error result; %d deliveries so far", b.n.Load())
	}
	if got := res.Event.Attr(plane.AttrID); got != taskID {
		t.Fatalf("result for task %q, want %q", got, taskID)
	}
	msg, err := res.Value(ctx)
	if err != nil {
		t.Fatalf("resolving the error result: %v", err)
	}
	if !strings.Contains(msg, "resolving task payload") {
		t.Fatalf("error result = %q, want it to report the unresolvable payload", msg)
	}
	if got := b.n.Load(); got != pstream.DefaultSettleStrikes {
		t.Fatalf("task delivered %d times before settling, want %d", got, pstream.DefaultSettleStrikes)
	}
	// Settled: several leases later it has been neither redelivered nor
	// reported again.
	time.Sleep(4 * lease)
	if got := b.n.Load(); got != pstream.DefaultSettleStrikes {
		t.Fatalf("settled task redelivered: %d deliveries, want %d", got, pstream.DefaultSettleStrikes)
	}
	select {
	case it := <-results:
		t.Fatalf("second result for a settled task: %+v", it.Event)
	default:
	}
	if n := pstream.TaskStrikes(w); n != 0 {
		t.Fatalf("worker still holds strikes for %d offsets, want 0", n)
	}
}
