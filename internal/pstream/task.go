package pstream

// Task streams: the one request/response pattern under both task planes
// (faas's StreamExecutor/StreamEndpoint, colmena's StreamServer). A plane
// supplies names (TaskPlane) and its own steps (TaskHooks); the
// choreography lives here. See README.md, "Task streams".

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/proxy"
	"proxystore/internal/store"
	"proxystore/internal/telemetry"
)

// TaskPlane names one task stream. Every field is a wire name, so
// processes configured with the same values interoperate.
type TaskPlane struct {
	// Tasks is the topic clients publish task events on. Results is the
	// topic every client of the plane reads its results from.
	Tasks, Results string
	// Group is the consumer group workers claim tasks as. Clients is the
	// membership group clients join on Results (KVBroker with heartbeats
	// only), whose live set the orphan sweep trusts.
	Group, Clients string
	// AttrID carries the task ID on task and result events. AttrReply is
	// the routing tag: on task events it names Results, on result events
	// it carries the addressee client's ID. AttrClient carries the
	// submitting client's ID on task events, so a worker can address a
	// result without resolving the payload.
	AttrID, AttrReply, AttrClient string
}

// TaskHooks are a plane's own steps; each half calls the ones it needs.
type TaskHooks[Req, Res any] struct {
	// Execute runs one resolved task on a worker. An error means the
	// task's inputs could not be resolved; the core handles it like an
	// unresolvable payload (strikes, then an error result).
	Execute func(ctx context.Context, req Req) (Res, error)
	// Failed builds the error result reported for a poison task.
	Failed func(id string, err error) Res
	// Deliver hands a result addressed to this client to the plane (the
	// event is already acked). It reports false for a duplicate or a
	// stray, which the core then reclaims.
	Deliver func(ctx context.Context, it *Item[Res]) bool
	// Orphan, when set, reclaims what a result nobody will consume holds
	// beyond its own payload: dropped, swept and unpublished results.
	Orphan func(ctx context.Context, res Res)
}

// reclaim evicts a result nobody will consume: whatever Orphan finds in it
// (resolving the payload only when Orphan is set), then the payload.
func (h TaskHooks[Req, Res]) reclaim(ctx context.Context, pxy *proxy.Proxy[Res]) bool {
	if h.Orphan != nil {
		if res, err := pxy.Value(ctx); err == nil {
			h.Orphan(ctx, res)
		}
	}
	return EvictPayload(ctx, pxy)
}

// EvictPayload best-effort evicts a proxy's stored target, reporting
// whether it did. It is detached from ctx's cancellation: cleanup runs on
// paths where that context is dying. A nil proxy is a no-op.
func EvictPayload[T any](ctx context.Context, p *proxy.Proxy[T]) bool {
	if p == nil {
		return false
	}
	st, key, ok, err := store.KeyOf(p)
	if err != nil || !ok {
		return false
	}
	return st.Evict(context.WithoutCancel(ctx), key) == nil
}

// TaskWindow bounds a task client's pending submissions: Submit blocks
// while this many are in flight, so a producer that outruns the workers
// backs off instead of flooding the broker log.
const TaskWindow = 4096

// ErrTaskClientClosed is returned by Submit once the client is closing.
var ErrTaskClientClosed = errors.New("pstream: task client closed")

// TaskClient is the submitting half of a task stream: a producer on the
// task topic and a result loop on the shared result topic, both under one
// fresh ID. Safe for concurrent use.
type TaskClient[Req, Res any] struct {
	plane TaskPlane
	hooks TaskHooks[Req, Res]
	id    string
	prod  *Producer[Req]
	sem   chan struct{} // one slot per pending submission

	kb *KVBroker  // non-nil when b unwraps to a KVBroker
	hb *Heartbeat // non-nil when heartbeats are on

	closed atomic.Bool
	cancel context.CancelFunc
	done   chan struct{}
}

// NewTaskClient starts a client of plane, storing task payloads in st and
// events through b. hooks.Deliver is required, hooks.Orphan optional. On a
// KVBroker with heartbeats the client joins the plane's Clients group.
func NewTaskClient[Req, Res any](st *store.Store, b Broker, plane TaskPlane, hooks TaskHooks[Req, Res]) (*TaskClient[Req, Res], error) {
	id := connector.NewID()
	ctx, cancel := context.WithCancel(context.Background())
	// Window 1: the result topic is shared, and prefetch would batch-resolve
	// peers' payloads (which the filter then ignores) and pull bulk results
	// into memory before the plane asks for them.
	cons, err := NewConsumer[Res](ctx, b, plane.Results, id, WithEndCount(0), WithWindow(1))
	if err != nil {
		cancel()
		return nil, err
	}
	c := &TaskClient[Req, Res]{
		plane: plane,
		hooks: hooks,
		id:    id,
		// Exactly one consumer (the worker group) reads each task, so its
		// ack reclaims the request payload from the store.
		prod:   NewProducer[Req](st, b, plane.Tasks, WithEvictOnAck(1)),
		sem:    make(chan struct{}, TaskWindow),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	if kb, ok := AsKV(b); ok {
		c.kb = kb
		if kb.Heartbeats() {
			if c.hb, err = kb.Membership(plane.Results, plane.Clients).Join(ctx, id); err != nil {
				cancel()
				cons.Close()
				return nil, err
			}
		}
	}
	go func() {
		defer close(c.done)
		consumeLoop(ctx, func() (*Consumer[Res], error) { return cons, nil }, c.handle)
	}()
	return c, nil
}

// ID returns the client's identity.
func (c *TaskClient[Req, Res]) ID() string { return c.id }

// Done is closed once the client's result loop has stopped.
func (c *TaskClient[Req, Res]) Done() <-chan struct{} { return c.done }

// Submit publishes one task. It waits for an in-flight slot — after the
// plane's pre-send work, so a failure there holds none — then calls build
// with a fresh ID and the routing attrs (build may add more). build
// registers the submission as pending, before the send so the fastest
// result still finds it, and returns the request. From then on the slot
// belongs to that entry: the plane calls Release when it drops the entry,
// also when Submit fails after build (the returned ID is empty if build
// never ran).
func (c *TaskClient[Req, Res]) Submit(ctx context.Context, build func(id string, attrs map[string]string) Req) (string, error) {
	select {
	case c.sem <- struct{}{}:
	case <-c.done:
		return "", ErrTaskClientClosed
	case <-ctx.Done():
		return "", ctx.Err()
	}
	if c.closed.Load() {
		c.Release()
		return "", ErrTaskClientClosed
	}
	id := connector.NewID()
	attrs := map[string]string{
		c.plane.AttrID:     id,
		c.plane.AttrReply:  c.plane.Results,
		c.plane.AttrClient: c.id,
	}
	req := build(id, attrs)
	// Every submission roots a trace; each later hop (publish, execute,
	// deliver) continues it from the event attrs.
	sp := telemetry.Default().StartSpan("", "", "submit")
	sp.Inject(attrs)
	err := c.prod.Send(ctx, req, attrs)
	sp.End()
	return id, err
}

// Release frees one in-flight slot. The plane calls it exactly once per
// pending entry that build registered, when it drops that entry.
func (c *TaskClient[Req, Res]) Release() { <-c.sem }

// handle runs on the result loop for every event on the shared topic.
func (c *TaskClient[Req, Res]) handle(ctx context.Context, it *Item[Res]) {
	// Ack first, on the goroutine that owns the subscription: it commits
	// the offset so the log can be compacted, and — result producers set no
	// evict-on-ack — has no payload side effect.
	_ = it.Ack(ctx)
	// A peer's result is left alone: evicting it here would race its
	// addressee's own resolve.
	if it.Event.Attr(c.plane.AttrReply) != c.id {
		return
	}
	// "deliver" closes the trace the submit opened.
	if trace := it.Event.Attr(telemetry.AttrTrace); trace != "" {
		defer telemetry.Default().StartSpan(trace, it.Event.Attr(telemetry.AttrSpan), "deliver").End()
	}
	if !c.hooks.Deliver(ctx, it) {
		// A duplicate (the task re-ran after a worker died between publish
		// and ack) or a stray: nobody will consume it.
		c.hooks.reclaim(ctx, it.Proxy)
	}
}

// stop marks the client closed and waits for its result loop to exit.
func (c *TaskClient[Req, Res]) stop() {
	c.closed.Store(true)
	c.cancel()
	<-c.done
}

// Close stops the result loop. On a KVBroker it also leaves the Clients
// group and forgets the committed offset, so a clean churn of clients
// leaves the server's key count at its baseline. The store and broker are
// borrowed and stay open.
func (c *TaskClient[Req, Res]) Close() error {
	c.stop()
	ctx := context.Background()
	var err error
	if c.hb != nil {
		err = c.hb.Leave(ctx)
	}
	if c.kb != nil {
		if ferr := c.kb.ForgetConsumer(ctx, c.plane.Results, c.id); err == nil {
			err = ferr
		}
	}
	return err
}

// Kill simulates the client's process dying: the result loop and the
// heartbeat stop with none of Close's cleanup, which is left to heartbeat
// expiry and the workers' orphan sweep. Test and bench hook.
func (c *TaskClient[Req, Res]) Kill() {
	if c.hb != nil {
		c.hb.Kill()
	}
	c.stop()
}

// DefaultSettleStrikes is how many failed deliveries of one task (one lease
// cycle each) a worker pool tolerates before treating its payload as lost:
// transient store outages heal within a strike or two, and a poison task
// stops burning broker commands.
const DefaultSettleStrikes = 3

// TaskWorkers is the executing half of a task stream: members of the
// plane's worker group and, on a KVBroker with heartbeats, a janitor
// sweeping the result topic for orphans.
type TaskWorkers[Req, Res any] struct {
	st    *store.Store
	b     Broker
	plane TaskPlane
	hooks TaskHooks[Req, Res]

	// kb/mem drive the orphan sweep: mem is the plane's Clients group.
	kb  *KVBroker
	mem *Membership

	// strikes counts failed deliveries per task-log offset.
	strikeMu sync.Mutex
	strikes  map[uint64]int

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// StartTaskWorkers starts n workers of plane named for name, storing
// result payloads in st. hooks.Execute and hooks.Failed are required;
// hooks.Orphan is optional.
func StartTaskWorkers[Req, Res any](st *store.Store, b Broker, plane TaskPlane, hooks TaskHooks[Req, Res], name string, n int) *TaskWorkers[Req, Res] {
	if n < 1 {
		n = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &TaskWorkers[Req, Res]{st: st, b: b, plane: plane, hooks: hooks,
		strikes: make(map[uint64]int), cancel: cancel}
	// Member names carry a fresh ID: two processes serving the same name
	// must not collide on member identity, or a stale ack from one could
	// settle a same-named peer's live claim.
	instance := connector.NewID()[:8]
	for i := 0; i < n; i++ {
		member := fmt.Sprintf("%s-%s-w%d", name, instance, i)
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			consumeLoop(ctx, func() (*Consumer[Req], error) {
				// Window 1: a member should never claim work it cannot
				// start within its lease.
				return NewConsumer[Req](ctx, b, plane.Tasks, member,
					WithGroup(plane.Group), WithEndCount(0), WithWindow(1))
			}, w.execute)
		}()
	}
	if kb, ok := AsKV(b); ok && kb.Heartbeats() {
		w.kb, w.mem = kb, kb.Membership(plane.Results, plane.Clients)
		w.wg.Add(1)
		go w.janitor(ctx)
	}
	return w
}

// execute runs one claimed task. The claim is settled only after the
// result publish succeeds; an earlier failure leaves the claim to its
// lease, so another member retries the task (at-least-once execution; the
// client drops duplicate results).
func (w *TaskWorkers[Req, Res]) execute(ctx context.Context, it *Item[Req]) {
	req, err := it.Value(ctx)
	if err != nil {
		w.strike(ctx, it, err)
		return
	}
	// Continue the submitter's trace: "execute" parents under the task
	// event's span and is the parent the result event carries.
	var sp *telemetry.Span
	if trace := it.Event.Attr(telemetry.AttrTrace); trace != "" {
		sp = telemetry.Default().StartSpan(trace, it.Event.Attr(telemetry.AttrSpan), "execute")
	}
	res, err := w.hooks.Execute(ctx, req)
	if err != nil {
		sp.End()
		w.strike(ctx, it, err)
		return
	}
	err = w.publish(ctx, it, res, sp)
	sp.End()
	if err != nil {
		// The result never shipped, and the lease will re-run the task.
		if w.hooks.Orphan != nil {
			w.hooks.Orphan(ctx, res)
		}
		return
	}
	w.settle(ctx, it)
}

// publish sends res as the result of task it, addressed to its submitter.
// No evict-on-ack: every client on the shared topic acks every result, so
// an ack count would let one client evict another's unread payload — the
// addressee evicts its own, and the sweep those of dead addressees.
func (w *TaskWorkers[Req, Res]) publish(ctx context.Context, it *Item[Req], res Res, sp *telemetry.Span) error {
	attrs := map[string]string{
		w.plane.AttrID:    it.Event.Attr(w.plane.AttrID),
		w.plane.AttrReply: it.Event.Attr(w.plane.AttrClient),
	}
	sp.Inject(attrs)
	return NewProducer[Res](w.st, w.b, w.plane.Results).Send(ctx, res, attrs)
}

// settle clears the task's strikes and acks its claim, which reclaims the
// request payload (evict-on-ack, one logical consumer: the group).
func (w *TaskWorkers[Req, Res]) settle(ctx context.Context, it *Item[Req]) {
	w.strikeMu.Lock()
	delete(w.strikes, it.Event.Offset)
	w.strikeMu.Unlock()
	_ = it.Ack(ctx)
}

// strike is the poison-task policy for a task whose payload did not
// resolve. Transient store failures heal across lease redeliveries, so the
// claim is left to expire — until the task's offset has failed
// DefaultSettleStrikes times. Then the failure is reported as the task's
// result, routed by the event attrs (which exist so a worker can report
// without the payload), and the claim is settled. If that publish fails,
// the claim is again left to its lease.
func (w *TaskWorkers[Req, Res]) strike(ctx context.Context, it *Item[Req], cause error) {
	if ctx.Err() != nil {
		return
	}
	w.strikeMu.Lock()
	w.strikes[it.Event.Offset]++
	n := w.strikes[it.Event.Offset]
	w.strikeMu.Unlock()
	if n < DefaultSettleStrikes {
		return
	}
	res := w.hooks.Failed(it.Event.Attr(w.plane.AttrID), fmt.Errorf("resolving task payload: %w", cause))
	if w.publish(ctx, it, res, nil) != nil {
		return
	}
	w.settle(ctx, it)
}

// janitor sweeps the result topic once per heartbeat TTL: a dead client
// is detected within one TTL, so its orphans linger at most about two.
func (w *TaskWorkers[Req, Res]) janitor(ctx context.Context) {
	defer w.wg.Done()
	tick := time.NewTicker(w.kb.HeartbeatTTL())
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			_, _ = w.SweepResults(ctx)
		}
	}
}

// SweepResults runs one orphan sweep (KVBroker.SweepTopic) over the
// result topic with the Clients group's live set, reclaiming every
// result addressed to a dead client. Returns the log slots reclaimed. A
// no-op on brokers without heartbeats; the janitor also runs it.
func (w *TaskWorkers[Req, Res]) SweepResults(ctx context.Context) (int, error) {
	if w.mem == nil {
		return 0, nil
	}
	return w.kb.SweepTopic(ctx, w.plane.Results, w.mem, func(ev Event, live map[string]bool) bool {
		if live[ev.Attr(w.plane.AttrReply)] {
			return false // the addressee is alive and evicts its own payloads
		}
		pxy := new(proxy.Proxy[Res])
		if err := pxy.UnmarshalBinary(ev.ProxyData); err != nil {
			return false
		}
		return w.hooks.reclaim(ctx, pxy)
	})
}

// Close stops the workers and the janitor. Unsettled claims are not
// released; they expire with their leases and are reclaimed by surviving
// members of the group (possibly in another process).
func (w *TaskWorkers[Req, Res]) Close() {
	w.cancel()
	w.wg.Wait()
}

// loopRetry is consumeLoop's base retry pause; loopBackoffCap bounds its
// exponential backoff at this many multiples of it (50 ms → 1.6 s).
const (
	loopRetry      = 50 * time.Millisecond
	loopBackoffCap = 32
)

// consumeLoop drives a long-lived consumer until ctx is canceled or the
// stream ends: it retries subscribe until it succeeds, then delivers every
// item to handle (which owns resolve and ack), backing off on transient
// Next errors. Pauses double up to the cap, are jittered over [½, 1½]× so
// restarting workers don't thundering-herd a recovering broker, and reset
// on any success.
func consumeLoop[T any](ctx context.Context, subscribe func() (*Consumer[T], error), handle func(context.Context, *Item[T])) {
	delay := loopRetry
	pause := func() bool {
		d := delay/2 + time.Duration(rand.Int63n(int64(delay)))
		if delay < loopBackoffCap*loopRetry {
			delay *= 2
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(d):
			return true
		}
	}
	var cons *Consumer[T]
	for cons == nil {
		var err error
		if cons, err = subscribe(); err != nil {
			if !pause() {
				return
			}
		}
	}
	defer cons.Close()
	delay = loopRetry
	for {
		it, err := cons.Next(ctx)
		if err != nil {
			if errors.Is(err, ErrEnd) || ctx.Err() != nil || !pause() {
				return
			}
			continue
		}
		delay = loopRetry
		handle(ctx, it)
	}
}
