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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/kvstore"
	"proxystore/internal/proxy"
	"proxystore/internal/store"
	"proxystore/internal/telemetry"
)

// TaskPlane names one task stream. Every field is a wire name, so
// processes configured with the same values interoperate.
type TaskPlane struct {
	// Tasks is the topic clients publish task events on. Results names
	// the plane's result futures, the keys ps:<Results>:f:<client>:<task>,
	// and the membership domain of its clients.
	Tasks, Results string
	// Group is the consumer group workers claim tasks as. Clients is the
	// membership group clients join on a KVBroker, whose live set the
	// orphan sweep trusts.
	Group, Clients string
	// AttrID carries the task ID on task events and in results. AttrReply
	// carries, on task events, the key of the future the worker sets the
	// result in, so a worker can reply without resolving the payload.
	AttrID, AttrReply string
}

// futurePrefix covers every result future of the plane; a client's own
// futures sit under futurePrefix + client + ":".
func (p TaskPlane) futurePrefix() string { return "ps:" + p.Results + ":f:" }

// TaskHooks are a plane's own steps, run by its workers.
type TaskHooks[Req, Res any] struct {
	// Execute runs one resolved task on a worker. An error means the
	// task's inputs could not be resolved; the core handles it like an
	// unresolvable payload (strikes, then an error result).
	Execute func(ctx context.Context, req Req) (Res, error)
	// Failed builds the error result reported for a poison task.
	Failed func(id string, err error) Res
	// Orphan, when set, reclaims what a result nobody will consume holds
	// beyond its own payload: duplicate, swept and unset results.
	Orphan func(ctx context.Context, res Res)
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

// resultFutures is the capability behind task results: a key its producer
// sets exactly once and its consumer resolves by waiting. KVBroker (CAS,
// TWAITGET, DEL) and MemBroker (a map and a channel per key) implement it;
// the task planes reach it through broker wrappers by the walk AsKV uses.
type resultFutures interface {
	// setFuture sets key to val unless key is set, reporting whether it
	// did.
	setFuture(ctx context.Context, key string, val []byte) (bool, error)
	// awaitFuture waits up to round for key to be set and returns its
	// value; ok is false when the round lapsed first.
	awaitFuture(ctx context.Context, key string, round time.Duration) (val []byte, ok bool, err error)
	// deleteFutures removes keys.
	deleteFutures(ctx context.Context, keys ...string) error
}

// errNoFutures is returned for a broker that does not unwrap to one with
// result futures.
var errNoFutures = errors.New("pstream: broker has no result futures")

// TaskWindow bounds a task client's pending submissions: Submit blocks
// while this many are in flight, so a producer that outruns the workers
// backs off instead of flooding the broker log.
const TaskWindow = 4096

// ErrTaskClientClosed is returned by Submit once the client is closing,
// and by Await for a result not yet set when the client closed.
var ErrTaskClientClosed = errors.New("pstream: task client closed")

// ErrTaskClientFenced is returned by Await when a wait round ends while
// the client's heartbeat is fenced, or after it lapsed since the wait
// began: peers may read, or have read, the client as dead and swept its
// futures, so the result may never arrive.
var ErrTaskClientFenced = errors.New("pstream: task client fenced: its heartbeat is not landing, so its results may be swept")

// TaskClient is the submitting half of a task stream: a producer on the
// task topic, and one result future per submission that Await resolves.
// Safe for concurrent use.
type TaskClient[Req, Res any] struct {
	plane  TaskPlane
	id     string
	prefix string // this client's future keys: plane.futurePrefix() + id + ":"
	prod   *Producer[Req]
	fut    resultFutures
	sem    chan struct{} // one slot per submission not yet awaited
	hb     *Heartbeat    // the client's membership on a KVBroker, else nil

	life   context.Context // ends at Close and Kill
	cancel context.CancelFunc
}

// NewTaskClient starts a client of plane, storing task payloads in st and
// events through b, which must unwrap to a broker with result futures. On
// a KVBroker the client joins the plane's Clients group.
func NewTaskClient[Req, Res any](st *store.Store, b Broker, plane TaskPlane) (*TaskClient[Req, Res], error) {
	fut, ok := unwrapTo[resultFutures](b)
	if !ok {
		return nil, errNoFutures
	}
	id := connector.NewID()
	life, cancel := context.WithCancel(context.Background())
	c := &TaskClient[Req, Res]{
		plane:  plane,
		id:     id,
		prefix: plane.futurePrefix() + id + ":",
		// Exactly one consumer (the worker group) reads each task, so its
		// ack reclaims the request payload from the store.
		prod:   NewProducer[Req](st, b, plane.Tasks, WithEvictOnAck(1)),
		fut:    fut,
		sem:    make(chan struct{}, TaskWindow),
		life:   life,
		cancel: cancel,
	}
	if kb, ok := AsKV(b); ok {
		hb, err := kb.Membership(plane.Results, plane.Clients).Join(life, id)
		if err != nil {
			cancel()
			return nil, err
		}
		c.hb = hb
	}
	return c, nil
}

// ID returns the client's identity.
func (c *TaskClient[Req, Res]) ID() string { return c.id }

// Submit publishes one task. It waits for an in-flight slot — after the
// plane's pre-send work, so a failure there holds none — then calls build
// with a fresh ID and the task event's attrs (build may add more), and
// returns the request to send. The attrs' AttrReply holds the key of the
// task's result future. The slot is the ID's until Await returns; a
// failed Submit frees it.
func (c *TaskClient[Req, Res]) Submit(ctx context.Context, build func(id string, attrs map[string]string) Req) (string, error) {
	select {
	case c.sem <- struct{}{}:
	case <-c.life.Done():
		return "", ErrTaskClientClosed
	case <-ctx.Done():
		return "", ctx.Err()
	}
	if c.life.Err() != nil {
		<-c.sem
		return "", ErrTaskClientClosed
	}
	id := connector.NewID()
	attrs := map[string]string{
		c.plane.AttrID:    id,
		c.plane.AttrReply: c.prefix + id,
	}
	req := build(id, attrs)
	// Every submission roots a trace; each later hop (publish, execute,
	// deliver) continues it from the event attrs.
	sp := telemetry.Default().StartSpan("", "", "submit")
	sp.Inject(attrs)
	err := c.prod.Send(ctx, req, attrs)
	sp.End()
	if err != nil {
		<-c.sem
		return "", err
	}
	return id, nil
}

// Await waits for the result of the task Submit returned id for, resolves
// it, then evicts its payload and deletes its future. Call it at most once
// per ID: it frees the ID's in-flight slot when it returns. A wait the
// server refuses for its tagged-wait cap, or that fails in transit, is
// retried with backoff; a wait round that ends while the client is fenced,
// or after its heartbeat lapsed, fails with ErrTaskClientFenced. Once the
// client is closed, Await takes only a result already set, and otherwise
// fails with ErrTaskClientClosed.
func (c *TaskClient[Req, Res]) Await(ctx context.Context, id string) (Res, error) {
	defer func() { <-c.sem }()
	var res Res
	key := c.prefix + id
	raw, err := c.wait(ctx, key)
	if err != nil {
		return res, err
	}
	// The future goes last, after the payload: a crash in between leaves
	// nothing the sweep misses.
	defer c.fut.deleteFutures(context.WithoutCancel(ctx), key)
	ev, err := DecodeEvent(raw)
	if err != nil {
		return res, err
	}
	// "deliver" closes the trace the submit opened.
	if trace := ev.Attr(telemetry.AttrTrace); trace != "" {
		defer telemetry.Default().StartSpan(trace, ev.Attr(telemetry.AttrSpan), "deliver").End()
	}
	pxy := new(proxy.Proxy[Res])
	if err = pxy.UnmarshalBinary(ev.ProxyData); err == nil {
		res, err = pxy.Value(ctx)
		// Copied out or lost, the payload is done with.
		EvictPayload(ctx, pxy)
	}
	return res, err
}

// wait returns the value of the future at key. One wait round lasts the
// heartbeat TTL, so a fenced client notices within one round.
func (c *TaskClient[Req, Res]) wait(ctx context.Context, key string) ([]byte, error) {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(c.life, cancel)()
	round, lapses := DefaultHeartbeatTTL, int64(0)
	if c.hb != nil {
		round, lapses = c.hb.m.ttl, c.hb.Lapses()
	}
	var retry backoff
	for {
		if c.life.Err() != nil {
			// Closed: take a result already set, with one short wait.
			raw, ok, err := c.fut.awaitFuture(ctx, key, time.Millisecond)
			if err == nil && !ok {
				err = ErrTaskClientClosed
			}
			return raw, err
		}
		raw, ok, err := c.fut.awaitFuture(wctx, key, round)
		if ok {
			return raw, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if c.hb != nil && (c.hb.Fenced() || c.hb.Lapses() != lapses) {
			// The janitor may have swept this future while the client
			// read as dead.
			return nil, ErrTaskClientFenced
		}
		if err != nil {
			retry.pause(wctx) // cut short by Close or the caller's ctx
		}
	}
}

// Close stops the client: pending Awaits return (those whose result is
// already set still take it), and on a KVBroker it leaves the Clients
// group, so the workers' sweep reclaims the futures nobody
// will await. The store and broker are borrowed and stay open.
func (c *TaskClient[Req, Res]) Close() error {
	c.cancel()
	if c.hb != nil {
		return c.hb.Leave(context.Background())
	}
	return nil
}

// Kill simulates the client's process dying: pending Awaits and the
// heartbeat stop with none of Close's cleanup; its futures are reclaimed
// once the heartbeat expires, by the workers' sweep. Test and bench hook.
func (c *TaskClient[Req, Res]) Kill() {
	if c.hb != nil {
		c.hb.Kill()
	}
	c.cancel()
}

// DefaultSettleStrikes is how many failed deliveries of one task (one lease
// cycle each) a worker pool tolerates before treating its payload as lost:
// transient store outages heal within a strike or two, and a poison task
// stops burning broker commands.
const DefaultSettleStrikes = 3

// TaskWorkers is the executing half of a task stream: members of the
// plane's worker group and, on a KVBroker, a janitor reclaiming the result
// futures of clients that are gone.
type TaskWorkers[Req, Res any] struct {
	st    *store.Store
	fut   resultFutures // nil when the broker has none: every result fails
	plane TaskPlane
	hooks TaskHooks[Req, Res]

	// kb is the broker when it unwraps to a KVBroker; kb/mem drive the
	// orphan sweep: mem is the plane's Clients group.
	// swept counts the futures the janitor reclaimed since the last
	// SweepResults call, which reports them.
	kb    *KVBroker
	mem   *Membership
	swept atomic.Int64

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
	w := &TaskWorkers[Req, Res]{st: st, plane: plane, hooks: hooks,
		strikes: make(map[uint64]int), cancel: cancel}
	w.fut, _ = unwrapTo[resultFutures](b)
	// Member names carry a fresh ID: two processes serving the same name
	// must not collide on member identity, or a stale ack from one could
	// settle a same-named peer's live claim.
	instance := connector.NewID()[:8]
	for i := 0; i < n; i++ {
		member := fmt.Sprintf("%s-%s-w%d", name, instance, i)
		w.wg.Add(1)
		go w.work(ctx, b, member)
	}
	if w.kb, _ = AsKV(b); w.kb != nil {
		w.mem = w.kb.Membership(plane.Results, plane.Clients)
		w.wg.Add(1)
		go w.janitor(ctx)
	}
	return w
}

// work is one member's loop until ctx ends: it retries subscribing until
// it succeeds, then runs every task it claims, backing off on transient
// Next errors; the backoff resets on any success.
func (w *TaskWorkers[Req, Res]) work(ctx context.Context, b Broker, member string) {
	defer w.wg.Done()
	var retry backoff
	var cons *Consumer[Req]
	for cons == nil {
		var err error
		// Window 1: a member should never claim work it cannot start
		// within its lease.
		cons, err = NewConsumer[Req](ctx, b, w.plane.Tasks, member,
			WithGroup(w.plane.Group), WithEndCount(0), WithWindow(1))
		if err != nil && !retry.pause(ctx) {
			return
		}
	}
	defer cons.Close()
	for {
		it, err := cons.Next(ctx)
		if err == nil {
			retry = backoff{}
			w.execute(ctx, it)
		} else if errors.Is(err, ErrEnd) || ctx.Err() != nil || !retry.pause(ctx) {
			return
		}
	}
}

// execute runs one claimed task. The claim is settled only after the
// result is set; an earlier failure leaves the claim to its lease, so
// another member retries the task (at-least-once execution; only the
// first result set reaches the client).
func (w *TaskWorkers[Req, Res]) execute(ctx context.Context, it *Item[Req]) {
	req, err := it.Value(ctx)
	if err != nil {
		w.strike(ctx, it, err)
		return
	}
	// Continue the submitter's trace: "execute" parents under the task
	// event's span and is the parent the result carries.
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
	if err == nil {
		w.settle(ctx, it)
	}
}

// publish sets res as the result of task it, in the future the task
// event's reply attr names: the payload's proxy, the task ID and the trace
// context. A result that does not end up there — the set failed, or lost
// its CAS because an earlier run of the task (a worker died between set
// and ack) got there first — is reclaimed: its payload, and whatever
// Orphan finds in it. Only a failure is returned: it leaves the claim to
// its lease, while a lost CAS means the task has its result.
func (w *TaskWorkers[Req, Res]) publish(ctx context.Context, it *Item[Req], res Res, sp *telemetry.Span) error {
	set := false
	defer func() {
		if !set && w.hooks.Orphan != nil {
			w.hooks.Orphan(ctx, res)
		}
	}()
	key := it.Event.Attr(w.plane.AttrReply)
	if w.fut == nil {
		return errNoFutures
	}
	if !strings.HasPrefix(key, w.plane.futurePrefix()) {
		return fmt.Errorf("pstream: task %s names no result future of plane %q", it.Event.Attr(w.plane.AttrID), w.plane.Results)
	}
	attrs := map[string]string{w.plane.AttrID: it.Event.Attr(w.plane.AttrID)}
	sp.Inject(attrs)
	defer publishSpan(attrs).End()
	skey, err := w.st.PutObject(ctx, res)
	if err != nil {
		return err
	}
	var raw []byte
	data, err := store.ProxyFromKey[Res](w.st, skey).MarshalBinary()
	if err == nil {
		raw, err = EncodeEvent(Event{ProxyData: data, Attrs: attrs})
	}
	if err == nil {
		set, err = w.fut.setFuture(ctx, key, raw)
	}
	if !set {
		w.st.Evict(context.WithoutCancel(ctx), skey)
	}
	return err
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
// DefaultSettleStrikes times. Then the failure is set as the task's
// result, in the future the event attrs name (which exist so a worker can
// reply without the payload), and the claim is settled. If that set
// fails, the claim is again left to its lease.
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

// janitor sweeps the plane's futures once per heartbeat TTL: a dead client
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
			n, _ := w.sweep(ctx) // a failed sweep is retried next tick
			w.swept.Add(int64(n))
		}
	}
}

// SweepResults trims the task topic on a KVBroker, collecting the tasks
// the worker group is done with, and runs one orphan sweep over the
// plane's result futures: it lists them (KEYS), lists the Clients group's
// live members, and reclaims every future whose client is not one —
// dead, killed, lapsed, or closed before awaiting it: its payload,
// whatever Orphan finds in it, and the key. The janitor runs the same
// sweep; SweepResults returns the futures reclaimed since its last call,
// by this sweep or the janitor's. The sweep is a no-op on a broker that is
// not a KVBroker.
func (w *TaskWorkers[Req, Res]) SweepResults(ctx context.Context) (int, error) {
	if w.kb != nil {
		w.kb.trim(ctx, w.plane.Tasks)
	}
	n, err := w.sweep(ctx)
	return n + int(w.swept.Swap(0)), err
}

// sweep is one orphan sweep, returning the futures it reclaimed. The
// futures are listed before the heartbeats: a client joins before it
// submits, so the client of any listed future is among the heartbeats
// listed after it unless it left or lapsed in between, and a live client
// never loses a future to the sweep.
func (w *TaskWorkers[Req, Res]) sweep(ctx context.Context) (int, error) {
	if w.mem == nil {
		return 0, nil
	}
	prefix := w.plane.futurePrefix()
	keys, err := kvstore.Keys(ctx, w.kb.client, prefix)
	if err != nil {
		return 0, err
	}
	live, err := w.mem.Live(ctx)
	alive := make(map[string]bool, len(live))
	for _, c := range live {
		alive[c] = true
	}
	orphans := slices.DeleteFunc(keys, func(k string) bool {
		client, _, _ := strings.Cut(k[len(prefix):], ":")
		return alive[client]
	})
	if err != nil || len(orphans) == 0 {
		return 0, err
	}
	raws, err := kvstore.MGet(ctx, w.kb.client, orphans...)
	if err != nil {
		return 0, err
	}
	for _, raw := range raws {
		pxy := new(proxy.Proxy[Res])
		if ev, err := DecodeEvent(raw); raw == nil || err != nil || pxy.UnmarshalBinary(ev.ProxyData) != nil {
			continue // taken since the list was read, or unreadable
		}
		// Resolve the payload only for Orphan, then evict it.
		if w.hooks.Orphan != nil {
			if res, err := pxy.Value(ctx); err == nil {
				w.hooks.Orphan(ctx, res)
			}
		}
		EvictPayload(ctx, pxy)
	}
	n, err := kvstore.Del(ctx, w.kb.client, orphans...)
	w.kb.mOrphanGC.Add(uint64(n))
	return int(n), err
}

// Close stops the workers and the janitor. Unsettled claims are not
// released; they expire with their leases and are reclaimed by surviving
// members of the group (possibly in another process).
func (w *TaskWorkers[Req, Res]) Close() {
	w.cancel()
	w.wg.Wait()
}

// loopRetry is a retry pause's base; loopBackoffCap bounds its
// exponential backoff at this many multiples of it (50 ms → 1.6 s).
const (
	loopRetry      = 50 * time.Millisecond
	loopBackoffCap = 32
)

// backoff paces retries. Pauses double up to the cap and are jittered over
// [½, 1½]×, so restarting workers don't thundering-herd a recovering
// broker. The zero value starts at loopRetry.
type backoff struct{ delay time.Duration }

// pause sleeps one retry pause, reporting false if ctx ended first.
func (b *backoff) pause(ctx context.Context) bool {
	if b.delay == 0 {
		b.delay = loopRetry
	}
	d := b.delay/2 + time.Duration(rand.Int63n(int64(b.delay)))
	if b.delay < loopBackoffCap*loopRetry {
		b.delay *= 2
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
