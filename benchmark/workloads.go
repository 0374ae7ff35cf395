package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/local"
	"proxystore/internal/connectors/redisc"
	"proxystore/internal/faas"
	"proxystore/internal/kvstore"
	"proxystore/internal/proxy"
	"proxystore/internal/pstream"
	"proxystore/internal/store"
)

// clients is the number of closed-loop client goroutines of every
// workload: one per core of the two-core box the benchmark is sized for.
const clients = 2

// workload describes one benchmark workload. opsPerSecond fixes the
// operation count: a run of -seconds S performs opsPerSecond*S operations
// however long they take, so that memory and cache state at the end of a
// run do not depend on how fast the code under test is. The rates are what
// the seed commit sustains on two cores; they are constants, not flags, so
// that a later change cannot tune them.
type workload struct {
	name         string
	why          string
	opsPerSecond int
	payloadBytes int
	poolSize     int // distinct payload buffers per client
	build        func(e *env) (runner, error)
}

var workloads = []workload{
	{
		name:         "obj_small",
		why:          "1 KiB objects through store+redisc: per-command cost (RESP, server, pool, proxy descriptor); bytes are noise",
		opsPerSecond: 3600,
		payloadBytes: 1 << 10,
		poolSize:     64,
		build:        func(e *env) (runner, error) { return newObjRunner(e, 2) },
	},
	{
		name:         "obj_large",
		why:          "1 MiB objects (4 chunks) through the same layers: per-byte cost (codec, chunk copies, socket writes); commands are noise",
		opsPerSecond: 520,
		payloadBytes: 1 << 20,
		poolSize:     4,
		build:        func(e *env) (runner, error) { return newObjRunner(e, 1) },
	},
	{
		name:         "stream_group",
		why:          "64 B events to a consumer group over the kv broker with an in-memory data plane: the metadata plane alone",
		opsPerSecond: 1850,
		payloadBytes: 64,
		poolSize:     64,
		build:        newStreamRunner,
	},
	{
		name:         "task_rtt",
		why:          "no-op task round trip (paper fig. 5) through executor, broker, store and kv server: every layer at once",
		opsPerSecond: 1500,
		payloadBytes: 1 << 10,
		poolSize:     64,
		build:        newTaskRunner,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner is one built instance of a workload: servers, stores, brokers and
// workers are up, and do can be called from the client goroutines.
type runner interface {
	// do performs operation id for client c. A nil error means the
	// operation's output was checked and is correct. The latency is what
	// the workload defines it to be (see the README); it is meaningful
	// only with a nil error.
	do(ctx context.Context, c, id int) (time.Duration, error)
}

// env is what one set-up builds and one tear-down closes: the kv server
// and, through the helpers below, the handles whose counters the traced
// run reads. Everything is built with its default options.
type env struct {
	w    workload
	ops  int    // operations this instance will be asked for, warm-up included
	tag  string // unique within the process; store and topic names carry it
	srv  *kvstore.Server
	rec  *recorder // nil when untraced
	inj  injection
	pool *payloadPool

	st      *store.Store
	redis   *kvstore.Client     // the redisc connector's client, nil without one
	brokers []*pstream.KVBroker // every kv broker handle, for round trips and dials
	traced  *tracedBroker       // nil when untraced
	closers []func()            // run last-to-first by close
	// serial returns a value shaped like what the workload's store
	// serializes, for timing the codec on its own.
	serial func() any
	// descBytes sums serialized proxy sizes over a traced run.
	descBytes atomic.Uint64
	// broken counts failures no single operation saw, such as an event
	// delivered twice.
	broken atomic.Int64
}

var envSeq atomic.Int64

func newEnv(w workload, ops int, pool *payloadPool, rec *recorder, inj injection) (*env, error) {
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, ops: ops, srv: srv, rec: rec, inj: inj, pool: pool,
		tag: fmt.Sprintf("%s-%d", w.name, envSeq.Add(1))}
	e.closers = append(e.closers, func() { srv.Close() })
	return e, nil
}

func (e *env) violations() int { return int(e.broken.Load()) }

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

// newStore builds the workload's store over c, wrapped when tracing.
func (e *env) newStore(c connector.Connector) error {
	if rc, ok := c.(*redisc.Connector); ok {
		e.redis = rc.Client()
	}
	if e.rec != nil {
		var err error
		if c, err = traceConnector(c, e.rec, e.inj.connector); err != nil {
			return err
		}
	}
	st, err := store.New(e.tag, c)
	if err != nil {
		return err
	}
	e.st = st
	e.closers = append(e.closers, func() { st.Close() })
	return nil
}

// newBroker returns a kv broker on the env's server: a plain handle, or
// the traced pair of handles.
func (e *env) newBroker() pstream.Broker {
	if e.rec == nil {
		b := pstream.NewKV(e.srv.Addr())
		e.brokers = append(e.brokers, b)
		e.closers = append(e.closers, func() { b.Close() })
		return b
	}
	t := newTracedBroker(e.srv.Addr(), e.rec, e.inj)
	e.traced = t
	e.brokers = append(e.brokers, t.pub.(*pstream.KVBroker), t.sub.(*pstream.KVBroker))
	e.closers = append(e.closers, func() { t.Close() })
	return t
}

// --- payloads -------------------------------------------------------------------

// payloadPool holds the seeded, incompressible payload buffers. Each client
// owns poolSize buffers and cycles through them; before an operation it
// stamps the buffer with the operation number and its own position, so
// whoever receives the bytes can tell which buffer to compare them with.
// A client is closed-loop, so a buffer is never stamped while its previous
// operation is still in flight.
type payloadPool struct {
	bufs [clients][][]byte
	next [clients]int
}

const stampBytes = 10 // op number (8), client (1), buffer index (1)

func newPayloadPool(seed int64, w workload) *payloadPool {
	rng := rand.New(rand.NewSource(seed))
	p := &payloadPool{}
	for c := range p.bufs {
		p.bufs[c] = make([][]byte, w.poolSize)
		for k := range p.bufs[c] {
			p.bufs[c][k] = make([]byte, w.payloadBytes)
			rng.Read(p.bufs[c][k])
		}
	}
	return p
}

// take returns client c's next buffer, stamped for operation id.
func (p *payloadPool) take(c, id int) []byte {
	k := p.next[c]
	p.next[c] = (k + 1) % len(p.bufs[c])
	buf := p.bufs[c][k]
	binary.LittleEndian.PutUint64(buf, uint64(id))
	buf[8], buf[9] = byte(c), byte(k)
	return buf
}

// check reports whether got is exactly the payload stamped for operation
// id: a full comparison of every byte against the pooled original.
func (p *payloadPool) check(id int, got []byte) error {
	if len(got) < stampBytes {
		return fmt.Errorf("op %d: payload of %d bytes", id, len(got))
	}
	if stamped := binary.LittleEndian.Uint64(got); stamped != uint64(id) {
		return fmt.Errorf("op %d: payload stamped for op %d", id, stamped)
	}
	c, k := int(got[8]), int(got[9])
	if c >= clients || k >= len(p.bufs[c]) {
		return fmt.Errorf("op %d: payload stamp names buffer %d/%d", id, c, k)
	}
	if !bytes.Equal(got, p.bufs[c][k]) {
		return fmt.Errorf("op %d: payload differs from what was sent", id)
	}
	return nil
}

// --- obj_small, obj_large ---------------------------------------------------------

// objRunner is the data plane: a proxy is minted for a payload, serialized
// as a consumer process would receive it, resolved once or twice from
// fresh copies (the first misses the store's object cache, later ones hit
// it), and evicted.
type objRunner struct {
	e        *env
	resolves int
}

func newObjRunner(e *env, resolves int) (runner, error) {
	if err := e.newStore(redisc.New(e.srv.Addr())); err != nil {
		return nil, err
	}
	e.serial = func() any { return e.pool.bufs[0][0] }
	return &objRunner{e: e, resolves: resolves}, nil
}

func (r *objRunner) do(ctx context.Context, c, id int) (time.Duration, error) {
	rec := r.e.rec
	buf := r.e.pool.take(c, id)
	t0 := time.Now()
	ctx, root := rec.startOp(ctx, id)
	defer rec.end(root, 0)

	sctx, s := rec.start(ctx, "proxy.new")
	p, err := store.NewProxy(sctx, r.e.st, buf)
	rec.end(s, 0)
	if err != nil {
		return 0, err
	}
	_, s = rec.start(ctx, "proxy.marshal")
	wire, err := p.MarshalBinary()
	rec.end(s, 0)
	if err != nil {
		return 0, err
	}
	for i := 0; i < r.resolves; i++ {
		_, s = rec.start(ctx, "proxy.unmarshal")
		q := new(proxy.Proxy[[]byte])
		err := q.UnmarshalBinary(wire)
		rec.end(s, 0)
		if err != nil {
			return 0, err
		}
		name := "proxy.resolve_miss"
		if i > 0 {
			name = "proxy.resolve_hit"
		}
		sctx, s = rec.start(ctx, name)
		got, err := q.Value(sctx)
		rec.end(s, 0)
		if err != nil {
			return 0, err
		}
		if err := r.e.pool.check(id, got); err != nil {
			return 0, err
		}
	}
	sctx, s = rec.start(ctx, "store.evict")
	st, key, ok, err := store.KeyOf(p)
	if err == nil && !ok {
		err = errors.New("proxy has no store key")
	}
	if err == nil {
		err = st.Evict(sctx, key)
	}
	rec.end(s, 0)
	if err != nil {
		return 0, err
	}
	if rec != nil {
		r.e.descBytes.Add(uint64(len(wire)))
	}
	return time.Since(t0), nil
}

// --- stream_group -------------------------------------------------------------------

// clientAttr is the event attribute naming the publishing client, so the
// consumer knows whom to report the delivery to.
const clientAttr = "cl"

// delivery is what a consumer reports back to the publisher of an event.
type delivery struct {
	id   int
	next time.Time // when Next returned the event
	err  error
}

// streamRunner is the metadata plane: each client publishes one event and
// waits until a member of the consumer group has received, resolved,
// checked and acked it. Payloads live in the in-memory local connector, so
// the kv server sees broker traffic only.
type streamRunner struct {
	e       *env
	topic   string
	prod    *pstream.Producer[[]byte]
	results [clients]chan delivery
	// seen counts deliveries per operation; anything but exactly one is a
	// failure (a loss shows as the publisher's timeout, a duplicate here).
	seen []atomic.Int32
}

func newStreamRunner(e *env) (runner, error) {
	if err := e.newStore(local.New(e.tag)); err != nil {
		return nil, err
	}
	b := e.newBroker()
	topic := "events-" + e.tag
	// The consumers stop before the broker they read from is closed.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	e.closers = append(e.closers, func() {
		cancel()
		wg.Wait()
	})
	r := &streamRunner{e: e, topic: topic, seen: make([]atomic.Int32, e.ops),
		prod: pstream.NewProducer[[]byte](e.st, b, topic, pstream.WithEvictOnAck(1))}
	for c := range r.results {
		// One operation per client is in flight, so one slot suffices.
		r.results[c] = make(chan delivery, 1)
	}
	for m := 0; m < clients; m++ {
		cons, err := pstream.NewConsumer[[]byte](ctx, b, topic, "member-"+strconv.Itoa(m), pstream.WithGroup("g"))
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.consume(ctx, cons)
		}()
	}
	e.serial = func() any { return e.pool.bufs[0][0] }
	return r, nil
}

func (r *streamRunner) consume(ctx context.Context, cons *pstream.Consumer[[]byte]) {
	defer cons.Close()
	rec := r.e.rec
	for {
		_, s := rec.start(ctx, "pstream.item_next")
		it, err := cons.Next(ctx)
		at := time.Now()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// The event is unknown, so no publisher can be told; its
			// operation fails by timing out.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		id, err1 := strconv.Atoi(it.Event.Attr(opAttr))
		c, err2 := strconv.Atoi(it.Event.Attr(clientAttr))
		if err1 != nil || err2 != nil || id < 0 || id >= len(r.seen) || c < 0 || c >= clients {
			r.e.broken.Add(1) // an event nobody published
			continue
		}
		if s != nil {
			s.Flow = flowOf(r.topic, it.Event)
			rec.end(s, 0)
		}
		octx := rec.opCtx(ctx, id)
		sctx, s := rec.start(octx, "pstream.value")
		got, err := it.Value(sctx)
		rec.end(s, 0)
		if err == nil {
			err = r.e.pool.check(id, got)
		}
		sctx, s = rec.start(octx, "pstream.item_ack")
		if aerr := it.Ack(sctx); err == nil {
			err = aerr
		}
		rec.end(s, 0)
		if r.seen[id].Add(1) > 1 {
			r.e.broken.Add(1)
			continue
		}
		select {
		case r.results[c] <- delivery{id: id, next: at, err: err}:
		default: // the publisher gave up on an earlier operation; it has failed already
		}
	}
}

func (r *streamRunner) do(ctx context.Context, c, id int) (time.Duration, error) {
	rec := r.e.rec
	buf := r.e.pool.take(c, id)
	attrs := map[string]string{opAttr: strconv.Itoa(id), clientAttr: strconv.Itoa(c)}
	t0 := time.Now()
	ctx, root := rec.startOp(ctx, id)
	defer rec.end(root, 0)
	sctx, s := rec.start(ctx, "pstream.send")
	err := r.prod.Send(sctx, buf, attrs)
	rec.end(s, 0)
	if err != nil {
		return 0, err
	}
	for {
		select {
		case d := <-r.results[c]:
			if d.id != id {
				continue // left over from an operation that timed out
			}
			return d.next.Sub(t0), d.err
		case <-ctx.Done():
			return 0, fmt.Errorf("op %d: not delivered: %w", id, context.Cause(ctx))
		}
	}
}

// --- task_rtt ---------------------------------------------------------------------

const taskFunction = "benchmark.checksum"

// taskBody, when set, is told when the registered function starts and ends
// for an operation (the traced run's view inside the worker). The function
// registry is process-global, so the hook is too.
var taskBody atomic.Pointer[func(op int, start, end int64)]

func init() {
	faas.RegisterFunction(taskFunction, func(_ context.Context, args []any) (any, error) {
		hook := taskBody.Load()
		var start int64
		if hook != nil {
			start = time.Now().UnixNano()
		}
		if len(args) != 2 {
			return nil, fmt.Errorf("want 2 arguments, got %d", len(args))
		}
		op, ok1 := args[0].(int)
		data, ok2 := args[1].([]byte)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("want (int, []byte), got (%T, %T)", args[0], args[1])
		}
		sum := uint64(crc32.ChecksumIEEE(data))
		if hook != nil {
			(*hook)(op, start, time.Now().UnixNano())
		}
		return sum, nil
	})
}

// taskRunner is the task plane: each client submits the checksum function
// with a payload and blocks for the result, through a stream executor and
// a two-worker stream endpoint that share the store and the kv server.
type taskRunner struct {
	e    *env
	ep   *faas.StreamEndpoint
	exec *faas.StreamExecutor
}

func newTaskRunner(e *env) (runner, error) {
	if err := e.newStore(redisc.New(e.srv.Addr())); err != nil {
		return nil, err
	}
	b := e.newBroker()
	r := &taskRunner{e: e}
	r.ep = faas.StartStreamEndpoint(e.st, b, e.tag, clients)
	e.closers = append(e.closers, func() { r.ep.Close() })
	exec, err := faas.NewStreamExecutor(e.st, b, e.tag)
	if err != nil {
		return nil, err
	}
	r.exec = exec
	e.closers = append(e.closers, func() { exec.Close() })
	if rec := e.rec; rec != nil {
		epoch := rec.epoch.UnixNano()
		hook := func(op int, start, end int64) {
			rec.add(span{Name: "faas.body", Op: op, Parent: rootID(op), Start: start - epoch, End: end - epoch})
		}
		taskBody.Store(&hook)
		e.closers = append(e.closers, func() { taskBody.Store(nil) })
	}
	e.serial = func() any {
		// What the store serializes per task: a request whose Args (here
		// the bare payload) is the payload plus a few bytes of gob framing.
		return faas.TaskRequest{ID: connector.NewID(), Function: taskFunction,
			Args: e.pool.bufs[0][0], ResultTopic: faas.ResultTopic(e.tag), Client: connector.NewID()}
	}
	return r, nil
}

func (r *taskRunner) do(ctx context.Context, c, id int) (time.Duration, error) {
	rec := r.e.rec
	buf := r.e.pool.take(c, id)
	want := uint64(crc32.ChecksumIEEE(buf))
	t0 := time.Now()
	ctx, root := rec.startOp(ctx, id)
	defer rec.end(root, 0)
	sctx, s := rec.start(ctx, "faas.submit")
	fut, err := r.exec.Submit(sctx, taskFunction, id, buf)
	rec.end(s, 0)
	if err != nil {
		return 0, err
	}
	sctx, s = rec.start(ctx, "faas.result")
	got, err := fut.Result(sctx)
	rec.end(s, 0)
	if err != nil {
		return 0, err
	}
	if got != want {
		return 0, fmt.Errorf("op %d: result %v, want checksum %d", id, got, want)
	}
	return time.Since(t0), nil
}
