package faas

// The stream-backed task plane: StreamExecutor and StreamEndpoint are the
// two halves of a pstream task stream (pstream.TaskClient and
// pstream.TaskWorkers; see pstream's README, "Task streams"). This file
// holds only what is faas's own: the wire names, the args codec and
// function registry, and futures.

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"proxystore/internal/pstream"
	"proxystore/internal/store"
)

// TaskTopic returns the pstream topic on which the named endpoint's
// worker pool claims task submissions.
func TaskTopic(endpoint string) string { return "faas.t." + endpoint }

// ResultTopic returns the topic all of the named endpoint's executors read
// their results from, each keeping those its faas.rt attr addresses to it.
func ResultTopic(endpoint string) string { return "faas.r." + endpoint }

// TaskGroup is the consumer group endpoint workers claim tasks as, and
// ClientGroup the membership group executors join on the result topic
// (pstream.TaskPlane's Group and Clients).
const (
	TaskGroup   = "workers"
	ClientGroup = "clients"
)

// Event attributes carried on task and result events. They duplicate
// fields of the stored payload so that workers, executors and observers
// can route without resolving the bulk payload.
const (
	// AttrTaskID is the task's ID, on both task and result events.
	AttrTaskID = "faas.id"
	// AttrTaskFunction is the registered function name, on task events.
	AttrTaskFunction = "faas.fn"
	// AttrResultTopic is the routing tag: on task events it names the
	// result topic, on result events it carries the addressee's client ID.
	AttrResultTopic = "faas.rt"
	// AttrTaskClient is the submitting client's ID, on task events.
	AttrTaskClient = "faas.cl"
)

// TaskRequest is the bulk payload of one submission, stored through the
// data plane and carried by the task event's self-contained proxy.
type TaskRequest struct {
	// ID correlates the request with its TaskResult.
	ID string
	// Function names a registry entry on the executing worker.
	Function string
	// Args is the gob-encoded argument list — the same codec as the
	// classic executor, so proxies travel inside it unchanged.
	Args []byte
	// ResultTopic is where the executing worker publishes the TaskResult
	// (the endpoint's shared result topic).
	ResultTopic string
	// Client is the submitting executor's ID — the result event's faas.rt
	// routing tag, so only the submitter keeps the result.
	Client string
}

// TaskResult is the bulk payload of one completed task, published on the
// submitting client's result topic.
type TaskResult struct {
	// ID echoes the TaskRequest ID.
	ID string
	// Value is the gob-encoded result value; nil when Err is set.
	Value []byte
	// Err is the task error, if any.
	Err string
}

func init() {
	gob.Register(TaskRequest{})
	gob.Register(TaskResult{})
}

// plane returns the endpoint's task stream.
func plane(endpoint string) pstream.TaskPlane {
	return pstream.TaskPlane{
		Tasks: TaskTopic(endpoint), Results: ResultTopic(endpoint),
		Group: TaskGroup, Clients: ClientGroup,
		AttrID: AttrTaskID, AttrReply: AttrResultTopic, AttrClient: AttrTaskClient,
	}
}

// ErrExecutorClosed is returned by Submit after Close, and by pending
// futures whose executor shuts down before their result arrives.
var ErrExecutorClosed = errors.New("faas: stream executor closed")

// StreamExecutor submits tasks as pstream events instead of routing them
// through a Cloud: it is a pstream.TaskClient whose results complete
// futures. Each Submit stores a TaskRequest through the store (bulk
// plane) and publishes a compact event on the endpoint's task topic
// (metadata plane). There is no payload limit: arguments of any size ride
// the store.
//
// A StreamExecutor is safe for concurrent use.
type StreamExecutor struct {
	c *pstream.TaskClient[TaskRequest, TaskResult]

	mu      sync.Mutex
	pending map[string]*pendingResult
}

// pendingResult tracks one in-flight submission from Submit until its
// future consumes the result (or Close reclaims it). delivered flips when
// the result loop hands the item to ch, so later results with the same ID
// are recognized as duplicates.
type pendingResult struct {
	ch        chan *pstream.Item[TaskResult]
	delivered bool
}

// NewStreamExecutor returns an executor submitting to the named endpoint's
// task topic, storing payloads in st and events through b. The store must
// use a serializer that can encode TaskRequest/TaskResult (the default gob
// serializer does). On a KVBroker with heartbeats (pstream.WithKVHeartbeat)
// the executor joins the result topic's "clients" membership group, so the
// endpoint's orphan sweep can tell a slow client from a dead one.
func NewStreamExecutor(st *store.Store, b pstream.Broker, endpoint string) (*StreamExecutor, error) {
	e := &StreamExecutor{pending: make(map[string]*pendingResult)}
	c, err := pstream.NewTaskClient(st, b, plane(endpoint), pstream.TaskHooks[TaskRequest, TaskResult]{Deliver: e.deliver})
	if err != nil {
		return nil, err
	}
	e.c = c
	return e, nil
}

// ID returns the executor's client identity (its results' faas.rt tag).
func (e *StreamExecutor) ID() string { return e.c.ID() }

// deliver hands a result to its future without resolving it: bulk result
// bytes move only when (and if) Result asks for them.
func (e *StreamExecutor) deliver(_ context.Context, it *pstream.Item[TaskResult]) bool {
	id := it.Event.Attr(AttrTaskID)
	e.mu.Lock()
	p := e.pending[id]
	if p == nil || p.delivered {
		e.mu.Unlock()
		return false
	}
	p.delivered = true
	e.mu.Unlock()
	p.ch <- it // buffered; exactly one delivery per ID
	return true
}

// removePending drops id's pending entry and frees its in-flight slot.
// The slot is released exactly once per submission because the entry is
// in the map exactly once; entries bulk-cleared by Close release nothing
// (the executor is closed, so no Submit is waiting).
func (e *StreamExecutor) removePending(id string) {
	e.mu.Lock()
	_, ok := e.pending[id]
	delete(e.pending, id)
	e.mu.Unlock()
	if ok {
		e.c.Release()
	}
}

// Submit publishes the task to the endpoint's topic. Unlike the classic
// executor there is no service payload limit: serialized arguments of any
// size ride the data plane, and the broker carries O(100 B). Submit
// blocks while the executor's in-flight window (pstream.TaskWindow) is
// full, and fails with ErrExecutorClosed once the executor closes.
func (e *StreamExecutor) Submit(ctx context.Context, function string, args ...any) (*Future, error) {
	payload, err := encodeArgs(args)
	if err != nil {
		return nil, err
	}
	pr := &pendingResult{ch: make(chan *pstream.Item[TaskResult], 1)}
	id, err := e.c.Submit(ctx, func(id string, attrs map[string]string) TaskRequest {
		e.mu.Lock()
		e.pending[id] = pr
		e.mu.Unlock()
		attrs[AttrTaskFunction] = function
		// The routing attrs already name the result topic and this client.
		return TaskRequest{ID: id, Function: function, Args: payload,
			ResultTopic: attrs[AttrResultTopic], Client: attrs[AttrTaskClient]}
	})
	if err != nil {
		e.removePending(id)
		if errors.Is(err, pstream.ErrTaskClientClosed) {
			err = ErrExecutorClosed
		}
		return nil, err
	}
	// resolve runs on the CALLER's goroutine, so it must never touch the
	// result loop's subscription (Subscriptions are single-goroutine) — the
	// loop already acked the event, so all that is left here is the
	// payload, which the addressee owns.
	resolve := func(ctx context.Context, it *pstream.Item[TaskResult]) (any, error) {
		res, err := it.Value(ctx)
		e.removePending(id)
		// Reclaim the payload either way: on success it has been copied
		// out; on failure Result caches the error, so the value is
		// unreachable regardless.
		pstream.EvictPayload(ctx, it.Proxy)
		if err != nil {
			return nil, fmt.Errorf("faas: resolving result for task %s: %w", id, err)
		}
		if res.Err != "" {
			return nil, fmt.Errorf("faas: task %s: %s", id, res.Err)
		}
		return decodeValue(res.Value)
	}
	return &Future{wait: func(ctx context.Context) (any, error) {
		select {
		case it := <-pr.ch:
			return resolve(ctx, it)
		case <-e.c.Done():
			// A result delivered before shutdown still wins. The
			// delivered flag is the authority: if set, the item is in
			// pr.ch now or is transiently held by Close's prime-and-evict
			// drain, which always puts it back — so block on the channel,
			// not on a racy non-blocking peek.
			e.mu.Lock()
			delivered := pr.delivered
			e.mu.Unlock()
			if delivered {
				select {
				case it := <-pr.ch:
					return resolve(ctx, it)
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return nil, ErrExecutorClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}, nil
}

// Close stops the result loop (pstream.TaskClient.Close, which also
// removes the executor's keys from a KVBroker). Futures whose result never
// arrived fail with ErrExecutorClosed; futures whose result was already
// delivered still resolve it after Close. Delivered-but-unconsumed
// results — abandoned futures, Result calls whose context expired — are
// resolved into their proxies here and their stored payloads evicted, so
// nothing leaks either way. Close does not close the store or broker,
// which the executor borrows.
func (e *StreamExecutor) Close() error {
	err := e.c.Close()
	e.mu.Lock()
	remaining := e.pending
	e.pending = make(map[string]*pendingResult)
	e.mu.Unlock()
	ctx := context.Background()
	for _, pr := range remaining {
		select {
		case it := <-pr.ch:
			// Prime the proxy's cache before evicting the stored copy: a
			// Result call issued after Close must still find the value.
			// The item goes back in the buffered channel for that call.
			_, _ = it.Proxy.Value(ctx)
			pstream.EvictPayload(ctx, it.Proxy)
			pr.ch <- it
		default:
		}
	}
	return err
}

// Kill simulates the executor's process dying: the result loop and
// heartbeat stop immediately, with none of Close's cleanup — the
// committed offset, membership entries, and unconsumed results stay on
// the server until heartbeat expiry and the endpoint's orphan sweep
// reclaim them. Test and bench hook for churn scenarios.
func (e *StreamExecutor) Kill() { e.c.Kill() }

// StreamEndpoint is a compute endpoint whose workers claim tasks from the
// endpoint's task topic as a consumer group (a pstream.TaskWorkers pool),
// replacing the classic per-endpoint channel queue. A worker resolves the
// request's bulk payload from the data plane, executes the registered
// function, publishes the result, and only then settles its claim — so a
// worker that dies mid-task loses its lease and the task is re-executed
// by a surviving member (at-least-once execution, exactly-once result
// delivery via the client's dedup).
type StreamEndpoint struct {
	w        *pstream.TaskWorkers[TaskRequest, TaskResult]
	executed atomic.Uint64
}

// StartStreamEndpoint subscribes a pool of workers to the named endpoint's
// task topic. st stores result payloads (and must use a serializer that
// can encode TaskResult — the default gob serializer does).
func StartStreamEndpoint(st *store.Store, b pstream.Broker, name string, workers int) *StreamEndpoint {
	ep := &StreamEndpoint{}
	ep.w = pstream.StartTaskWorkers(st, b, plane(name), pstream.TaskHooks[TaskRequest, TaskResult]{
		Execute: ep.execute,
		Failed:  func(id string, err error) TaskResult { return TaskResult{ID: id, Err: err.Error()} },
	}, name, workers)
	return ep
}

// execute runs one resolved task. Function errors become the result's Err.
func (ep *StreamEndpoint) execute(ctx context.Context, req TaskRequest) (TaskResult, error) {
	res := TaskResult{ID: req.ID}
	if args, err := decodeArgs(req.Args); err != nil {
		res.Err = err.Error()
	} else if fn, err := lookupFunction(req.Function); err != nil {
		res.Err = err.Error()
	} else if out, err := fn(ctx, args); err != nil {
		res.Err = err.Error()
	} else if payload, err := encodeValue(out); err != nil {
		res.Err = err.Error()
	} else {
		res.Value = payload
	}
	// Count before publishing: the instant the result is sent, the
	// client's future can resolve on another goroutine, and callers joining
	// on futures legitimately expect Executed to cover their tasks.
	ep.executed.Add(1)
	return res, nil
}

// SweepResults runs one orphan sweep over the endpoint's result topic
// (pstream.TaskWorkers.SweepResults): results addressed to dead clients
// have their payloads evicted. Returns the number of log slots reclaimed.
// Safe to call directly (tests, benches); the endpoint also runs it on a
// heartbeat-TTL cadence.
func (ep *StreamEndpoint) SweepResults(ctx context.Context) (int, error) {
	return ep.w.SweepResults(ctx)
}

// Executed returns the number of tasks whose function this endpoint ran,
// like the classic Endpoint's counter. A task whose result publish fails
// is still counted (and re-executed elsewhere after its lease expires).
func (ep *StreamEndpoint) Executed() uint64 { return ep.executed.Load() }

// Close stops the endpoint's workers. Unsettled claims are not released;
// they expire with their leases and are reclaimed by surviving members of
// the endpoint's group (possibly in another process).
func (ep *StreamEndpoint) Close() error {
	ep.w.Close()
	return nil
}
