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
	"sync/atomic"

	"proxystore/internal/pstream"
	"proxystore/internal/store"
)

// TaskTopic returns the pstream topic on which the named endpoint's
// worker pool claims task submissions.
func TaskTopic(endpoint string) string { return "faas.t." + endpoint }

// ResultTopic returns the name of the named endpoint's results: each task
// result is a future, the key ps:<ResultTopic>:f:<executor>:<task>, and
// executors join the endpoint's client group under this name.
func ResultTopic(endpoint string) string { return "faas.r." + endpoint }

// TaskGroup is the consumer group endpoint workers claim tasks as, and
// ClientGroup the membership group executors join (pstream.TaskPlane's
// Group and Clients).
const (
	TaskGroup   = "workers"
	ClientGroup = "clients"
)

// Event attributes carried on task events. They duplicate fields of the
// stored payload so that workers and observers can route without
// resolving the bulk payload.
const (
	// AttrTaskID is the task's ID, on task events and in results.
	AttrTaskID = "faas.id"
	// AttrTaskFunction is the registered function name, on task events.
	AttrTaskFunction = "faas.fn"
	// AttrResultTopic is the key of the task's result future, which the
	// executing worker sets.
	AttrResultTopic = "faas.rt"
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
	// ResultTopic is the key of the future the executing worker sets the
	// TaskResult in (the task event's faas.rt).
	ResultTopic string
	// Client is the submitting executor's ID, the one the future key
	// names.
	Client string
}

// TaskResult is the bulk payload of one completed task, set in the
// submitting executor's result future.
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
		AttrID: AttrTaskID, AttrReply: AttrResultTopic,
	}
}

// ErrExecutorClosed is returned by Submit after Close, and by futures
// whose result was not yet set when their executor closed.
var ErrExecutorClosed = errors.New("faas: stream executor closed")

// StreamExecutor submits tasks as pstream events instead of routing them
// through a Cloud: it is a pstream.TaskClient whose result futures back
// faas futures. Each Submit stores a TaskRequest through the store (bulk
// plane) and publishes a compact event on the endpoint's task topic
// (metadata plane). There is no payload limit: arguments of any size ride
// the store.
//
// A StreamExecutor is safe for concurrent use.
type StreamExecutor struct {
	c *pstream.TaskClient[TaskRequest, TaskResult]
}

// NewStreamExecutor returns an executor submitting to the named endpoint's
// task topic, storing payloads in st and events through b. The store must
// use a serializer that can encode TaskRequest/TaskResult (the default gob
// serializer does). On a KVBroker the executor joins the endpoint's
// "clients" membership group, so the endpoint's orphan sweep can tell a
// slow client from a dead one.
func NewStreamExecutor(st *store.Store, b pstream.Broker, endpoint string) (*StreamExecutor, error) {
	c, err := pstream.NewTaskClient[TaskRequest, TaskResult](st, b, plane(endpoint))
	if err != nil {
		return nil, err
	}
	return &StreamExecutor{c: c}, nil
}

// Submit publishes the task to the endpoint's topic. Unlike the classic
// executor there is no service payload limit: serialized arguments of any
// size ride the data plane, and the broker carries O(100 B). Submit
// blocks while the executor's in-flight window (pstream.TaskWindow) is
// full, and fails with ErrExecutorClosed once the executor closes. The
// future's Result waits on the task's result future; bulk result bytes
// move only then.
func (e *StreamExecutor) Submit(ctx context.Context, function string, args ...any) (*Future, error) {
	payload, err := encodeArgs(args)
	if err != nil {
		return nil, err
	}
	id, err := e.c.Submit(ctx, func(id string, attrs map[string]string) TaskRequest {
		attrs[AttrTaskFunction] = function
		return TaskRequest{ID: id, Function: function, Args: payload,
			ResultTopic: attrs[AttrResultTopic], Client: e.c.ID()}
	})
	if errors.Is(err, pstream.ErrTaskClientClosed) {
		return nil, ErrExecutorClosed
	}
	if err != nil {
		return nil, err
	}
	return &Future{wait: func(ctx context.Context) (any, error) {
		res, err := e.c.Await(ctx, id)
		switch {
		case errors.Is(err, pstream.ErrTaskClientClosed):
			return nil, ErrExecutorClosed
		case err != nil:
			return nil, fmt.Errorf("faas: result for task %s: %w", id, err)
		case res.Err != "":
			return nil, fmt.Errorf("faas: task %s: %s", id, res.Err)
		}
		return decodeValue(res.Value)
	}}, nil
}

// Close stops the executor (pstream.TaskClient.Close, which also leaves
// the client group on a KVBroker). A future whose result
// is already set still resolves after Close; the others fail with
// ErrExecutorClosed, and the endpoint's sweep reclaims their results.
// Close does not close the store or broker, which the executor borrows.
func (e *StreamExecutor) Close() error { return e.c.Close() }

// Kill simulates the executor's process dying: pending futures and the
// heartbeat stop immediately, with none of Close's cleanup — the
// heartbeat key stays until the server expires it a heartbeat TTL later,
// and unawaited results until the endpoint's orphan sweep after that.
// Test and bench hook for churn scenarios.
func (e *StreamExecutor) Kill() { e.c.Kill() }

// StreamEndpoint is a compute endpoint whose workers claim tasks from the
// endpoint's task topic as a consumer group (a pstream.TaskWorkers pool),
// replacing the classic per-endpoint channel queue. A worker resolves the
// request's bulk payload from the data plane, executes the registered
// function, sets the result in the task's future, and only then settles
// its claim — so a worker that dies mid-task loses its lease and the task
// is re-executed by a surviving member (at-least-once execution,
// exactly-once result delivery: the future takes only the first result).
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
	// Count before setting the result: the instant it is set, the
	// client's future can resolve on another goroutine, and callers joining
	// on futures legitimately expect Executed to cover their tasks.
	ep.executed.Add(1)
	return res, nil
}

// SweepResults runs one orphan sweep over the endpoint's result futures
// (pstream.TaskWorkers.SweepResults): results of executors that are dead,
// killed or closed before awaiting them are evicted with their futures.
// On a KVBroker the endpoint also sweeps once per heartbeat TTL; SweepResults
// returns the futures reclaimed since its last call, by either. Safe to
// call directly (tests, benches).
func (ep *StreamEndpoint) SweepResults(ctx context.Context) (int, error) {
	return ep.w.SweepResults(ctx)
}

// Executed returns the number of tasks whose function this endpoint ran,
// like the classic Endpoint's counter. A task whose result set fails is
// still counted (and re-executed elsewhere after its lease expires).
func (ep *StreamEndpoint) Executed() uint64 { return ep.executed.Load() }

// Close stops the endpoint's workers. Unsettled claims are not released;
// they expire with their leases and are reclaimed by surviving members of
// the endpoint's group (possibly in another process).
func (ep *StreamEndpoint) Close() error {
	ep.w.Close()
	return nil
}
