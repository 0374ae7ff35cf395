package colmena

// The stream-backed Task Server: both halves of a pstream task stream
// (pstream.TaskClient and pstream.TaskWorkers; see pstream's README, "Task
// streams") in one instance. This file holds only what is colmena's own:
// the wire names, the method registry with its store policies, and the
// Results channel.

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"proxystore/internal/proxy"
	"proxystore/internal/pstream"
	"proxystore/internal/serial"
	"proxystore/internal/store"
)

// Wire names of a server's task stream, in the roles of
// pstream.TaskPlane's Group, Clients, AttrID and AttrReply.
const (
	streamGroup     = "workers"
	thinkerGroup    = "thinkers"
	attrStreamID    = "colmena.id"
	attrStreamReply = "colmena.rt"
)

// streamTask is the bulk payload of one submission.
type streamTask struct {
	ID     string
	Method string
	// Input is the gob-encoded input value (see encodeAny); empty for a
	// nil input.
	Input []byte
}

// streamResult is the bulk payload of one completed task.
type streamResult struct {
	ID string
	// Value is the gob-encoded output (a proxy when the method's policy
	// proxies results); empty for a nil output.
	Value []byte
	Err   string
}

func init() {
	gob.Register(streamTask{})
	gob.Register(streamResult{})
}

// encodeAny serializes an arbitrary value with the default gob codec
// (serial.Default, the same wire format stores use); nil encodes to nil
// bytes, which gob itself cannot express.
func encodeAny(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	return serial.Default().Encode(v)
}

// decodeAny is the inverse of encodeAny.
func decodeAny(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, nil
	}
	return serial.Default().Decode(data)
}

// embeddedProxy returns the policy-store proxy a ProxyResults result
// carries, if any.
func embeddedProxy(r streamResult) *proxy.Proxy[[]byte] {
	v, err := decodeAny(r.Value)
	if err != nil {
		return nil
	}
	p, _ := v.(*proxy.Proxy[[]byte])
	return p
}

// StreamServer is the Colmena Task Server rebuilt on pstream: Submit is a
// producer on the server's task topic, the worker pool is a consumer
// group on that topic, and the Results channel is fed by one waiter per
// submission on the task's result future. Method registration and store
// policies work exactly as on Server; with ProxyResults the Result.Value
// delivered to the Thinker is a lazy proxy, resolved (if ever) via
// ResolveResult.
//
// A StreamServer is safe for concurrent use.
type StreamServer struct {
	registry
	results chan Result
	c       *pstream.TaskClient[streamTask, streamResult]
	w       *pstream.TaskWorkers[streamTask, streamResult]

	// life ends the waiters; waiters counts them. wmu orders each count
	// before the stop, so Close never waits while one can still be added.
	life    context.Context
	stop    context.CancelFunc
	wmu     sync.Mutex
	waiters sync.WaitGroup
}

// taskTopic names the shared task stream for a server name; resultTopic
// names its results: every instance of the name keeps its result futures
// under it, one key per task, so an instance churn leaves no private
// topics behind.
func taskTopic(name string) string   { return "colmena.t." + name }
func resultTopic(name string) string { return "colmena.r." + name }

// NewStreamServer starts a stream-backed task server with the given
// worker-pool size. st stores task and result payloads (its serializer
// must handle gob — the default does); b carries the O(100 B) events.
// When b unwraps to a KVBroker, the instance joins the server name's
// "thinkers" membership group and sweeps the result futures of instances
// that are gone.
func NewStreamServer(st *store.Store, b pstream.Broker, name string, workers, resultDepth int) (*StreamServer, error) {
	if workers < 1 {
		workers = 4
	}
	if resultDepth < 1 {
		resultDepth = 4096
	}
	s := &StreamServer{
		registry: newRegistry(),
		results:  make(chan Result, resultDepth),
	}
	plane := pstream.TaskPlane{
		Tasks: taskTopic(name), Results: resultTopic(name),
		Group: streamGroup, Clients: thinkerGroup,
		AttrID: attrStreamID, AttrReply: attrStreamReply,
	}
	c, err := pstream.NewTaskClient[streamTask, streamResult](st, b, plane)
	if err != nil {
		return nil, err
	}
	s.c = c
	s.life, s.stop = context.WithCancel(context.Background())
	s.w = pstream.StartTaskWorkers(st, b, plane, pstream.TaskHooks[streamTask, streamResult]{
		Execute: s.execute,
		Failed:  func(id string, err error) streamResult { return streamResult{ID: id, Err: err.Error()} },
		// A result nobody will consume — a duplicate, one swept after its
		// instance died, one that was never set — may embed a
		// ProxyResults proxy whose policy-store payload has no other
		// pointer to it.
		Orphan: func(ctx context.Context, r streamResult) { pstream.EvictPayload(ctx, embeddedProxy(r)) },
	}, name, workers)
	return s, nil
}

// SweepResults runs one orphan sweep over the server's result futures
// (pstream.TaskWorkers.SweepResults): results owed to an instance that is
// gone have their payloads — including any embedded ProxyResults proxy
// target — evicted from the store, and their futures deleted. Returns the
// futures reclaimed since the last call, by it or the instance's janitor.
// No-op on a broker that does not unwrap to a KVBroker.
func (s *StreamServer) SweepResults(ctx context.Context) (int, error) {
	return s.w.SweepResults(ctx)
}

// Results is the stream of completed tasks.
func (s *StreamServer) Results() <-chan Result { return s.results }

// Submit publishes the task to the server's task topic. Large []byte
// inputs are proxied into the method's registered policy store first, so
// they land in the store the user chose for that task type; either way
// the broker carries only the task event. Submit blocks while the
// in-flight window (pstream.TaskWindow) is full, and errors once the
// server closes.
func (s *StreamServer) Submit(ctx context.Context, method string, input any, tag any) error {
	_, policy, hasPolicy, ok := s.lookup(method)
	if !ok {
		return fmt.Errorf("colmena: method %q not registered", method)
	}
	arg := input
	var proxied *proxy.Proxy[[]byte]
	if hasPolicy && policy.Store != nil {
		if data, isBytes := input.([]byte); isBytes && len(data) >= policy.Threshold {
			p, err := store.NewProxy(ctx, policy.Store, data)
			if err != nil {
				return fmt.Errorf("colmena: proxying input: %w", err)
			}
			arg, proxied = p, p
		}
	}
	// A task that never makes it onto the topic leaves the policy-store
	// key unknown to every worker: reclaim it or it leaks on persistent
	// stores.
	inputGob, err := encodeAny(arg)
	if err != nil {
		pstream.EvictPayload(ctx, proxied)
		return err
	}
	s.wmu.Lock()
	if s.life.Err() != nil {
		s.wmu.Unlock()
		pstream.EvictPayload(ctx, proxied)
		return pstream.ErrTaskClientClosed
	}
	s.waiters.Add(1)
	s.wmu.Unlock()
	submitted := time.Now()
	id, err := s.c.Submit(ctx, func(id string, _ map[string]string) streamTask {
		return streamTask{ID: id, Method: method, Input: inputGob}
	})
	if err != nil {
		s.waiters.Done()
		pstream.EvictPayload(ctx, proxied)
		return err
	}
	go s.await(id, Result{Method: method, SubmittedAt: submitted, Tag: tag})
	return nil
}

// await is a submission's waiter: it resolves the task's result future
// and emits the result on Results. Tags and timestamps never cross the
// wire: they ride in result from Submit.
func (s *StreamServer) await(id string, result Result) {
	defer s.waiters.Done()
	r, err := s.c.Await(s.life, id)
	if err != nil && (s.life.Err() != nil || errors.Is(err, pstream.ErrTaskClientClosed)) {
		return // the server closed first: the submission never completes
	}
	result.CompletedAt = time.Now()
	if err != nil {
		result.Err = fmt.Errorf("colmena: resolving result: %w", err)
	} else if r.Err != "" {
		result.Err = fmt.Errorf("colmena: %s", r.Err)
	} else {
		result.Value, result.Err = decodeAny(r.Value)
	}
	select {
	case s.results <- result:
	case <-s.life.Done():
		pstream.EvictPayload(s.life, embeddedProxy(r))
	}
}

// execute runs one resolved task on a worker. Method and encoding errors
// become the result's Err; only a proxied input that fails to resolve is
// returned as an error (the core's poison-task policy).
func (s *StreamServer) execute(ctx context.Context, tk streamTask) (streamResult, error) {
	res := streamResult{ID: tk.ID}
	m, policy, hasPolicy, ok := s.lookup(tk.Method)
	if !ok {
		res.Err = fmt.Sprintf("method %q not registered", tk.Method)
		return res, nil
	}
	in, err := decodeAny(tk.Input)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	// Transparent resolution on the worker: a proxied input resolves to
	// its target before the method runs, exactly as on Server.
	if p, isProxy := in.(*proxy.Proxy[[]byte]); isProxy {
		if in, err = p.Value(ctx); err != nil {
			return res, err
		}
	}
	out, err := m(ctx, in)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	var minted *proxy.Proxy[[]byte] // ours until the result is set
	if hasPolicy && policy.ProxyResults && policy.Store != nil {
		if data, isBytes := out.([]byte); isBytes && len(data) >= policy.Threshold {
			if minted, err = store.NewProxy(ctx, policy.Store, data); err != nil {
				res.Err = fmt.Sprintf("proxying result: %v", err)
				return res, nil
			}
			out = minted
		}
	}
	if res.Value, err = encodeAny(out); err != nil {
		// The error result ships without the minted proxy, orphaning it.
		pstream.EvictPayload(ctx, minted)
		return streamResult{ID: tk.ID, Err: err.Error()}, nil
	}
	return res, nil
}

// Close stops the workers and the waiters. Tasks already claimed but
// unsettled expire with their leases; submissions still pending never
// complete (their producers should drain Results before Close). On a
// KVBroker, Close also leaves the thinkers group
// (pstream.TaskClient.Close), so a surviving instance's sweep reclaims
// results that land later, and a clean instance churn leaves no keys.
func (s *StreamServer) Close() error {
	s.stopWaiters()
	s.w.Close()
	return s.c.Close()
}

// stopWaiters ends the waiters and waits for them to return.
func (s *StreamServer) stopWaiters() {
	s.wmu.Lock()
	s.stop()
	s.wmu.Unlock()
	s.waiters.Wait()
}

// Kill simulates the instance's process dying: workers, waiters and
// heartbeat stop immediately with none of Close's cleanup — the heartbeat
// key stays until the server expires it a heartbeat TTL later, and
// unawaited results until a surviving instance's orphan sweep after that. Test and bench
// hook for churn scenarios.
func (s *StreamServer) Kill() {
	s.stopWaiters()
	s.c.Kill()
	s.w.Close()
}
