package colmena

// The stream-backed Task Server: both halves of a pstream task stream
// (pstream.TaskClient and pstream.TaskWorkers; see pstream's README, "Task
// streams") in one instance. This file holds only what is colmena's own:
// the wire names, the method registry with its store policies, and the
// Results channel.

import (
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"proxystore/internal/proxy"
	"proxystore/internal/pstream"
	"proxystore/internal/serial"
	"proxystore/internal/store"
)

// Wire names of a server's task stream, in the roles of
// pstream.TaskPlane's Group, Clients, AttrID, AttrReply and AttrClient.
const (
	streamGroup        = "workers"
	thinkerGroup       = "thinkers"
	attrStreamID       = "colmena.id"
	attrStreamReply    = "colmena.rt"
	attrStreamInstance = "colmena.in"
)

// streamTask is the bulk payload of one submission.
type streamTask struct {
	ID     string
	Method string
	// Input is the gob-encoded input value (see encodeAny); empty for a
	// nil input.
	Input []byte
	// ResultTopic is the server's shared result topic; Instance is the
	// submitting instance's ID, its results' colmena.rt routing tag.
	ResultTopic string
	Instance    string
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

// pendingTask is the Thinker-side state kept per in-flight submission, so
// tags and timestamps never cross the wire.
type pendingTask struct {
	method    string
	tag       any
	submitted time.Time
}

// StreamServer is the Colmena Task Server rebuilt on pstream: Submit is a
// producer on the server's task topic, the worker pool is a consumer
// group on that topic, and the Results channel is fed by a consumer on
// the server's result topic. Method registration and store policies work
// exactly as on Server; with ProxyResults the Result.Value delivered to
// the Thinker is a lazy proxy, resolved (if ever) via ResolveResult.
//
// A StreamServer is safe for concurrent use.
type StreamServer struct {
	registry
	results chan Result
	c       *pstream.TaskClient[streamTask, streamResult]
	w       *pstream.TaskWorkers[streamTask, streamResult]

	pmu     sync.Mutex
	pending map[string]pendingTask
}

// taskTopic names the shared task stream for a server name; resultTopic
// names its shared result stream. Every instance of the name reads the
// result topic as an independent fan-out consumer and keeps only results
// tagged with its own instance ID — one topic per server name, not one
// per instance, so an instance churn leaves no private topics behind.
func taskTopic(name string) string   { return "colmena.t." + name }
func resultTopic(name string) string { return "colmena.r." + name }

// NewStreamServer starts a stream-backed task server with the given
// worker-pool size. st stores task and result payloads (its serializer
// must handle gob — the default does); b carries the O(100 B) events.
// When b unwraps to a KVBroker with heartbeats enabled, the instance
// joins the result topic's "thinkers" membership group and sweeps the
// topic for results addressed to dead instances.
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
		pending:  make(map[string]pendingTask),
	}
	plane := pstream.TaskPlane{
		Tasks: taskTopic(name), Results: resultTopic(name),
		Group: streamGroup, Clients: thinkerGroup,
		AttrID: attrStreamID, AttrReply: attrStreamReply, AttrClient: attrStreamInstance,
	}
	hooks := pstream.TaskHooks[streamTask, streamResult]{
		Execute: s.execute,
		Failed:  func(id string, err error) streamResult { return streamResult{ID: id, Err: err.Error()} },
		Deliver: s.deliver,
		// A result nobody will consume — a duplicate, one swept after its
		// instance died, one whose publish failed — may embed a
		// ProxyResults proxy whose policy-store payload has no other
		// pointer to it.
		Orphan: func(ctx context.Context, r streamResult) { pstream.EvictPayload(ctx, embeddedProxy(r)) },
	}
	c, err := pstream.NewTaskClient(st, b, plane, hooks)
	if err != nil {
		return nil, err
	}
	s.c = c
	s.w = pstream.StartTaskWorkers(st, b, plane, hooks, name, workers)
	return s, nil
}

// SweepResults runs one orphan sweep over the server's shared result
// topic (pstream.TaskWorkers.SweepResults): results addressed to a dead
// instance have their payloads — including any embedded ProxyResults
// proxy target — evicted from the store. Returns the number of log slots
// reclaimed. No-op on brokers without heartbeats.
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
	id, err := s.c.Submit(ctx, func(id string, attrs map[string]string) streamTask {
		s.pmu.Lock()
		s.pending[id] = pendingTask{method: method, tag: tag, submitted: time.Now()}
		s.pmu.Unlock()
		// The routing attrs already name the result topic and this instance.
		return streamTask{ID: id, Method: method, Input: inputGob,
			ResultTopic: attrs[attrStreamReply], Instance: attrs[attrStreamInstance]}
	})
	if err != nil {
		s.takePending(id)
		pstream.EvictPayload(ctx, proxied)
	}
	return err
}

// takePending removes and returns id's pending entry, freeing its
// in-flight slot exactly once per submission (the entry is in the map
// exactly once).
func (s *StreamServer) takePending(id string) (pendingTask, bool) {
	s.pmu.Lock()
	p, ok := s.pending[id]
	delete(s.pending, id)
	s.pmu.Unlock()
	if ok {
		s.c.Release()
	}
	return p, ok
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
	var minted *proxy.Proxy[[]byte] // ours until the result ships
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

// deliver correlates a result addressed to this instance with its pending
// submission and emits it on Results, reclaiming the result payload (the
// shared topic carries no evict-on-ack, so the addressee evicts). It
// reports false for a duplicate or stray, which the core reclaims.
func (s *StreamServer) deliver(ctx context.Context, it *pstream.Item[streamResult]) bool {
	p, ok := s.takePending(it.Event.Attr(attrStreamID))
	if !ok {
		return false
	}
	r, resolveErr := it.Value(ctx)
	v, decErr := decodeAny(r.Value)
	pstream.EvictPayload(ctx, it.Proxy)
	result := Result{
		Method:      p.method,
		Value:       v,
		SubmittedAt: p.submitted,
		CompletedAt: time.Now(),
		Tag:         p.tag,
	}
	switch {
	case resolveErr != nil:
		result.Value = nil
		result.Err = fmt.Errorf("colmena: resolving result: %w", resolveErr)
	case r.Err != "":
		result.Err = fmt.Errorf("colmena: %s", r.Err)
	case decErr != nil:
		result.Err = decErr
	}
	select {
	case s.results <- result:
	case <-ctx.Done():
	}
	return true
}

// Close stops the workers and the results loop. Tasks already claimed but
// unsettled expire with their leases; submissions still pending never
// complete (their producers should drain Results before Close). On a
// KVBroker, Close also removes the instance's keys from the server
// (pstream.TaskClient.Close), so a clean instance churn leaves none.
func (s *StreamServer) Close() error {
	s.w.Close()
	return s.c.Close()
}

// Kill simulates the instance's process dying: workers, result loop, and
// heartbeat stop immediately with none of Close's cleanup — the committed
// offset, membership entries, and unconsumed results stay on the server
// until heartbeat expiry and a surviving instance's orphan sweep reclaim
// them. Test and bench hook for churn scenarios.
func (s *StreamServer) Kill() {
	s.c.Kill()
	s.w.Close()
}
