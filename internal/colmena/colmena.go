// Package colmena implements a Colmena-like steering framework for
// ensembles of simulations (paper §5.2): a Thinker submits tasks to a Task
// Server, which dispatches them to a workflow engine's workers and streams
// results back on a queue.
//
// ProxyStore integrates at the library level exactly as in the paper: a
// Store and size threshold can be registered per task method; task inputs
// and results larger than the threshold are replaced by proxies before they
// enter the task server's data path, relieving the workflow system of the
// heavy bytes.
//
// Two task servers share the Submit/Results API. Server dispatches to an
// in-process workflow.Engine over its modeled hub-spoke channel.
// StreamServer rebuilds the same loop on a pstream task stream — the one
// faas's stream executor runs on, described in internal/pstream/README.md
// ("Task streams"): Submit publishes a task event, a pool of workers
// claims events as a consumer group, and each result is set in a future
// of its own — one key per task — whose waiter feeds the Results channel.
// Bulk inputs and outputs ride the store data plane while the broker moves
// only O(100 B) per task, so the steering loop runs unchanged across
// processes or sites wherever a Broker reaches.
package colmena

import (
	"context"
	"fmt"
	"sync"
	"time"

	"proxystore/internal/proxy"
	"proxystore/internal/store"
	"proxystore/internal/workflow"
)

// Method is a task implementation registered with the server.
type Method func(ctx context.Context, input any) (any, error)

// Result is a completed task delivered to the Thinker.
type Result struct {
	// Method is the task type.
	Method string
	// Value is the task output (possibly a proxy when result proxying is
	// enabled and the output was large).
	Value any
	// Err is the task error, if any.
	Err error
	// SubmittedAt and CompletedAt bracket the round trip.
	SubmittedAt time.Time
	CompletedAt time.Time
	// Tag is the caller's correlation value.
	Tag any
}

// RTT returns the task round-trip time as observed by the Thinker.
func (r Result) RTT() time.Duration { return r.CompletedAt.Sub(r.SubmittedAt) }

// StorePolicy attaches a ProxyStore store to a method.
type StorePolicy struct {
	// Store proxies inputs/results through this store.
	Store *store.Store
	// Threshold is the minimum serialized size (bytes) for proxying; the
	// paper registers a threshold per task type.
	Threshold int
	// ProxyResults also proxies task outputs (the paper's "two additional
	// lines of task code").
	ProxyResults bool
}

// registry is the method/policy table shared by Server and StreamServer.
type registry struct {
	mu       sync.RWMutex
	methods  map[string]Method
	policies map[string]StorePolicy
}

func newRegistry() registry {
	return registry{
		methods:  make(map[string]Method),
		policies: make(map[string]StorePolicy),
	}
}

// RegisterMethod installs a task implementation.
func (r *registry) RegisterMethod(name string, m Method) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.methods[name] = m
}

// RegisterStore attaches a proxying policy to a method (paper: "users can
// register a Store and associated threshold for each task type").
func (r *registry) RegisterStore(method string, p StorePolicy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policies[method] = p
}

// lookup returns a method and its policy; ok is false when unregistered.
func (r *registry) lookup(method string) (m Method, policy StorePolicy, hasPolicy, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok = r.methods[method]
	policy, hasPolicy = r.policies[method]
	return m, policy, hasPolicy, ok
}

// Server is the Colmena Task Server.
//
// A Server is safe for concurrent use.
type Server struct {
	registry
	engine  *workflow.Engine
	results chan Result
}

// NewServer wraps a workflow engine.
func NewServer(engine *workflow.Engine, resultDepth int) *Server {
	if resultDepth < 1 {
		resultDepth = 4096
	}
	return &Server{
		registry: newRegistry(),
		engine:   engine,
		results:  make(chan Result, resultDepth),
	}
}

// Results is the stream of completed tasks.
func (s *Server) Results() <-chan Result { return s.results }

// Submit schedules a task. Large inputs are proxied per the method's store
// policy before entering the engine's data path. tag is returned with the
// result for correlation.
func (s *Server) Submit(ctx context.Context, method string, input any, tag any) error {
	m, policy, hasPolicy, ok := s.lookup(method)
	if !ok {
		return fmt.Errorf("colmena: method %q not registered", method)
	}
	submitted := time.Now()

	arg := input
	if hasPolicy && policy.Store != nil {
		if data, isBytes := input.([]byte); isBytes && len(data) >= policy.Threshold {
			p, err := store.NewProxy(ctx, policy.Store, data)
			if err != nil {
				return fmt.Errorf("colmena: proxying input: %w", err)
			}
			arg = p
		}
	}

	fut := s.engine.Submit(func(ctx context.Context, args []any) (any, error) {
		in := args[0]
		// Transparent resolution on the worker: a proxy argument resolves
		// to its target before the method runs.
		if p, isProxy := in.(*proxy.Proxy[[]byte]); isProxy {
			data, err := p.Value(ctx)
			if err != nil {
				return nil, err
			}
			in = data
		}
		out, err := m(ctx, in)
		if err != nil {
			return nil, err
		}
		if hasPolicy && policy.ProxyResults && policy.Store != nil {
			if data, isBytes := out.([]byte); isBytes && len(data) >= policy.Threshold {
				p, err := store.NewProxy(ctx, policy.Store, data)
				if err != nil {
					return nil, fmt.Errorf("colmena: proxying result: %w", err)
				}
				return p, nil
			}
		}
		return out, nil
	}, arg)

	go func() {
		v, err := fut.Result(context.Background())
		s.results <- Result{
			Method:      method,
			Value:       v,
			Err:         err,
			SubmittedAt: submitted,
			CompletedAt: time.Now(),
			Tag:         tag,
		}
	}()
	return nil
}

// ResolveResult materializes a result value that may be a proxy.
func ResolveResult(ctx context.Context, v any) (any, error) {
	if p, ok := v.(*proxy.Proxy[[]byte]); ok {
		return p.Value(ctx)
	}
	return v, nil
}

func init() {
	// Byte-payload proxies travel through engine channels inside []any.
	proxy.RegisterGob[[]byte]()
}
