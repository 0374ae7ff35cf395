// Package faas implements a federated function-as-a-service platform
// modelled on Globus Compute (funcX): a cloud service that routes tasks
// from clients to registered compute endpoints and stores results until
// retrieved (paper §2, §5.1).
//
// The data path reproduces the property the paper attacks: every task's
// serialized inputs travel client → cloud → endpoint, and results travel
// endpoint → cloud → client, paying the modeled WAN each way even when
// client and endpoint share a machine. The cloud enforces Globus Compute's
// 5 MB payload limit. Functions are Go closures in a process-global
// registry (Go cannot pickle code); proxies travel inside gob-encoded
// argument lists exactly as they do inside pickled payloads in Python.
//
// Two executors share one futures API. The classic Executor/Endpoint pair
// above routes every task through the Cloud. The stream-backed
// StreamExecutor/StreamEndpoint pair replaces the cloud's per-endpoint
// channel queue with a pstream task topic: submissions are O(100 B)
// events claimed by endpoint worker pools as a consumer group
// (claims/leases give exactly-one-live-member dispatch and crash
// reclamation), bulk arguments and results ride the store data plane, and
// each result comes back as a self-contained proxy event in a future of
// its own, one key per task, that the submitter waits on. Both executors
// return *Future, so callers are written once; see README.md for the wire
// format and delivery guarantees.
package faas

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/netsim"
)

// PayloadLimit is Globus Compute's task payload cap (paper §2).
const PayloadLimit = 5 << 20

// ErrPayloadTooLarge is returned when serialized arguments or results
// exceed PayloadLimit.
var ErrPayloadTooLarge = fmt.Errorf("faas: payload exceeds %d-byte service limit", PayloadLimit)

// Function is a registered remote function.
type Function func(ctx context.Context, args []any) (any, error)

var (
	fnMu      sync.RWMutex
	functions = make(map[string]Function)
)

// RegisterFunction installs fn under name in the process-global registry
// (the Go analogue of shipping pickled code to workers).
func RegisterFunction(name string, fn Function) {
	fnMu.Lock()
	defer fnMu.Unlock()
	functions[name] = fn
}

func lookupFunction(name string) (Function, error) {
	fnMu.RLock()
	defer fnMu.RUnlock()
	fn, ok := functions[name]
	if !ok {
		return nil, fmt.Errorf("faas: function %q not registered", name)
	}
	return fn, nil
}

// task is a queued invocation.
type task struct {
	id       string
	function string
	payload  []byte // gob([]any)
	result   chan taskResult
}

type taskResult struct {
	payload []byte // gob of result value
	err     string
}

// Cloud is the hosted service: per-endpoint task queues plus a result path.
//
// A Cloud is safe for concurrent use.
type Cloud struct {
	net  *netsim.Network
	site string

	mu     sync.Mutex
	queues map[string]chan *task

	tasks atomic.Uint64
}

const (
	// serviceOverhead is the nominal control-plane cost per task
	// (dispatch, storage, result handling inside the service) — the reason
	// baseline Globus Compute round trips have a ~2 s floor in Figure 5.
	// It is divided by the network's time scale.
	serviceOverhead = 1500 * time.Millisecond
	// payloadBW is the service's effective nominal throughput for task
	// payloads in bytes per second (serialize, store in the service's
	// Redis/S3, forward) — a few MB/s in practice, which is why baseline
	// round-trip time grows with payload size in Figure 5. Divided by the
	// network's time scale.
	payloadBW = 2e6
)

// NewCloud creates the service at the given netsim site (usually
// netsim.SiteCloud).
func NewCloud(n *netsim.Network, site string) *Cloud {
	return &Cloud{net: n, site: site, queues: make(map[string]chan *task)}
}

// serviceDelay pays the scaled control-plane overhead.
func (c *Cloud) serviceDelay() {
	scale := 1.0
	if c.net != nil {
		scale = c.net.Scale()
	}
	time.Sleep(time.Duration(float64(serviceOverhead) / scale))
}

// Tasks returns the number of tasks routed through the cloud.
func (c *Cloud) Tasks() uint64 { return c.tasks.Load() }

func (c *Cloud) queue(endpoint string) chan *task {
	c.mu.Lock()
	defer c.mu.Unlock()
	q, ok := c.queues[endpoint]
	if !ok {
		q = make(chan *task, 4096)
		c.queues[endpoint] = q
	}
	return q
}

func (c *Cloud) delay(ctx context.Context, from, to string, size int) error {
	if c.net == nil {
		return nil
	}
	if err := c.net.Delay(ctx, from, to, size); err != nil {
		return err
	}
	// Service-side payload handling at the cloud's effective throughput.
	if size > 0 {
		d := time.Duration(float64(size) / payloadBW * float64(time.Second) / c.net.Scale())
		if d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
			}
		}
	}
	return nil
}

// Endpoint is a compute endpoint polling the cloud for tasks.
type Endpoint struct {
	cloud *Cloud
	name  string
	site  string

	cancel context.CancelFunc
	wg     sync.WaitGroup

	executed atomic.Uint64
}

// StartEndpoint registers an endpoint and begins executing tasks with the
// given worker parallelism.
func StartEndpoint(cloud *Cloud, name, site string, workers int) *Endpoint {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	ep := &Endpoint{cloud: cloud, name: name, site: site, cancel: cancel}
	q := cloud.queue(name)
	for i := 0; i < workers; i++ {
		ep.wg.Add(1)
		go ep.worker(ctx, q)
	}
	return ep
}

// Executed returns the number of tasks this endpoint completed.
func (ep *Endpoint) Executed() uint64 { return ep.executed.Load() }

// Close stops the endpoint's workers.
func (ep *Endpoint) Close() error {
	ep.cancel()
	ep.wg.Wait()
	return nil
}

func (ep *Endpoint) worker(ctx context.Context, q chan *task) {
	defer ep.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-q:
			ep.execute(ctx, t)
		}
	}
}

func (ep *Endpoint) execute(ctx context.Context, t *task) {
	// Task payload travels cloud -> endpoint.
	if err := ep.cloud.delay(ctx, ep.cloud.site, ep.site, len(t.payload)); err != nil {
		t.result <- taskResult{err: err.Error()}
		return
	}

	var res taskResult
	args, err := decodeArgs(t.payload)
	if err != nil {
		res.err = err.Error()
	} else if fn, err := lookupFunction(t.function); err != nil {
		res.err = err.Error()
	} else if out, err := fn(ctx, args); err != nil {
		res.err = err.Error()
	} else if payload, err := encodeValue(out); err != nil {
		res.err = err.Error()
	} else if len(payload) > PayloadLimit {
		res.err = ErrPayloadTooLarge.Error()
	} else {
		res.payload = payload
	}
	ep.executed.Add(1)

	// Result travels endpoint -> cloud.
	if err := ep.cloud.delay(ctx, ep.site, ep.cloud.site, len(res.payload)); err != nil {
		res = taskResult{err: err.Error()}
	}
	t.result <- res
}

// Executor submits tasks to a target endpoint through the cloud, like the
// Globus Compute SDK's Executor (paper Listing 2).
type Executor struct {
	cloud    *Cloud
	endpoint string
	site     string // client's site
}

// NewExecutor returns an executor for a client at site submitting to the
// named endpoint.
func NewExecutor(cloud *Cloud, endpoint, clientSite string) *Executor {
	return &Executor{cloud: cloud, endpoint: endpoint, site: clientSite}
}

// Future is a pending task result. It is the adapter both executors hand
// out: the classic executor resolves it from the cloud's result channel,
// the stream executor from the task's result future. Either way the
// result payload moves toward the client only on first retrieval.
type Future struct {
	wait func(ctx context.Context) (any, error)

	once  sync.Once
	value any
	err   error
}

// Submit serializes args and routes the task to the executor's endpoint via
// the cloud. It fails immediately if the payload exceeds the service limit.
func (e *Executor) Submit(ctx context.Context, function string, args ...any) (*Future, error) {
	payload, err := encodeArgs(args)
	if err != nil {
		return nil, err
	}
	if len(payload) > PayloadLimit {
		return nil, ErrPayloadTooLarge
	}
	// Payload travels client -> cloud.
	if err := e.cloud.delay(ctx, e.site, e.cloud.site, len(payload)); err != nil {
		return nil, err
	}
	t := &task{
		id:       connector.NewID(),
		function: function,
		payload:  payload,
		result:   make(chan taskResult, 1),
	}
	e.cloud.tasks.Add(1)
	e.cloud.serviceDelay()
	select {
	case e.cloud.queue(e.endpoint) <- t:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &Future{wait: func(ctx context.Context) (any, error) {
		select {
		case res := <-t.result:
			if res.err != "" {
				return nil, fmt.Errorf("faas: task %s: %s", t.id, res.err)
			}
			// Result travels cloud -> client.
			if err := e.cloud.delay(ctx, e.cloud.site, e.site, len(res.payload)); err != nil {
				return nil, err
			}
			return decodeValue(res.payload)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}, nil
}

// Result blocks until the task completes, returning its value. The result
// payload pays its final leg (cloud -> client, or store -> client for the
// stream executor) on first retrieval.
func (f *Future) Result(ctx context.Context) (any, error) {
	f.once.Do(func() { f.value, f.err = f.wait(ctx) })
	return f.value, f.err
}

// --- payload codec ----------------------------------------------------------

func encodeArgs(args []any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(args); err != nil {
		return nil, fmt.Errorf("faas: encoding arguments: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeArgs(payload []byte) ([]any, error) {
	var args []any
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&args); err != nil {
		return nil, fmt.Errorf("faas: decoding arguments: %w", err)
	}
	return args, nil
}

func encodeValue(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("faas: encoding result: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeValue(payload []byte) (any, error) {
	if payload == nil {
		return nil, nil
	}
	var v any
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v); err != nil {
		return nil, fmt.Errorf("faas: decoding result: %w", err)
	}
	return v, nil
}
