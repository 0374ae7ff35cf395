package wiretap

import (
	"sync"
	"time"

	"proxystore/internal/kvstore"
	"proxystore/internal/telemetry"
)

// Recorder collects tapped operations into a Trace. One Recorder serves
// any number of logical connections: every WrapKV call mints a fresh
// connection ID, and all connections append into one
// completion-ordered log under one mutex — which is what makes each op's
// Dep prefix an exact happens-before snapshot rather than an
// approximation (see Op.Dep).
//
// The serialization point is the tap callback, not the wire: concurrent
// operations still overlap on the network, they only queue briefly to
// stamp their order. A Recorder is safe for concurrent use.
type Recorder struct {
	origin time.Time

	mu       sync.Mutex
	meta     map[string]string
	ops      []Op
	nextConn uint64
	nextIdx  map[uint64]uint64

	mOps   *telemetry.Counter
	mBytes *telemetry.Counter
}

// RecorderOption configures a Recorder.
type RecorderOption func(*Recorder)

// WithRecorderRegistry points the recorder's ps.tap.* counters at reg
// instead of the default registry.
func WithRecorderRegistry(reg *telemetry.Registry) RecorderOption {
	return func(r *Recorder) {
		r.mOps = reg.Counter("ps.tap.ops")
		r.mBytes = reg.Counter("ps.tap.bytes")
	}
}

// NewRecorder returns an empty recorder whose time origin is now.
func NewRecorder(opts ...RecorderOption) *Recorder {
	r := &Recorder{
		origin:  time.Now(),
		meta:    map[string]string{},
		nextIdx: map[uint64]uint64{},
	}
	WithRecorderRegistry(telemetry.Default())(r)
	for _, o := range opts {
		o(r)
	}
	return r
}

// SetMeta stamps a metadata key carried in the trace header (profile
// name, item counts, recorded server command totals, ...).
func (r *Recorder) SetMeta(key, value string) {
	r.mu.Lock()
	r.meta[key] = value
	r.mu.Unlock()
}

// Ops returns how many operations have completed into the log.
func (r *Recorder) Ops() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Trace snapshots the recorded trace. Operations still in flight (tapped
// but not yet completed) are not included — a trace only ever contains
// whole operations, matching the loud-truncation stance of the codec.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{
		Meta: make(map[string]string, len(r.meta)),
		Ops:  make([]Op, len(r.ops)),
	}
	for k, v := range r.meta {
		t.Meta[k] = v
	}
	copy(t.Ops, r.ops)
	return t
}

// begin stamps the start of one operation and returns its completion
// callback. The callback may be called exactly once, from any goroutine.
func (r *Recorder) begin(conn uint64, plane, name string, args [][]byte, blocking bool) func(reply [][]byte, errText string) {
	r.mu.Lock()
	idx := r.nextIdx[conn]
	r.nextIdx[conn] = idx + 1
	op := Op{
		Conn:     conn,
		Idx:      idx,
		Plane:    plane,
		Name:     name,
		Args:     args,
		Blocking: blocking,
		Start:    time.Since(r.origin).Nanoseconds(),
		Dep:      uint64(len(r.ops)),
	}
	r.mu.Unlock()
	nbytes := uint64(len(name))
	for _, a := range args {
		nbytes += uint64(len(a))
	}
	return func(reply [][]byte, errText string) {
		for _, el := range reply {
			nbytes += uint64(len(el))
		}
		r.mu.Lock()
		op.End = time.Since(r.origin).Nanoseconds()
		op.Reply = reply
		op.Err = errText
		r.ops = append(r.ops, op)
		r.mu.Unlock()
		r.mOps.Inc()
		r.mBytes.Add(nbytes)
	}
}

// cloneBytess deep-copies tap args/replies: callers may reuse their
// backing arrays after the call returns, but a trace outlives the call.
func cloneBytess(in [][]byte) [][]byte {
	if in == nil {
		return nil
	}
	out := make([][]byte, len(in))
	for i, el := range in {
		out[i] = append([]byte(nil), el...)
	}
	return out
}

// WrapKV returns kv wrapped so every operation records into the trace on
// a fresh logical connection. Wrap each client (or each broker, via
// pstream.WithKVWrap) separately so the trace keeps their command streams
// apart.
func (r *Recorder) WrapKV(kv kvstore.KV) kvstore.KV {
	r.mu.Lock()
	conn := r.nextConn
	r.nextConn++
	r.mu.Unlock()
	return kvstore.NewTap(kv, func(name string, args [][]byte, blocking bool) kvstore.TapDone {
		done := r.begin(conn, PlaneKV, name, cloneBytess(args), blocking)
		return func(reply [][]byte, err error) {
			errText := ""
			if err != nil {
				errText = err.Error()
			}
			done(cloneBytess(reply), errText)
		}
	})
}
