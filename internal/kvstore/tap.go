package kvstore

import (
	"context"
	"strconv"
	"time"
)

// This file is the kvstore half of the record/replay wire tap (see
// internal/wiretap): a TapKV wraps any KV and reports every operation —
// name, arguments, normalized reply, error, and whether the call blocks
// server-side — to a TapFunc. The tap sits at the KV interface, above
// pooling, pipelining windows, the wait multiplexer and sharded routing,
// so one recorded operation means one logical client call regardless of
// how the transport carried it, and a trace recorded against a sharded
// tier replays unchanged against a single server.

// TapDone completes one tapped operation with its normalized reply (see
// the reply grammar on normalizeValue) and error. The tap may block: the
// wiretap recorder serializes appends here, and orchestration hooks in
// deterministic tests use the callback as an interleaving point.
type TapDone func(reply [][]byte, err error)

// TapFunc observes the start of one client operation and returns the
// callback to complete it. blocking marks operations that park server-side
// (WaitGet/WaitPrefix), which a deterministic replayer must dispatch
// asynchronously — their replies depend on operations recorded later.
type TapFunc func(name string, args [][]byte, blocking bool) TapDone

// TapKV wraps a KV and reports every operation to tap. A TapKV is itself
// a KV, so taps stack: each one sees every operation of the taps it
// wraps.
type TapKV struct {
	inner KV
	tap   TapFunc
}

// NewTap wraps inner so every operation is reported to tap.
func NewTap(inner KV, tap TapFunc) *TapKV { return &TapKV{inner: inner, tap: tap} }

var _ KV = (*TapKV)(nil)

// Normalized-reply element tags. A reply is a flat [][]byte sequence:
//
//	["n"]             null (missing key, timed-out wait)
//	["i<decimal>"]    integer reply
//	["s<text>"]       simple-string reply
//	["e<message>"]    per-command server error (pipelines only)
//	["b", <bytes>]    bulk reply: tag element, then the payload element
//	["a<n>", ...]     array of n elements, each encoded as above
//
// The same encoding is produced when a trace is replayed (the replayer
// routes its calls through a capturing TapKV), so recorded and replayed
// replies compare byte-for-byte.
func appendValue(out [][]byte, v value, err error) [][]byte {
	if err != nil {
		return append(out, []byte("e"+err.Error()))
	}
	if v.null {
		return append(out, []byte("n"))
	}
	switch v.kind {
	case respInteger:
		return append(out, []byte("i"+strconv.FormatInt(v.num, 10)))
	case respSimpleString:
		return append(out, []byte("s"+v.str))
	case respArray:
		out = append(out, []byte("a"+strconv.Itoa(len(v.arr))))
		for _, el := range v.arr {
			out = appendValue(out, el, nil)
		}
		return out
	default:
		return append(out, []byte("b"), v.bulk)
	}
}

func intReply(n int64) [][]byte   { return [][]byte{[]byte("i" + strconv.FormatInt(n, 10))} }
func boolReply(ok bool) [][]byte  { return intReply(map[bool]int64{false: 0, true: 1}[ok]) }
func bulkReply(b []byte) [][]byte { return [][]byte{[]byte("b"), b} }

var nullReply = [][]byte{[]byte("n")}

func optBulkReply(b []byte, ok bool) [][]byte {
	if !ok {
		return nullReply
	}
	return bulkReply(b)
}

func (t *TapKV) Ping(ctx context.Context) error {
	done := t.tap("PING", nil, false)
	err := t.inner.Ping(ctx)
	done(nil, err)
	return err
}

func (t *TapKV) Set(ctx context.Context, key string, val []byte) error {
	done := t.tap("SET", [][]byte{[]byte(key), val}, false)
	err := t.inner.Set(ctx, key, val)
	done(nil, err)
	return err
}

func (t *TapKV) Get(ctx context.Context, key string) ([]byte, bool, error) {
	done := t.tap("GET", [][]byte{[]byte(key)}, false)
	val, ok, err := t.inner.Get(ctx, key)
	done(optBulkReply(val, ok), err)
	return val, ok, err
}

func keysArgs(keys []string) [][]byte {
	args := make([][]byte, len(keys))
	for i, k := range keys {
		args[i] = []byte(k)
	}
	return args
}

func (t *TapKV) Del(ctx context.Context, keys ...string) (int64, error) {
	done := t.tap("DEL", keysArgs(keys), false)
	n, err := t.inner.Del(ctx, keys...)
	done(intReply(n), err)
	return n, err
}

func (t *TapKV) MGet(ctx context.Context, keys ...string) ([][]byte, error) {
	done := t.tap("MGET", keysArgs(keys), false)
	vals, err := t.inner.MGet(ctx, keys...)
	var reply [][]byte
	for _, v := range vals {
		if v == nil {
			reply = append(reply, []byte("n"))
		} else {
			reply = append(reply, []byte("b"), v)
		}
	}
	done(reply, err)
	return vals, err
}

func (t *TapKV) MSet(ctx context.Context, pairs map[string][]byte) error {
	args := make([][]byte, 0, len(pairs)*2)
	for k, v := range pairs {
		args = append(args, []byte(k), v)
	}
	done := t.tap("MSET", args, false)
	err := t.inner.MSet(ctx, pairs)
	done(nil, err)
	return err
}

func (t *TapKV) Incr(ctx context.Context, key string) (int64, error) {
	done := t.tap("INCR", [][]byte{[]byte(key)}, false)
	n, err := t.inner.Incr(ctx, key)
	done(intReply(n), err)
	return n, err
}

func (t *TapKV) CAS(ctx context.Context, key string, old, new []byte) (bool, error) {
	done := t.tap("CAS", [][]byte{[]byte(key), old, new}, false)
	won, err := t.inner.CAS(ctx, key, old, new)
	done(boolReply(won), err)
	return won, err
}

func (t *TapKV) DelRange(ctx context.Context, prefix string, start, end uint64) (int64, error) {
	done := t.tap("DELRANGE", [][]byte{[]byte(prefix),
		[]byte(strconv.FormatUint(start, 10)), []byte(strconv.FormatUint(end, 10))}, false)
	n, err := t.inner.DelRange(ctx, prefix, start, end)
	done(intReply(n), err)
	return n, err
}

// WaitGet records the timeout in nanoseconds so a time-compressing
// replayer can scale it along with the schedule.
func (t *TapKV) WaitGet(ctx context.Context, key string, timeout time.Duration) ([]byte, bool, error) {
	done := t.tap("WAITGET", [][]byte{[]byte(key),
		[]byte(strconv.FormatInt(int64(timeout), 10))}, true)
	val, ok, err := t.inner.WaitGet(ctx, key, timeout)
	done(optBulkReply(val, ok), err)
	return val, ok, err
}

func (t *TapKV) WaitPrefix(ctx context.Context, prefix string, after uint64, timeout time.Duration) (uint64, error) {
	done := t.tap("WAITPREFIX", [][]byte{[]byte(prefix),
		[]byte(strconv.FormatUint(after, 10)),
		[]byte(strconv.FormatInt(int64(timeout), 10))}, true)
	seq, err := t.inner.WaitPrefix(ctx, prefix, after, timeout)
	done(intReply(int64(seq)), err)
	return seq, err
}

// Pipeline returns the inner client's pipeline armed with the tap: Exec
// reports one "PIPELINE" operation whose args flatten the queued commands
// and whose reply concatenates the per-command replies, so batched
// round trips are recorded (and replayed) with their exact contents
// instead of vanishing below the interface.
func (t *TapKV) Pipeline() *Pipeline {
	p := t.inner.Pipeline()
	p.tap = t.tap
	return p
}

func (t *TapKV) Dials() uint64      { return t.inner.Dials() }
func (t *TapKV) RoundTrips() uint64 { return t.inner.RoundTrips() }
func (t *TapKV) Close() error       { return t.inner.Close() }

// pipeArgs flattens a pipeline's queued commands into tap args:
// ["<ncmds>", then per command: name, "<nargs>", args...].
func pipeArgs(cmds []pipeCmd) [][]byte {
	args := [][]byte{[]byte(strconv.Itoa(len(cmds)))}
	for _, cmd := range cmds {
		args = append(args, []byte(cmd.name), []byte(strconv.Itoa(len(cmd.args))))
		args = append(args, cmd.args...)
	}
	return args
}

// pipeReplies normalizes a pipeline's resolved replies, one encoded value
// (or "e..." error element) per queued command.
func pipeReplies(reps []*PipeReply) [][]byte {
	var out [][]byte
	for _, r := range reps {
		out = appendValue(out, r.v, r.err)
	}
	return out
}
