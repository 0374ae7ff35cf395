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
// pooling, pipelining windows, the wait multiplexer and failover, so one
// recorded operation means one logical client call regardless of how the
// transport carried it, and a trace recorded against a replica set
// replays unchanged against a single server.

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

// Do reports the command under its own name with its wire args. The reply
// is appendValue's encoding of the command's, except that a status reply
// (SET, MSET, PING) records no element and a top-level array (MGET,
// LREAD) records its elements with no "a<n>" header.
func (t *TapKV) Do(ctx context.Context, name string, args ...[]byte) PipeReply {
	done := t.tap(name, args, false)
	r := t.inner.Do(ctx, name, args...)
	var reply [][]byte
	switch {
	case r.err != nil, r.v.kind == respSimpleString:
	case r.v.kind == respArray:
		for _, el := range r.v.arr {
			reply = appendValue(reply, el, nil)
		}
	default:
		reply = appendValue(nil, r.v, nil)
	}
	done(reply, r.err)
	return r
}

// WaitGet records the timeout in nanoseconds so a time-compressing
// replayer can scale it along with the schedule.
func (t *TapKV) WaitGet(ctx context.Context, key string, timeout time.Duration) ([]byte, bool, error) {
	done := t.tap("WAITGET", [][]byte{[]byte(key),
		[]byte(strconv.FormatInt(int64(timeout), 10))}, true)
	val, ok, err := t.inner.WaitGet(ctx, key, timeout)
	done(appendValue(nil, value{kind: respBulkString, bulk: val, null: !ok}, nil), err)
	return val, ok, err
}

func (t *TapKV) WaitPrefix(ctx context.Context, prefix string, after uint64, timeout time.Duration) (uint64, error) {
	done := t.tap("WAITPREFIX", [][]byte{[]byte(prefix),
		[]byte(strconv.FormatUint(after, 10)),
		[]byte(strconv.FormatInt(int64(timeout), 10))}, true)
	seq, err := t.inner.WaitPrefix(ctx, prefix, after, timeout)
	done([][]byte{[]byte("i" + strconv.FormatUint(seq, 10))}, err)
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
func pipeArgs(names []string, cmdArgs [][][]byte) [][]byte {
	args := [][]byte{[]byte(strconv.Itoa(len(names)))}
	for i, name := range names {
		args = append(args, []byte(name), []byte(strconv.Itoa(len(cmdArgs[i]))))
		args = append(args, cmdArgs[i]...)
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
