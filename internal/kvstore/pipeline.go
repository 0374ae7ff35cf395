package kvstore

import (
	"context"
	"fmt"
	"time"
)

// pipelineWindow bounds how many commands Exec leaves in flight before
// draining their replies. RESP answers pipelined commands strictly in
// order, but a client that writes without reading can deadlock against a
// server blocked writing replies into a full TCP buffer; draining every
// window keeps both sides moving regardless of batch size.
const pipelineWindow = 128

// Pipeline queues commands and sends them in batched round trips: N queued
// commands cost ceil(N/window) flushes instead of N, while the server
// still executes them strictly in order. Build one with Client.Pipeline,
// queue commands (each enqueue returns a *PipeReply resolved by Exec),
// then call Exec once.
//
// Per-command server errors land on the individual PipeReply; Exec itself
// only fails on transport errors, which also fail every unresolved reply.
// Queue only non-blocking commands: a tagged wait (TWAITGET) answers out
// of order and belongs on the client's wait multiplexer, not in a pipeline.
//
// A Pipeline is not safe for concurrent use and is single-shot: discard it
// after Exec.
type Pipeline struct {
	c *Client
	// pick, when set (see NewRoutedPipeline), resolves which client the
	// batch goes to at Exec time.
	pick func() *Client
	// onTransportErr, when set, observes Exec's transport failures (not
	// per-command server errors) so a failover client can move on.
	onTransportErr func(error)
	// tap, when set (see TapKV.Pipeline), reports Exec as one "PIPELINE"
	// operation carrying every queued command and reply.
	tap TapFunc
	// names[i] and args[i] are the i-th queued command, kept in two
	// slices rather than one of structs so that roundTrip's writes, which
	// move names to the heap, leave a Client.Do's argument list on the
	// stack.
	names []string
	args  [][][]byte
	reps  []*PipeReply
}

// PipeReply is the reply to one command: Do returns it, and a pipelined
// command's is resolved when Exec returns.
type PipeReply struct {
	v   value
	err error
}

// Err returns the command's server error, the pipeline's transport error,
// or nil.
func (r PipeReply) Err() error { return r.err }

// Bytes returns a bulk reply; ok is false for a null bulk (missing key).
// A failed command holds a zero reply, so its error comes with nil, false.
func (r PipeReply) Bytes() ([]byte, bool, error) {
	return r.v.bulk, r.err == nil && !r.v.null, r.err
}

// Int returns an integer reply.
func (r PipeReply) Int() (int64, error) { return r.v.num, r.err }

// Array returns an array reply's elements, each readable like a reply of
// its own.
func (r PipeReply) Array() ([]PipeReply, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.v.kind != respArray {
		return nil, fmt.Errorf("kvstore: reply is not an array")
	}
	out := make([]PipeReply, len(r.v.arr))
	for i, v := range r.v.arr {
		out[i].v = v
	}
	return out, nil
}

// Pipeline returns an empty command pipeline.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// NewRoutedPipeline returns a pipeline whose target server is resolved at
// Exec time: pick returns the client to use. onTransportErr, if non-nil,
// is called with any transport error so the caller can react (e.g.
// promote a replica); the error is still returned to the caller, whose
// retry then lands on the new pick.
func NewRoutedPipeline(pick func() *Client, onTransportErr func(error)) *Pipeline {
	return &Pipeline{pick: pick, onTransportErr: onTransportErr}
}

// Len reports how many commands are queued.
func (p *Pipeline) Len() int { return len(p.names) }

// Do queues an arbitrary command.
func (p *Pipeline) Do(name string, args ...[]byte) *PipeReply {
	r := &PipeReply{}
	p.names = append(p.names, name)
	p.args = append(p.args, args)
	p.reps = append(p.reps, r)
	return r
}

// Exec flushes the queued commands in windows over one pooled connection
// and resolves every PipeReply. It returns the first transport error, if
// any; per-command server errors are reported only on their replies.
func (p *Pipeline) Exec(ctx context.Context) error {
	if len(p.names) == 0 {
		return nil
	}
	if p.tap != nil {
		done := p.tap("PIPELINE", pipeArgs(p.names, p.args), false)
		err := p.exec(ctx)
		done(pipeReplies(p.reps), err)
		return err
	}
	return p.exec(ctx)
}

func (p *Pipeline) exec(ctx context.Context) error {
	if p.pick != nil {
		p.c = p.pick()
	}
	p.c.mPipeDepth.Observe(int64(len(p.names)))
	return p.c.roundTrip(ctx, p.names, p.args, p.reps, p.onTransportErr)
}

// roundTrip sends the commands names[i] args[i]... over one pooled
// connection, flushing and draining replies every pipelineWindow commands,
// and resolves reps[i] with the reply to command i. It returns the first
// transport error, which also fails every unresolved reply and is reported
// to onErr (when set) unless ctx ended: a cancelled caller abandoning the
// batch is not a sick server, and must not trigger failover.
func (c *Client) roundTrip(ctx context.Context, names []string, args [][][]byte, reps []*PipeReply, onErr func(error)) error {
	fail := func(from int, err error, transport bool) error {
		if transport && onErr != nil && ctx.Err() == nil {
			onErr(err)
		}
		for _, r := range reps[from:] {
			r.err = err
		}
		return err
	}
	reqSize := 0
	for i, name := range names {
		reqSize += len(name)
		for _, a := range args[i] {
			reqSize += len(a)
		}
	}
	if err := c.delay(ctx, reqSize); err != nil {
		return fail(0, err, false)
	}
	cc, err := c.acquire(ctx)
	if err != nil {
		return fail(0, err, true)
	}
	respSize := 0
	for base := 0; base < len(names); base += pipelineWindow {
		end := min(base+pipelineWindow, len(names))
		for i := base; i < end; i++ {
			if err := encodeCommand(cc.w, names[i], args[i]...); err != nil {
				c.release(cc, true)
				return fail(base, fmt.Errorf("kvstore: sending %s: %w", names[i], err), true)
			}
		}
		sent := time.Now()
		if err := cc.w.Flush(); err != nil {
			c.release(cc, true)
			return fail(base, fmt.Errorf("kvstore: sending %s: %w", names[base], err), true)
		}
		c.trip()
		for i := base; i < end; i++ {
			v, err := readValue(cc.r)
			if err != nil {
				c.release(cc, true)
				return fail(i, fmt.Errorf("kvstore: reading %s reply: %w", names[i], err), true)
			}
			if v.kind == respError {
				reps[i].err = serverError(v)
			} else {
				reps[i].v = v
			}
			respSize += len(v.bulk)
			for _, el := range v.arr {
				respSize += len(el.bulk)
			}
		}
		c.mRTT.Since(sent)
	}
	c.release(cc, false)
	return c.delay(ctx, respSize)
}
