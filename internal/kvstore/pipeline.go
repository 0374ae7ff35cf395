package kvstore

import (
	"context"
	"fmt"
	"strconv"
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
	// batch goes to from the queued commands' keys at Exec time.
	pick func(keys [][]byte) (*Client, error)
	// onTransportErr, when set, observes Exec's transport failures (not
	// per-command server errors) so a routing layer can fail over.
	onTransportErr func(error)
	// tap, when set (see TapKV.Pipeline), reports Exec as one "PIPELINE"
	// operation carrying every queued command and reply.
	tap  TapFunc
	cmds []pipeCmd
	reps []*PipeReply
}

type pipeCmd struct {
	name string
	args [][]byte
}

// PipeReply is the eventual reply to one pipelined command; it is resolved
// when Exec returns.
type PipeReply struct {
	v   value
	err error
}

// Err returns the command's server error, the pipeline's transport error,
// or nil.
func (r *PipeReply) Err() error { return r.err }

// Bytes returns a bulk reply; ok is false for a null bulk (missing key).
func (r *PipeReply) Bytes() ([]byte, bool, error) {
	if r.err != nil {
		return nil, false, r.err
	}
	if r.v.null {
		return nil, false, nil
	}
	return r.v.bulk, true, nil
}

// Int returns an integer reply.
func (r *PipeReply) Int() (int64, error) {
	if r.err != nil {
		return 0, r.err
	}
	return r.v.num, nil
}

// Array returns an array reply's elements, each readable like a reply of
// its own.
func (r *PipeReply) Array() ([]PipeReply, error) {
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
// Exec time: pick receives the first-argument key of every queued command
// and returns the client to use (erroring if the keys don't all live on
// one server). onTransportErr, if non-nil, is called with any transport
// error so the router can react (e.g. promote a replica); the error is
// still returned to the caller, whose retry then lands on the new pick.
func NewRoutedPipeline(pick func(keys [][]byte) (*Client, error), onTransportErr func(error)) *Pipeline {
	return &Pipeline{pick: pick, onTransportErr: onTransportErr}
}

// Len reports how many commands are queued.
func (p *Pipeline) Len() int { return len(p.cmds) }

// Do queues an arbitrary command.
func (p *Pipeline) Do(name string, args ...[]byte) *PipeReply {
	r := &PipeReply{}
	p.cmds = append(p.cmds, pipeCmd{name: name, args: args})
	p.reps = append(p.reps, r)
	return r
}

// Get queues a GET.
func (p *Pipeline) Get(key string) *PipeReply { return p.Do("GET", []byte(key)) }

// Set queues a SET.
func (p *Pipeline) Set(key string, val []byte) *PipeReply {
	return p.Do("SET", []byte(key), val)
}

// Del queues a DEL of one key.
func (p *Pipeline) Del(key string) *PipeReply { return p.Do("DEL", []byte(key)) }

// Incr queues an INCR.
func (p *Pipeline) Incr(key string) *PipeReply { return p.Do("INCR", []byte(key)) }

// CAS queues a CAS (see Client.CAS for semantics).
func (p *Pipeline) CAS(key string, old, new []byte) *PipeReply {
	return p.Do("CAS", []byte(key), old, new)
}

// LAppend queues an LAPPEND: vals take the next len(vals) slots of the log
// whose length is kept at lenKey, landing at prefix+<slot>, in one server
// step with the length's growth. The reply is the new length, so the
// values' slots end just below it.
func (p *Pipeline) LAppend(lenKey, prefix string, vals ...[]byte) *PipeReply {
	return p.Do("LAPPEND", append([][]byte{[]byte(lenKey), []byte(prefix)}, vals...)...)
}

// LRead queues an LREAD, one snapshot of a log window. Its reply is an
// array: the log length at lenKey, then each key's value, then per prefix
// an array of the values at prefix+<slot> for the slots in
// [start, min(start+count, length)).
func (p *Pipeline) LRead(lenKey string, start, count uint64, prefixes []string, keys ...string) *PipeReply {
	args := append([][]byte{[]byte(lenKey), []byte(strconv.FormatUint(start, 10)),
		[]byte(strconv.FormatUint(count, 10)), []byte(strconv.Itoa(len(prefixes)))}, keysArgs(prefixes)...)
	return p.Do("LREAD", append(args, keysArgs(keys)...)...)
}

// transportErr reports a transport failure to the routing layer, if any.
// Context cancellation is the caller abandoning the batch, not a sick
// server — it never triggers failover.
func (p *Pipeline) transportErr(ctx context.Context, err error) {
	if p.onTransportErr != nil && ctx.Err() == nil {
		p.onTransportErr(err)
	}
}

// failFrom marks every not-yet-resolved reply (index i on) as failed with
// err, so a transport error mid-pipeline leaves no reply silently
// unresolved.
func (p *Pipeline) failFrom(i int, err error) {
	for ; i < len(p.reps); i++ {
		p.reps[i].err = err
	}
}

// Exec flushes the queued commands in windows over one pooled connection
// and resolves every PipeReply. It returns the first transport error, if
// any; per-command server errors are reported only on their replies.
func (p *Pipeline) Exec(ctx context.Context) error {
	if len(p.cmds) == 0 {
		return nil
	}
	if p.tap != nil {
		done := p.tap("PIPELINE", pipeArgs(p.cmds), false)
		err := p.exec(ctx)
		done(pipeReplies(p.reps), err)
		return err
	}
	return p.exec(ctx)
}

func (p *Pipeline) exec(ctx context.Context) error {
	if p.pick != nil {
		keys := make([][]byte, 0, len(p.cmds))
		for _, cmd := range p.cmds {
			if len(cmd.args) > 0 {
				keys = append(keys, cmd.args[0])
			}
		}
		c, err := p.pick(keys)
		if err != nil {
			p.failFrom(0, err)
			return err
		}
		p.c = c
	}
	reqSize := 0
	for _, cmd := range p.cmds {
		reqSize += len(cmd.name)
		for _, a := range cmd.args {
			reqSize += len(a)
		}
	}
	if err := p.c.delay(ctx, reqSize); err != nil {
		p.failFrom(0, err)
		return err
	}
	cc, err := p.c.acquire(ctx)
	if err != nil {
		p.transportErr(ctx, err)
		p.failFrom(0, err)
		return err
	}
	p.c.mPipeDepth.Observe(int64(len(p.cmds)))
	respSize := 0
	for base := 0; base < len(p.cmds); base += pipelineWindow {
		end := base + pipelineWindow
		if end > len(p.cmds) {
			end = len(p.cmds)
		}
		for i := base; i < end; i++ {
			if err := encodeCommand(cc.w, p.cmds[i].name, p.cmds[i].args...); err != nil {
				p.c.release(cc, true)
				err = fmt.Errorf("kvstore: sending pipelined %s: %w", p.cmds[i].name, err)
				p.transportErr(ctx, err)
				p.failFrom(base, err)
				return err
			}
		}
		sent := time.Now()
		if err := cc.w.Flush(); err != nil {
			p.c.release(cc, true)
			err = fmt.Errorf("kvstore: sending pipeline: %w", err)
			p.transportErr(ctx, err)
			p.failFrom(base, err)
			return err
		}
		p.c.trip()
		for i := base; i < end; i++ {
			v, err := readValue(cc.r)
			if err != nil {
				p.c.release(cc, true)
				err = fmt.Errorf("kvstore: reading pipelined %s reply: %w", p.cmds[i].name, err)
				p.transportErr(ctx, err)
				p.failFrom(i, err)
				return err
			}
			if v.kind == respError {
				p.reps[i].err = serverError(v)
			} else {
				p.reps[i].v = v
			}
			respSize += len(v.bulk)
			for _, el := range v.arr {
				respSize += len(el.bulk)
			}
		}
		p.c.mRTT.Since(sent)
	}
	p.c.release(cc, false)
	return p.c.delay(ctx, respSize)
}
