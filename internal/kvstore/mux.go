package kvstore

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// waitMux parks any number of blocking waits on ONE shared connection.
//
// Each wait is sent as a tagged command (TWAITGET/TWAITPREFIX) whose first
// argument is a client-chosen tag; the server answers every tagged wait —
// whenever it resolves, in any order — with a two-element array [tag,
// reply]. A single reader goroutine dispatches replies to the parked
// waiters by tag, so an idle fleet of consumers holds one connection
// instead of one per wait.
//
// The mux connection carries ONLY tagged waits, and it lives outside the
// command pool: parked waits never take a slot from command traffic, so
// any number of them cannot starve the write that is supposed to wake
// them. That also makes the reply stream unambiguous: every frame must be
// a [tag, reply] array, and anything else fails the connection.
//
// An abandoned wait (context cancelled) is simply deregistered; its
// eventual reply arrives with a tag nobody claims and is dropped, leaving
// the shared connection healthy. A transport error fails every parked wait
// and discards the connection; the next wait redials.
type waitMux struct {
	c *Client

	mu      sync.Mutex
	cc      *clientConn
	gen     uint64 // bumped per connection teardown; stale readers no-op
	pending map[uint64]chan muxReply
	nextTag uint64
	// deadline is the read deadline currently armed on cc: the furthest
	// (budget + waitSlack) over all waits issued on it. The server answers
	// every wait by its own timeout, so a lapsed deadline means the server
	// vanished without closing the connection.
	deadline time.Time
	closed   bool
}

// waitSlack is how long past the server-side wait timeout the client waits
// for the reply before declaring the connection dead. Generous: it only
// matters when the server vanished without closing the connection.
const waitSlack = 5 * time.Second

type muxReply struct {
	v   value
	err error
}

func newWaitMux(c *Client) *waitMux {
	return &waitMux{c: c, pending: make(map[uint64]chan muxReply)}
}

func (m *waitMux) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.failLocked(errors.New("kvstore: client closed"))
}

// failLocked tears down the current connection and delivers err to every
// parked wait. Callers hold m.mu.
func (m *waitMux) failLocked(err error) {
	if m.cc != nil {
		m.cc.conn.Close()
		m.cc = nil
	}
	m.gen++
	for tag, ch := range m.pending {
		delete(m.pending, tag)
		ch <- muxReply{err: err}
	}
	m.deadline = time.Time{}
}

// fail tears down generation gen; a stale gen (already torn down or
// replaced) is a no-op.
func (m *waitMux) fail(gen uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen != m.gen {
		return
	}
	m.failLocked(err)
}

// do issues one tagged wait and blocks for its reply. budget is the
// server-side wait timeout, used to extend the shared connection's read
// deadline far enough to cover this wait.
func (m *waitMux) do(ctx context.Context, budget time.Duration, name string, args ...[]byte) (value, error) {
	reqSize := len(name)
	for _, a := range args {
		reqSize += len(a)
	}
	if err := m.c.delay(ctx, reqSize); err != nil {
		return value{}, err
	}

	ch := make(chan muxReply, 1)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return value{}, fmt.Errorf("kvstore: client closed")
	}
	if m.cc == nil {
		cc, err := m.c.dial(ctx)
		if err != nil {
			m.mu.Unlock()
			return value{}, err
		}
		m.cc = cc
		m.gen++
		go m.readLoop(cc, m.gen)
	}
	cc := m.cc
	m.nextTag++
	tag := m.nextTag
	m.pending[tag] = ch
	if dl := time.Now().Add(budget + waitSlack); dl.After(m.deadline) {
		m.deadline = dl
		cc.conn.SetReadDeadline(dl)
	}
	tagArg := strconv.AppendUint(nil, tag, 10)
	err := encodeCommand(cc.w, name, append([][]byte{tagArg}, args...)...)
	if err == nil {
		err = cc.w.Flush()
	}
	if err != nil {
		delete(m.pending, tag)
		m.failLocked(fmt.Errorf("kvstore: sending %s: %w", name, err))
		m.mu.Unlock()
		return value{}, fmt.Errorf("kvstore: sending %s: %w", name, err)
	}
	m.mu.Unlock()
	m.c.trip()
	defer m.c.mWait.Since(time.Now())

	select {
	case rep := <-ch:
		if rep.err != nil {
			return value{}, rep.err
		}
		respSize := len(rep.v.bulk)
		if err := m.c.delay(ctx, respSize); err != nil {
			return value{}, err
		}
		return rep.v, nil
	case <-ctx.Done():
		// Abandon the wait: deregister so the reader drops the eventual
		// reply; the shared connection stays healthy for other waits.
		m.mu.Lock()
		delete(m.pending, tag)
		m.mu.Unlock()
		return value{}, ctx.Err()
	}
}

// readLoop dispatches tagged replies to parked waits until the connection
// dies. One runs per mux connection generation.
func (m *waitMux) readLoop(cc *clientConn, gen uint64) {
	for {
		v, err := readValue(cc.r)
		if err != nil {
			m.fail(gen, fmt.Errorf("kvstore: reading tagged wait reply: %w", err))
			return
		}
		if v.kind == respError {
			// Untagged error: the server rejected a frame of this stream
			// outright (one it could not parse as a command). No wait can
			// be matched to it, so every parked wait fails with it.
			m.fail(gen, fmt.Errorf("kvstore: untagged error on the wait connection: %w", serverError(v)))
			return
		}
		if v.kind != respArray || v.null || len(v.arr) != 2 || v.arr[0].kind != respBulkString {
			m.fail(gen, fmt.Errorf("kvstore: malformed tagged wait reply"))
			return
		}
		tag, perr := strconv.ParseUint(string(v.arr[0].bulk), 10, 64)
		if perr != nil {
			m.fail(gen, fmt.Errorf("kvstore: malformed tagged wait reply tag %q", v.arr[0].bulk))
			return
		}
		m.mu.Lock()
		if gen != m.gen {
			m.mu.Unlock()
			return
		}
		ch := m.pending[tag]
		delete(m.pending, tag)
		m.mu.Unlock()
		if ch == nil {
			continue // abandoned wait; drop the late reply
		}
		rep := v.arr[1]
		if rep.kind == respError {
			ch <- muxReply{err: serverError(rep)}
		} else {
			ch <- muxReply{v: rep}
		}
	}
}
