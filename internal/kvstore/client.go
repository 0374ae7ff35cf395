package kvstore

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/netsim"
	"proxystore/internal/telemetry"
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithPoolSize sets the maximum number of pooled connections (default 4).
func WithPoolSize(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.poolSize = n
		}
	}
}

// WithClientNetwork attaches a netsim model: every request pays the modeled
// transfer time from the client's site to the server's site for the request
// payload, and back for the response payload.
func WithClientNetwork(n *netsim.Network, clientSite, serverSite string) ClientOption {
	return func(c *Client) {
		c.net = n
		c.clientSite = clientSite
		c.serverSite = serverSite
	}
}

// WithDialTimeout bounds connection establishment (default 5s).
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.dialTimeout = d }
}

// WithDialFunc replaces the client's dialer: every connection the client
// establishes — pooled request connections, the wait multiplexer's shared
// connection, and every reconnect after a broken one — flows through fn
// instead of a net.Dialer. The dial timeout is applied as a deadline on
// ctx, which fn should honor. This is the interposition point for
// connection-level taps and in-process transports; no TCP proxy needed.
func WithDialFunc(fn func(ctx context.Context, network, addr string) (net.Conn, error)) ClientOption {
	return func(c *Client) { c.dialFunc = fn }
}

// WithClientTelemetry makes the client record its metrics (RTTs, pool
// waits, blocking-wait parks, pipeline depth) into reg instead of a
// private registry.
func WithClientTelemetry(reg *telemetry.Registry) ClientOption {
	return func(c *Client) { c.reg = reg }
}

// Client is a pooled RESP2 client.
//
// A Client is safe for concurrent use; each in-flight request holds one
// pooled connection.
type Client struct {
	addr        string
	poolSize    int
	dialTimeout time.Duration
	dialFunc    func(ctx context.Context, network, addr string) (net.Conn, error)

	net        *netsim.Network
	clientSite string
	serverSite string

	mu      sync.Mutex
	idle    []*clientConn
	total   int
	closed  bool
	waiters []chan poolGrant

	// mux parks every blocking wait on one shared connection outside the
	// pool, so parked waits never take a slot from command traffic.
	mux *waitMux

	dials      atomic.Uint64
	roundTrips atomic.Uint64

	// reg collects client metrics; the handles below are resolved once at
	// construction so hot paths skip the registry's name lookup.
	reg         *telemetry.Registry
	mRTT        *telemetry.Histogram // kvc.rtt.ns: flush → last reply read
	mWait       *telemetry.Histogram // kvc.wait.ns: blocking-wait park time
	mPoolWaitNs *telemetry.Histogram // kvc.pool.wait.ns: time parked for a conn
	mPoolWaits  *telemetry.Counter   // kvc.pool.waits
	mPipeDepth  *telemetry.Histogram // kvc.pipeline.depth: commands per Exec
	mDials      *telemetry.Counter   // kvc.dials (mirrors Dials())
	mTrips      *telemetry.Counter   // kvc.round_trips (mirrors RoundTrips())
}

// poolGrant is what a parked acquirer receives: a connection handed off
// directly, a permit to dial (capacity already reserved on its behalf), or
// — both zero — the news that the client closed.
type poolGrant struct {
	cc     *clientConn
	permit bool
}

type clientConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// NewClient returns a client for the server at addr. No connection is made
// until the first request.
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{addr: addr, poolSize: 4, dialTimeout: 5 * time.Second}
	for _, o := range opts {
		o(c)
	}
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
	}
	c.mRTT = c.reg.Histogram("kvc.rtt.ns")
	c.mWait = c.reg.Histogram("kvc.wait.ns")
	c.mPoolWaitNs = c.reg.Histogram("kvc.pool.wait.ns")
	c.mPoolWaits = c.reg.Counter("kvc.pool.waits")
	c.mPipeDepth = c.reg.Histogram("kvc.pipeline.depth")
	c.mDials = c.reg.Counter("kvc.dials")
	c.mTrips = c.reg.Counter("kvc.round_trips")
	c.mux = newWaitMux(c)
	return c
}

// Telemetry returns the client's metrics registry.
func (c *Client) Telemetry() *telemetry.Registry { return c.reg }

// trip counts one request flush in both the RoundTrips atomic and the
// registry.
func (c *Client) trip() {
	c.roundTrips.Add(1)
	c.mTrips.Inc()
}

// Close tears down all pooled connections and the wait multiplexer.
// In-flight requests fail; parked acquirers wake with an error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, cc := range c.idle {
		cc.conn.Close()
	}
	c.idle = nil
	for _, ch := range c.waiters {
		ch <- poolGrant{}
	}
	c.waiters = nil
	c.mu.Unlock()
	c.mux.close()
	return nil
}

// acquire hands out a pooled connection. When the pool is exhausted the
// caller parks in a FIFO queue and release hands its connection (or, when
// a connection broke, a permit to dial) directly to the queue head: every
// waiter is served in arrival order, a stream of fresh acquirers cannot
// starve a parked one, and context cancellation takes effect while parked
// — not merely on the next wake-up.
func (c *Client) acquire(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("kvstore: client closed")
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	if c.total < c.poolSize {
		c.total++
		c.mu.Unlock()
		return c.dialSlot(ctx)
	}
	ch := make(chan poolGrant, 1)
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()
	c.mPoolWaits.Inc()
	parked := time.Now()
	select {
	case g := <-ch:
		c.mPoolWaitNs.Since(parked)
		return c.redeem(ctx, g)
	case <-ctx.Done():
		c.mu.Lock()
		for i, w := range c.waiters {
			if w == ch {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				c.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		c.mu.Unlock()
		// A grant raced the cancellation: pass it on so the slot is not lost.
		g := <-ch
		if g.cc != nil {
			c.release(g.cc, false)
		} else if g.permit {
			c.releasePermit()
		}
		return nil, ctx.Err()
	}
}

// redeem converts a pool grant into a usable connection.
func (c *Client) redeem(ctx context.Context, g poolGrant) (*clientConn, error) {
	switch {
	case g.cc != nil:
		return g.cc, nil
	case g.permit:
		return c.dialSlot(ctx)
	default:
		return nil, fmt.Errorf("kvstore: client closed")
	}
}

// dialSlot dials with a pool slot already reserved (total incremented),
// unwinding the reservation — or passing it to the next waiter — on
// failure.
func (c *Client) dialSlot(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.total--
		c.mu.Unlock()
		return nil, fmt.Errorf("kvstore: client closed")
	}
	c.mu.Unlock()
	cc, err := c.dial(ctx)
	if err != nil {
		c.releasePermit()
		return nil, err
	}
	return cc, nil
}

// releasePermit gives up a reserved pool slot, handing it to the queue
// head as a dial permit if anyone is parked.
func (c *Client) releasePermit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total--
	if len(c.waiters) > 0 && !c.closed {
		ch := c.waiters[0]
		c.waiters = c.waiters[1:]
		c.total++
		ch <- poolGrant{permit: true}
	}
}

func (c *Client) release(cc *clientConn, broken bool) {
	c.mu.Lock()
	if broken || c.closed {
		cc.conn.Close()
		c.total--
		if len(c.waiters) > 0 && !c.closed {
			ch := c.waiters[0]
			c.waiters = c.waiters[1:]
			c.total++
			ch <- poolGrant{permit: true}
		}
		c.mu.Unlock()
		return
	}
	if len(c.waiters) > 0 {
		ch := c.waiters[0]
		c.waiters = c.waiters[1:]
		c.mu.Unlock()
		ch <- poolGrant{cc: cc}
		return
	}
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
}

// Dials returns how many TCP connections the client has established —
// observable pool churn, so tests can assert that clean protocol events
// (like a timed-out blocking wait) do not burn and redial connections.
func (c *Client) Dials() uint64 { return c.dials.Load() }

// RoundTrips returns how many client→server request flushes the client has
// performed. A pipelined batch of N commands counts as one round trip per
// flushed window, so commands-per-round-trip (server Commands() over this)
// is the direct measure of how much the pipeline amortizes.
func (c *Client) RoundTrips() uint64 { return c.roundTrips.Load() }

func (c *Client) dial(ctx context.Context) (*clientConn, error) {
	var conn net.Conn
	var err error
	if c.dialFunc != nil {
		dctx, cancel := context.WithTimeout(ctx, c.dialTimeout)
		conn, err = c.dialFunc(dctx, "tcp", c.addr)
		cancel()
	} else {
		d := net.Dialer{Timeout: c.dialTimeout}
		conn, err = d.DialContext(ctx, "tcp", c.addr)
	}
	if err != nil {
		return nil, fmt.Errorf("kvstore: dialing %s: %w", c.addr, err)
	}
	c.dials.Add(1)
	c.mDials.Inc()
	return &clientConn{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
	}, nil
}

func (c *Client) delay(ctx context.Context, size int) error {
	if c.net == nil {
		return nil
	}
	return c.net.Delay(ctx, c.clientSite, c.serverSite, size)
}

// Do sends one command and reads its reply. A server error reply lands on
// the reply's Err as a *ReplyError; the arguments are not retained.
func (c *Client) Do(ctx context.Context, name string, args ...[]byte) PipeReply {
	var r PipeReply
	if err := c.roundTrip(ctx, []string{name}, [][][]byte{args}, []*PipeReply{&r}, nil); err != nil {
		return PipeReply{err: err}
	}
	return r
}

// ReplyError is an error reply the server deliberately sent (RESP "-ERR
// ..."), as opposed to a transport failure. The distinction drives
// failover: a failover client retries transport errors on a replica, but a
// reply error means the server is alive and said no — retrying elsewhere
// would be wrong.
type ReplyError struct{ Msg string }

func (e *ReplyError) Error() string { return "kvstore: server error: " + e.Msg }

// IsReplyError reports whether err is (or wraps) a server error reply.
func IsReplyError(err error) bool {
	var re *ReplyError
	return errors.As(err, &re)
}

// serverError converts a RESP error reply into a Go error, typed so
// callers can tell "the server answered with an error" apart from "the
// server is unreachable".
func serverError(v value) error {
	return &ReplyError{Msg: v.str}
}

// WaitGet blocks until key holds a value — delivered in the reply itself,
// so a successful wait is one round trip with no follow-up GET — or until
// timeout lapses server-side (ok=false). The wait parks on the client's
// shared multiplexer connection (TWAITGET), so any number of concurrent
// waits hold one connection between them and none takes a pool slot.
// Context cancellation aborts the wait promptly. Servers cap a single wait
// (currently at 60s); callers wanting longer waits re-issue in rounds.
func (c *Client) WaitGet(ctx context.Context, key string, timeout time.Duration) (val []byte, ok bool, err error) {
	v, err := c.mux.do(ctx, timeout, "TWAITGET", []byte(key), waitMillis(timeout))
	if err != nil || v.null {
		return nil, false, err
	}
	return v.bulk, true, nil
}

// WaitPrefix blocks until any key under prefix is mutated with a server
// mutation-sequence number greater than after, or until timeout lapses;
// either way it returns the server's current sequence number, which the
// caller feeds into its next WaitPrefix after rescanning. after=0 is a
// seed by definition and returns the current sequence immediately, as
// does any sequence the server cannot reason about (older than its
// recent-writes ring, or from before a restart) — the primitive is
// conservative, never lossy. It parks on the multiplexer like WaitGet.
func (c *Client) WaitPrefix(ctx context.Context, prefix string, after uint64, timeout time.Duration) (uint64, error) {
	afterArg := []byte(strconv.FormatUint(after, 10))
	v, err := c.mux.do(ctx, timeout, "TWAITPREFIX", []byte(prefix), afterArg, waitMillis(timeout))
	if err != nil {
		return 0, err
	}
	return uint64(v.num), nil
}

// waitMillis encodes a wait timeout as the wire's whole milliseconds,
// rounding sub-millisecond timeouts up to the 1 ms minimum.
func waitMillis(timeout time.Duration) []byte {
	return []byte(strconv.FormatInt(max(timeout.Milliseconds(), 1), 10))
}

// DBSize returns the number of keys on the server.
func (c *Client) DBSize(ctx context.Context) (int64, error) {
	return c.Do(ctx, "DBSIZE").Int()
}
