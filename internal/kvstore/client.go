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

// do sends one command and reads one reply.
func (c *Client) do(ctx context.Context, name string, args ...[]byte) (value, error) {
	reqSize := len(name)
	for _, a := range args {
		reqSize += len(a)
	}
	if err := c.delay(ctx, reqSize); err != nil {
		return value{}, err
	}

	cc, err := c.acquire(ctx)
	if err != nil {
		return value{}, err
	}
	if err := encodeCommand(cc.w, name, args...); err != nil {
		c.release(cc, true)
		return value{}, fmt.Errorf("kvstore: sending %s: %w", name, err)
	}
	sent := time.Now()
	if err := cc.w.Flush(); err != nil {
		c.release(cc, true)
		return value{}, fmt.Errorf("kvstore: sending %s: %w", name, err)
	}
	c.trip()
	v, err := readValue(cc.r)
	if err != nil {
		c.release(cc, true)
		return value{}, fmt.Errorf("kvstore: reading %s reply: %w", name, err)
	}
	c.mRTT.Since(sent)
	c.release(cc, false)

	respSize := len(v.bulk)
	for _, el := range v.arr {
		respSize += len(el.bulk)
	}
	if err := c.delay(ctx, respSize); err != nil {
		return value{}, err
	}
	if v.kind == respError {
		return value{}, serverError(v)
	}
	return v, nil
}

// ReplyError is an error reply the server deliberately sent (RESP "-ERR
// ..."), as opposed to a transport failure. The distinction drives
// failover: a sharded client retries transport errors on a replica, but a
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

// Ping round-trips a PING.
func (c *Client) Ping(ctx context.Context) error {
	v, err := c.do(ctx, "PING")
	if err != nil {
		return err
	}
	if v.kind != respSimpleString || v.str != "PONG" {
		return fmt.Errorf("kvstore: unexpected PING reply %+v", v)
	}
	return nil
}

// Set stores val under key. val is not retained: it has been written out
// by the time Set returns, so the caller may reuse or mutate it at once.
func (c *Client) Set(ctx context.Context, key string, val []byte) error {
	_, err := c.do(ctx, "SET", []byte(key), val)
	return err
}

// Get fetches key's value; ok is false when the key does not exist.
func (c *Client) Get(ctx context.Context, key string) (val []byte, ok bool, err error) {
	v, err := c.do(ctx, "GET", []byte(key))
	if err != nil {
		return nil, false, err
	}
	if v.null {
		return nil, false, nil
	}
	return v.bulk, true, nil
}

// Del removes keys, returning how many existed.
func (c *Client) Del(ctx context.Context, keys ...string) (int64, error) {
	args := make([][]byte, len(keys))
	for i, k := range keys {
		args[i] = []byte(k)
	}
	v, err := c.do(ctx, "DEL", args...)
	if err != nil {
		return 0, err
	}
	return v.num, nil
}

// Exists reports how many of the given keys exist.
func (c *Client) Exists(ctx context.Context, keys ...string) (int64, error) {
	args := make([][]byte, len(keys))
	for i, k := range keys {
		args[i] = []byte(k)
	}
	v, err := c.do(ctx, "EXISTS", args...)
	if err != nil {
		return 0, err
	}
	return v.num, nil
}

// MGet fetches many keys; missing keys yield nil entries.
func (c *Client) MGet(ctx context.Context, keys ...string) ([][]byte, error) {
	args := make([][]byte, len(keys))
	for i, k := range keys {
		args[i] = []byte(k)
	}
	v, err := c.do(ctx, "MGET", args...)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(v.arr))
	for i, el := range v.arr {
		if !el.null {
			out[i] = el.bulk
		}
	}
	return out, nil
}

// MSet stores many key/value pairs atomically.
func (c *Client) MSet(ctx context.Context, pairs map[string][]byte) error {
	args := make([][]byte, 0, len(pairs)*2)
	for k, v := range pairs {
		args = append(args, []byte(k), v)
	}
	_, err := c.do(ctx, "MSET", args...)
	return err
}

// Incr atomically increments the integer at key (missing keys start at 0)
// and returns the new value.
func (c *Client) Incr(ctx context.Context, key string) (int64, error) {
	v, err := c.do(ctx, "INCR", []byte(key))
	if err != nil {
		return 0, err
	}
	return v.num, nil
}

// CAS atomically swaps key's value from old to new, reporting whether the
// swap happened. A nil/empty old means the key must not exist (SETNX).
func (c *Client) CAS(ctx context.Context, key string, old, new []byte) (bool, error) {
	v, err := c.do(ctx, "CAS", []byte(key), old, new)
	if err != nil {
		return false, err
	}
	return v.num == 1, nil
}

// DelRange deletes the keys prefix+i for start <= i < end (decimal i),
// returning how many existed.
func (c *Client) DelRange(ctx context.Context, prefix string, start, end uint64) (int64, error) {
	v, err := c.do(ctx, "DELRANGE", []byte(prefix),
		[]byte(strconv.FormatUint(start, 10)), []byte(strconv.FormatUint(end, 10)))
	if err != nil {
		return 0, err
	}
	return v.num, nil
}

// DBSize returns the number of keys on the server.
func (c *Client) DBSize(ctx context.Context) (int64, error) {
	v, err := c.do(ctx, "DBSIZE")
	if err != nil {
		return 0, err
	}
	return v.num, nil
}

// FlushAll removes every key on the server.
func (c *Client) FlushAll(ctx context.Context) error {
	_, err := c.do(ctx, "FLUSHALL")
	return err
}

// Promote tells a replica server to stop following its primary and start
// accepting writes (see the package doc's Replication section). On a
// server that is already standalone it is a no-op.
func (c *Client) Promote(ctx context.Context) error {
	_, err := c.do(ctx, "PROMOTE")
	return err
}

// Addr returns the server address the client was built with.
func (c *Client) Addr() string { return c.addr }

// Info returns the server's introspection dump (see the package doc's
// INFO section): "name value" lines covering uptime, key/connection
// counts, and the server's full telemetry snapshot.
func (c *Client) Info(ctx context.Context) (string, error) {
	v, err := c.do(ctx, "INFO")
	if err != nil {
		return "", err
	}
	return string(v.bulk), nil
}
