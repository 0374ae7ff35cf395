// Package msgnet provides framed request/reply messaging over TCP — the
// stand-in for ZeroMQ REQ/REP sockets, which the paper's ZMQConnector uses
// as a portable fallback transport (§4.1.3).
//
// Frames are 4-byte big-endian length prefixes followed by the payload.
// Clients optionally consult a netsim model so cross-site request/response
// pairs pay WAN-shaped delays even though bytes move over loopback.
package msgnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/netsim"
)

// MaxFrame bounds a single frame (1 GiB) to catch corrupted prefixes.
const MaxFrame = 1 << 30

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, data []byte) error {
	if len(data) > MaxFrame {
		return fmt.Errorf("msgnet: frame of %d bytes exceeds limit", len(data))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("msgnet: frame length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Handler services one request frame and returns the reply frame.
type Handler func(ctx context.Context, req []byte) ([]byte, error)

// Server answers framed requests on a TCP listener, one frame in flight per
// connection (REQ/REP discipline), many connections concurrently.
type Server struct {
	ln      net.Listener
	handler Handler
	closed  atomic.Bool
	wg      sync.WaitGroup
	// ctx is every handler call's context; Close cancels it, so a handler
	// blocked on its request unwinds instead of pinning Close.
	ctx    context.Context
	cancel context.CancelFunc

	// connMu guards conns, the open connections, so Close can hang up on
	// idle peers instead of waiting for them to leave.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	requests atomic.Uint64
}

// NewServer listens on addr and serves requests with h.
func NewServer(addr string, h Handler) (*Server, error) {
	if h == nil {
		return nil, fmt.Errorf("msgnet: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msgnet: listen: %w", err)
	}
	s := &Server{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Requests returns the number of requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Close stops the listener, cancels in-flight handlers, hangs up on every
// connection (an idle peer would otherwise pin the server open forever),
// and waits for the connection handlers to finish.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.ln.Close()
	s.cancel()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		// Register under connMu and re-check closed there: a connection
		// accepted while Close runs is either cut by Close or never served.
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	for {
		req, err := ReadFrame(r)
		if err != nil {
			return
		}
		s.requests.Add(1)
		resp, err := s.handler(s.ctx, req)
		if err != nil {
			// Error replies are framed with a 1-byte marker so the client
			// can distinguish handler failures from transport failures.
			resp = append([]byte{1}, []byte(err.Error())...)
		} else {
			resp = append([]byte{0}, resp...)
		}
		if err := WriteFrame(w, resp); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// Client issues framed requests with a small connection pool.
//
// A Client is safe for concurrent use.
type Client struct {
	addr        string
	dialTimeout time.Duration

	net        *netsim.Network
	clientSite string
	serverSite string

	mu     sync.Mutex
	idle   []*poolConn
	closed bool
}

type poolConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientNetwork attaches a netsim model; requests pay modeled transfer
// time each way.
func WithClientNetwork(n *netsim.Network, clientSite, serverSite string) ClientOption {
	return func(c *Client) {
		c.net = n
		c.clientSite = clientSite
		c.serverSite = serverSite
	}
}

// NewClient returns a client for the server at addr.
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{addr: addr, dialTimeout: 5 * time.Second}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Close drops pooled connections.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, pc := range c.idle {
		pc.conn.Close()
	}
	c.idle = nil
	return nil
}

func (c *Client) acquire(ctx context.Context) (*poolConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("msgnet: client closed")
	}
	if n := len(c.idle); n > 0 {
		pc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return pc, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("msgnet: dialing %s: %w", c.addr, err)
	}
	return &poolConn{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
	}, nil
}

func (c *Client) release(pc *poolConn, broken bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if broken || c.closed || len(c.idle) >= 8 {
		pc.conn.Close()
		return
	}
	c.idle = append(c.idle, pc)
}

func (c *Client) delay(ctx context.Context, size int) error {
	if c.net == nil {
		return nil
	}
	return c.net.Delay(ctx, c.clientSite, c.serverSite, size)
}

// Request sends req and returns the server's reply. Handler errors surface
// as errors with the server's message. Request returns once ctx is done,
// even with the request on the wire: the connection is cut and dropped.
func (c *Client) Request(ctx context.Context, req []byte) ([]byte, error) {
	if err := c.delay(ctx, len(req)); err != nil {
		return nil, err
	}
	pc, err := c.acquire(ctx)
	if err != nil {
		return nil, err
	}
	// An expired deadline unblocks the write or read in flight; stop
	// reports whether it fired, so the cut connection is never reused.
	stop := context.AfterFunc(ctx, func() { pc.conn.SetDeadline(time.Now()) })
	resp, err := roundTrip(pc, req)
	if !stop() {
		c.release(pc, true)
		return nil, ctx.Err()
	}
	if err != nil {
		c.release(pc, true)
		return nil, err
	}
	c.release(pc, false)
	if err := c.delay(ctx, len(resp)); err != nil {
		return nil, err
	}
	if len(resp) == 0 {
		return nil, errors.New("msgnet: empty reply frame")
	}
	if resp[0] == 1 {
		return nil, fmt.Errorf("msgnet: server error: %s", resp[1:])
	}
	return resp[1:], nil
}

// roundTrip writes one request frame on pc and reads its reply frame.
func roundTrip(pc *poolConn, req []byte) ([]byte, error) {
	if err := WriteFrame(pc.w, req); err != nil {
		return nil, fmt.Errorf("msgnet: sending request: %w", err)
	}
	if err := pc.w.Flush(); err != nil {
		return nil, fmt.Errorf("msgnet: sending request: %w", err)
	}
	resp, err := ReadFrame(pc.r)
	if err != nil {
		return nil, fmt.Errorf("msgnet: reading reply: %w", err)
	}
	return resp, nil
}
