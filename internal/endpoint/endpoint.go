// Package endpoint implements PS-endpoints: in-memory object stores that
// peer with one another across sites to serve remote keys (paper §4.2.2).
//
// An endpoint serves clients over a TCP API and registers with a relay
// server. When an operation arrives for a key whose endpoint_id is not its
// own, the endpoint establishes (or reuses) a peer connection to the owning
// endpoint — an ICE-style handshake via the relay exchanging UDP candidate
// addresses, after which a reliable rudp channel carries forwarded requests
// — and proxies the operation. Mirroring the paper's single-threaded
// asyncio implementation, request processing is serialized, which is what
// produces the linear client-scaling behaviour of Figure 8.
package endpoint

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/msgnet"
	"proxystore/internal/netsim"
	"proxystore/internal/relay"
	"proxystore/internal/rudp"
)

// Op codes of the endpoint request protocol (client-to-endpoint and
// endpoint-to-endpoint share the encoding).
const (
	OpGet byte = iota + 1
	OpSet
	OpExists
	OpEvict
)

// request is a client or peer operation.
type request struct {
	Op       byte
	Endpoint string // owning endpoint UUID; "" means "this endpoint"
	ObjectID string
	Data     []byte
	Seq      uint64 // peer-forwarding correlation id
}

// response answers a request.
type response struct {
	OK    bool // for exists; true on success otherwise
	Found bool
	Data  []byte
	Err   string
	Seq   uint64
}

// Peer-channel frame type bytes: the bidirectional rudp channel carries
// both forwarded requests and their responses.
const (
	peerFrameRequest  byte = 'Q'
	peerFrameResponse byte = 'R'
)

func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("endpoint: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Options configure an Endpoint.
type Options struct {
	// UUID is the endpoint's identity; empty asks the relay to assign one.
	UUID string
	// Site is the endpoint's netsim site, used to shape peer channels.
	Site string
	// Net is the network model; nil disables shaping.
	Net *netsim.Network
	// NewCC builds the congestion controller for each peer channel
	// (default: the conservative fixed window modelling aiortc).
	NewCC func() rudp.CongestionControl
	// RequestCost adds fixed processing time per request, modelling the
	// single-threaded event loop's per-request work. Zero disables it.
	RequestCost time.Duration
}

// BBRCC builds a BBR-like congestion controller for peer channels — the
// alternative the paper suggests (faster congestion control like Google's
// BBR) to the default aiortc-like fixed window. The window is capped near
// the loopback UDP socket buffer so probing does not overflow the kernel
// queue and trigger retransmission storms.
func BBRCC() rudp.CongestionControl { return rudp.NewBBRLike(192 << 10) }

// Endpoint is a running PS-endpoint.
type Endpoint struct {
	opts  Options
	uuid  string
	relay *relay.Client
	api   *msgnet.Server

	storeMu sync.RWMutex
	store   map[string][]byte

	// serial serializes request processing (single-threaded model).
	serial sync.Mutex

	peersMu sync.Mutex
	peers   map[string]*peerConn
	// dialing holds the handshake in flight per target; the signal loop
	// routes that target's answer to it, and later callers wait on it
	// instead of racing a second offer.
	dialing map[string]*handshake

	seq      atomic.Uint64
	pendMu   sync.Mutex
	pending  map[uint64]chan response
	requests atomic.Uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

type peerConn struct {
	ch   *rudp.Channel
	once sync.Once
}

// handshake is one peering attempt awaiting its answer.
type handshake struct {
	answer chan signalMsg // buffered; the first answer wins
	done   chan struct{}  // closed when the attempt ends
}

// Start launches an endpoint: it binds a client API on apiAddr (e.g.
// "127.0.0.1:0"), connects to the relay at relayAddr, and begins listening
// for peering requests.
func Start(apiAddr, relayAddr string, opts Options) (*Endpoint, error) {
	if opts.NewCC == nil {
		opts.NewCC = func() rudp.CongestionControl { return rudp.NewFixedWindow(0) }
	}
	rc, err := relay.Dial(relayAddr, opts.UUID)
	if err != nil {
		return nil, fmt.Errorf("endpoint: connecting to relay: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ep := &Endpoint{
		opts:    opts,
		uuid:    rc.UUID(),
		relay:   rc,
		store:   make(map[string][]byte),
		peers:   make(map[string]*peerConn),
		dialing: make(map[string]*handshake),
		pending: make(map[uint64]chan response),
		ctx:     ctx,
		cancel:  cancel,
	}
	api, err := msgnet.NewServer(apiAddr, ep.handleClient)
	if err != nil {
		cancel()
		rc.Close()
		return nil, fmt.Errorf("endpoint: starting API server: %w", err)
	}
	ep.api = api
	ep.wg.Add(1)
	go ep.signalLoop()
	return ep, nil
}

// UUID returns the endpoint's identity.
func (ep *Endpoint) UUID() string { return ep.uuid }

// Addr returns the client API address.
func (ep *Endpoint) Addr() string { return ep.api.Addr() }

// Requests returns the number of requests processed (client and peer).
func (ep *Endpoint) Requests() uint64 { return ep.requests.Load() }

// Len returns the number of locally stored objects.
func (ep *Endpoint) Len() int {
	ep.storeMu.RLock()
	defer ep.storeMu.RUnlock()
	return len(ep.store)
}

// Close stops the endpoint, its peer channels, and its relay registration.
func (ep *Endpoint) Close() error {
	ep.cancel()
	err := ep.api.Close()
	ep.relay.Close()
	ep.peersMu.Lock()
	for _, pc := range ep.peers {
		pc.ch.Close()
	}
	ep.peers = make(map[string]*peerConn)
	ep.peersMu.Unlock()
	ep.wg.Wait()
	return err
}

// --- Local store ------------------------------------------------------------

func (ep *Endpoint) localExec(req request) response {
	// Serialize processing like the paper's single-threaded event loop.
	ep.serial.Lock()
	if ep.opts.RequestCost > 0 {
		time.Sleep(ep.opts.RequestCost)
	}
	ep.requests.Add(1)
	defer ep.serial.Unlock()

	switch req.Op {
	case OpSet:
		buf := make([]byte, len(req.Data))
		copy(buf, req.Data)
		ep.storeMu.Lock()
		ep.store[req.ObjectID] = buf
		ep.storeMu.Unlock()
		return response{OK: true}
	case OpGet:
		ep.storeMu.RLock()
		data, ok := ep.store[req.ObjectID]
		ep.storeMu.RUnlock()
		if !ok {
			return response{OK: true, Found: false}
		}
		return response{OK: true, Found: true, Data: data}
	case OpExists:
		ep.storeMu.RLock()
		_, ok := ep.store[req.ObjectID]
		ep.storeMu.RUnlock()
		return response{OK: true, Found: ok}
	case OpEvict:
		ep.storeMu.Lock()
		delete(ep.store, req.ObjectID)
		ep.storeMu.Unlock()
		return response{OK: true}
	default:
		return response{Err: fmt.Sprintf("unknown op %d", req.Op)}
	}
}

// --- Client API -------------------------------------------------------------

func (ep *Endpoint) handleClient(ctx context.Context, raw []byte) ([]byte, error) {
	var req request
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&req); err != nil {
		return nil, fmt.Errorf("endpoint: bad request: %w", err)
	}
	var resp response
	if req.Endpoint == "" || req.Endpoint == ep.uuid {
		resp = ep.localExec(req)
	} else {
		resp = ep.forward(ctx, req)
	}
	return encode(resp)
}

// --- Peering ---------------------------------------------------------------

// signaling payload kinds for the ICE-style handshake.
type signalMsg struct {
	Kind      string // "offer" | "answer"
	Candidate string // UDP address candidate (host:port)
	Site      string // sender's netsim site, for link shaping
}

// forward proxies a request to the owning endpoint over a peer channel.
func (ep *Endpoint) forward(ctx context.Context, req request) response {
	pc, err := ep.peer(ctx, req.Endpoint)
	if err != nil {
		return response{Err: fmt.Sprintf("peering with %s: %v", req.Endpoint, err)}
	}
	seq := ep.seq.Add(1)
	req.Seq = seq
	raw, err := encode(req)
	if err != nil {
		return response{Err: err.Error()}
	}
	raw = append([]byte{peerFrameRequest}, raw...)
	ch := make(chan response, 1)
	ep.pendMu.Lock()
	ep.pending[seq] = ch
	ep.pendMu.Unlock()
	defer func() {
		ep.pendMu.Lock()
		delete(ep.pending, seq)
		ep.pendMu.Unlock()
	}()
	if err := pc.ch.Send(ctx, raw); err != nil {
		return response{Err: fmt.Sprintf("peer send: %v", err)}
	}
	select {
	case resp := <-ch:
		return resp
	case <-ctx.Done():
		return response{Err: ctx.Err().Error()}
	case <-ep.ctx.Done():
		return response{Err: "endpoint shutting down"}
	}
}

// peer returns the established channel to target, initiating the handshake
// if needed. Connections are kept until one endpoint stops (paper §4.2.2).
func (ep *Endpoint) peer(ctx context.Context, target string) (*peerConn, error) {
	for {
		ep.peersMu.Lock()
		if pc, ok := ep.peers[target]; ok {
			ep.peersMu.Unlock()
			return pc, nil
		}
		hs, busy := ep.dialing[target]
		if !busy {
			hs = &handshake{answer: make(chan signalMsg, 1), done: make(chan struct{})}
			ep.dialing[target] = hs
		}
		ep.peersMu.Unlock()

		if !busy {
			pc, err := ep.handshake(ctx, target, hs)
			ep.peersMu.Lock()
			delete(ep.dialing, target)
			ep.peersMu.Unlock()
			close(hs.done)
			return pc, err
		}
		// Another request is peering with target: wait for it, then take
		// its channel or, if it failed, try again.
		select {
		case <-hs.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// handshake sends an offer to target and installs the peer channel once the
// answer arrives. hs is registered in ep.dialing before the offer leaves, so
// an answer can never overtake its waiter.
func (ep *Endpoint) handshake(ctx context.Context, target string, hs *handshake) (*peerConn, error) {
	// Gather a local candidate: bind a UDP socket (the "hole punch").
	pipe, err := rudp.NewUDPPipe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	offer, err := encode(signalMsg{Kind: "offer", Candidate: pipe.LocalAddr(), Site: ep.opts.Site})
	if err != nil {
		pipe.Close()
		return nil, err
	}
	if err := ep.relay.Forward(target, offer); err != nil {
		pipe.Close()
		return nil, err
	}

	// Await the answer, delivered via the signal loop.
	select {
	case ans := <-hs.answer:
		if err := pipe.SetPeer(ans.Candidate); err != nil {
			pipe.Close()
			return nil, err
		}
		return ep.installPeer(target, pipe, ans.Site), nil
	case <-time.After(10 * time.Second):
		pipe.Close()
		return nil, fmt.Errorf("endpoint: handshake with %s timed out", target)
	case <-ctx.Done():
		pipe.Close()
		return nil, ctx.Err()
	}
}

func (ep *Endpoint) installPeer(target string, pipe rudp.Pipe, peerSite string) *peerConn {
	shaped := pipe
	if ep.opts.Net != nil && ep.opts.Site != "" && peerSite != "" {
		shaped = rudp.Shape(pipe, ep.opts.Net, ep.opts.Site, peerSite, 0)
	}
	pc := &peerConn{ch: rudp.NewChannel(shaped, ep.opts.NewCC())}
	ep.peersMu.Lock()
	if existing, ok := ep.peers[target]; ok {
		ep.peersMu.Unlock()
		pc.ch.Close()
		return existing
	}
	ep.peers[target] = pc
	ep.peersMu.Unlock()
	ep.wg.Add(1)
	go ep.peerLoop(pc)
	return pc
}

// peerLoop serves requests and dispatches responses on one peer channel.
func (ep *Endpoint) peerLoop(pc *peerConn) {
	defer ep.wg.Done()
	for {
		raw, err := pc.ch.Recv(ep.ctx)
		if err != nil {
			return
		}
		if len(raw) < 1 {
			continue
		}
		kind, body := raw[0], raw[1:]
		switch kind {
		case peerFrameResponse:
			var resp response
			if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
				continue
			}
			ep.pendMu.Lock()
			ch, ok := ep.pending[resp.Seq]
			ep.pendMu.Unlock()
			if ok {
				ch <- resp
			}
		case peerFrameRequest:
			var req request
			if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				continue
			}
			go func(req request) {
				resp := ep.localExec(req)
				resp.Seq = req.Seq
				if out, err := encode(resp); err == nil {
					pc.ch.Send(ep.ctx, append([]byte{peerFrameResponse}, out...))
				}
			}(req)
		}
	}
}

// signalLoop answers peering offers arriving via the relay.
func (ep *Endpoint) signalLoop() {
	defer ep.wg.Done()
	for {
		sig, err := ep.relay.Recv(ep.ctx)
		if err != nil {
			return
		}
		var m signalMsg
		if err := gob.NewDecoder(bytes.NewReader(sig.Payload)).Decode(&m); err != nil {
			continue
		}
		switch m.Kind {
		case "offer":
			pipe, err := rudp.NewUDPPipe("127.0.0.1:0")
			if err != nil {
				continue
			}
			if err := pipe.SetPeer(m.Candidate); err != nil {
				pipe.Close()
				continue
			}
			answer, err := encode(signalMsg{Kind: "answer", Candidate: pipe.LocalAddr(), Site: ep.opts.Site})
			if err != nil {
				pipe.Close()
				continue
			}
			if err := ep.relay.Forward(sig.From, answer); err != nil {
				pipe.Close()
				continue
			}
			ep.installPeer(sig.From, pipe, m.Site)
		case "answer":
			ep.peersMu.Lock()
			hs, ok := ep.dialing[sig.From]
			ep.peersMu.Unlock()
			if ok {
				select {
				case hs.answer <- m:
				default: // a duplicate answer; the first one won
				}
			}
		}
	}
}
