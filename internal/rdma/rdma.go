// Package rdma simulates a remote-direct-memory-access fabric: endpoints
// register memory regions and peers read or write them with one-sided
// operations that bypass the remote CPU, alongside two-sided send/receive
// messaging. It stands in for the libfabric/verbs layers beneath Margo
// (Mercury) and UCX in the paper's distributed in-memory connectors
// (§4.1.3).
//
// Bytes move through process memory; timing comes from a netsim link plus a
// per-transport Profile. Profiles capture what distinguishes transports in
// the paper's Figure 6: Margo and UCX behave identically on an HPC fabric
// (Polaris Slingshot), while UCX loses large-message efficiency on
// commodity Ethernet (Chameleon 40GbE) — the anomaly the authors observed.
package rdma

import (
	"context"
	"fmt"
	"sync"
	"time"

	"proxystore/internal/netsim"
)

// Profile models a transport library's overheads on a given fabric.
type Profile struct {
	// Name identifies the transport (e.g. "margo", "ucx").
	Name string
	// OpOverhead is the fixed software overhead per operation.
	OpOverhead time.Duration
	// SmallEfficiency scales effective bandwidth for messages below
	// LargeThreshold; 1 means the transport achieves full link bandwidth.
	SmallEfficiency float64
	// LargeEfficiency scales effective bandwidth at or above
	// LargeThreshold.
	LargeEfficiency float64
	// LargeThreshold separates the two regimes (bytes).
	LargeThreshold int
}

func (p Profile) efficiency(size int) float64 {
	eff := p.SmallEfficiency
	if p.LargeThreshold > 0 && size >= p.LargeThreshold {
		eff = p.LargeEfficiency
	}
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	return eff
}

// MargoProfile models the Mercury/Margo stack: slightly higher per-op
// overhead (RPC dispatch through Argobots ULTs) but near-line-rate bulk
// pipelining on any fabric.
func MargoProfile() Profile {
	return Profile{
		Name:            "margo",
		OpOverhead:      8 * time.Microsecond,
		SmallEfficiency: 0.90,
		LargeEfficiency: 0.95,
		LargeThreshold:  1 << 20,
	}
}

// UCXProfile models UCX on an HPC fabric: lowest small-message latency and
// full large-message pipelining.
func UCXProfile() Profile {
	return Profile{
		Name:            "ucx",
		OpOverhead:      4 * time.Microsecond,
		SmallEfficiency: 0.95,
		LargeEfficiency: 0.95,
		LargeThreshold:  1 << 20,
	}
}

// UCXEthernetProfile models UCX falling back to its TCP transport on
// commodity Ethernet, where its rendezvous pipeline underperforms for
// large messages (the paper's Chameleon observation).
func UCXEthernetProfile() Profile {
	return Profile{
		Name:            "ucx",
		OpOverhead:      4 * time.Microsecond,
		SmallEfficiency: 0.95,
		LargeEfficiency: 0.35,
		LargeThreshold:  1 << 20,
	}
}

// Fabric is a named in-process RDMA network. Endpoints attach to a fabric
// and exchange data with other endpoints on the same fabric.
//
// A Fabric is safe for concurrent use.
type Fabric struct {
	net     *netsim.Network
	profile Profile

	mu        sync.RWMutex
	endpoints map[string]*Endpoint
}

// NewFabric builds a fabric whose timing follows the netsim network and
// the transport profile.
func NewFabric(n *netsim.Network, p Profile) *Fabric {
	return &Fabric{net: n, profile: p, endpoints: make(map[string]*Endpoint)}
}

// Profile returns the fabric's transport profile.
func (f *Fabric) Profile() Profile { return f.profile }

// modeled returns the modeled duration of an op moving size bytes from
// site src to site dst: the profile's per-op overhead, the link latency,
// and the link's serialization time divided by the transport efficiency.
func (f *Fabric) modeled(src, dst string, size int) time.Duration {
	d := f.profile.OpOverhead
	if f.net != nil {
		base := f.net.TransferTime(src, dst, size)
		lat := f.net.TransferTime(src, dst, 0)
		// Scale only the serialization component by transport efficiency.
		ser := base - lat
		d += lat + time.Duration(float64(ser)/f.profile.efficiency(size))
	}
	return d
}

// delay blocks for the modeled duration of an op moving size bytes.
func (f *Fabric) delay(ctx context.Context, src, dst string, size int) error {
	d := f.modeled(src, dst, size)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Endpoint is an addressable attachment point on a fabric.
type Endpoint struct {
	fabric *Fabric
	addr   string
	site   string

	inbox chan Message

	mu      sync.RWMutex
	regions map[string]*MemoryRegion
	nextReg uint64
	closed  bool
}

// Message is a two-sided fabric message.
type Message struct {
	From string
	Data []byte
}

// NewEndpoint attaches an endpoint with the given fabric-unique address at
// a netsim site.
func (f *Fabric) NewEndpoint(addr, site string) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, exists := f.endpoints[addr]; exists {
		return nil, fmt.Errorf("rdma: endpoint address %q already in use", addr)
	}
	ep := &Endpoint{
		fabric:  f,
		addr:    addr,
		site:    site,
		inbox:   make(chan Message, 1024),
		regions: make(map[string]*MemoryRegion),
	}
	f.endpoints[addr] = ep
	return ep, nil
}

func (f *Fabric) lookup(addr string) (*Endpoint, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ep, ok := f.endpoints[addr]
	if !ok {
		return nil, fmt.Errorf("rdma: no endpoint at %q", addr)
	}
	return ep, nil
}

// Addr returns the endpoint's fabric address.
func (ep *Endpoint) Addr() string { return ep.addr }

// Site returns the endpoint's netsim site.
func (ep *Endpoint) Site() string { return ep.site }

// Close detaches the endpoint from the fabric and wakes blocked receivers.
func (ep *Endpoint) Close() error {
	ep.fabric.mu.Lock()
	delete(ep.fabric.endpoints, ep.addr)
	ep.fabric.mu.Unlock()

	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.closed {
		ep.closed = true
		close(ep.inbox)
	}
	return nil
}

// Send delivers a two-sided message to the endpoint at target, paying the
// modeled transfer time before delivery.
func (ep *Endpoint) Send(ctx context.Context, target string, data []byte) error {
	dst, err := ep.fabric.lookup(target)
	if err != nil {
		return err
	}
	if err := ep.fabric.delay(ctx, ep.site, dst.site, len(data)); err != nil {
		return err
	}
	buf := make([]byte, len(data))
	copy(buf, data)

	dst.mu.RLock()
	defer dst.mu.RUnlock()
	if dst.closed {
		return fmt.Errorf("rdma: endpoint %q closed", target)
	}
	select {
	case dst.inbox <- Message{From: ep.addr, Data: buf}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Recv blocks for the next two-sided message.
func (ep *Endpoint) Recv(ctx context.Context) (Message, error) {
	select {
	case m, ok := <-ep.inbox:
		if !ok {
			return Message{}, fmt.Errorf("rdma: endpoint %q closed", ep.addr)
		}
		return m, nil
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// MemoryRegion is registered memory exposed for one-sided access.
type MemoryRegion struct {
	// ID is the rkey peers use to address the region.
	ID string
	mu sync.RWMutex
	// buf is the registered buffer.
	buf []byte
}

// RegisterMemory registers buf for remote one-sided access and returns the
// region. The caller must not resize buf while registered.
func (ep *Endpoint) RegisterMemory(buf []byte) *MemoryRegion {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.nextReg++
	r := &MemoryRegion{ID: fmt.Sprintf("%s/mr-%d", ep.addr, ep.nextReg), buf: buf}
	ep.regions[r.ID] = r
	return r
}

// DeregisterMemory revokes remote access to the region.
func (ep *Endpoint) DeregisterMemory(r *MemoryRegion) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	delete(ep.regions, r.ID)
}

func (f *Fabric) region(targetAddr, regionID string) (*Endpoint, *MemoryRegion, error) {
	dst, err := f.lookup(targetAddr)
	if err != nil {
		return nil, nil, err
	}
	dst.mu.RLock()
	r, ok := dst.regions[regionID]
	dst.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("rdma: region %q not registered at %q", regionID, targetAddr)
	}
	return dst, r, nil
}

// ReadRemote performs a one-sided RDMA read of length bytes at offset from
// the target's region, bypassing the target's receive path entirely.
func (ep *Endpoint) ReadRemote(ctx context.Context, target, regionID string, offset, length int) ([]byte, error) {
	dst, r, err := ep.fabric.region(target, regionID)
	if err != nil {
		return nil, err
	}
	if err := ep.fabric.delay(ctx, ep.site, dst.site, length); err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if offset < 0 || length < 0 || offset+length > len(r.buf) {
		return nil, fmt.Errorf("rdma: read [%d,%d) outside region of %d bytes", offset, offset+length, len(r.buf))
	}
	out := make([]byte, length)
	copy(out, r.buf[offset:offset+length])
	return out, nil
}

// WriteRemote performs a one-sided RDMA write of data at offset into the
// target's region.
func (ep *Endpoint) WriteRemote(ctx context.Context, target, regionID string, offset int, data []byte) error {
	dst, r, err := ep.fabric.region(target, regionID)
	if err != nil {
		return err
	}
	if err := ep.fabric.delay(ctx, ep.site, dst.site, len(data)); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if offset < 0 || offset+len(data) > len(r.buf) {
		return fmt.Errorf("rdma: write [%d,%d) outside region of %d bytes", offset, offset+len(data), len(r.buf))
	}
	copy(r.buf[offset:], data)
	return nil
}
