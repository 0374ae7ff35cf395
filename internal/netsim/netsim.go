// Package netsim models the federated testbed used in the ProxyStore paper:
// named sites (clusters, clouds, login nodes) connected by links with
// configurable latency and bandwidth, some of which sit behind NATs.
//
// Simulated transports (kvstore, rpc, rudp, globus, faas, ...) consult a
// Network to decide how long a message of a given size takes between two
// sites and whether a direct inbound connection is possible at all. Real
// bytes still move over loopback sockets or in-process pipes; netsim only
// supplies the timing model, so orderings and crossovers between competing
// communication methods are preserved while the absolute scale is compressed
// (see the Scale field).
package netsim

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Link describes one direction of a network path between two sites.
type Link struct {
	// Latency is the one-way propagation delay for the first byte.
	Latency time.Duration
	// Bandwidth is the sustained throughput in bytes per second. Zero
	// means infinite (no serialization delay).
	Bandwidth float64
	// LossRate is the probability in [0,1] that a datagram is dropped.
	// Only datagram-oriented transports (rudp) consult it.
	LossRate float64
	// UDPBandwidth, if nonzero, caps UDP traffic below Bandwidth. Computing
	// centers throttle UDP to avoid congestion (paper §5.3.2); rudp uses
	// this cap when it is set.
	UDPBandwidth float64
}

// Site is a named location in the federation.
type Site struct {
	// Name identifies the site, e.g. "theta" or "midway2-login".
	Name string
	// NAT reports whether the site is behind network address translation,
	// preventing inbound direct connections from other NATed sites.
	NAT bool
}

// Network is a symmetric site graph with per-pair links.
//
// A Network is safe for concurrent use.
type Network struct {
	mu    sync.RWMutex
	sites map[string]Site
	links map[pairKey]Link
	// Scale divides all computed delays; 1 means real time. Experiments
	// use Scale > 1 so WAN-scale sweeps finish in seconds while relative
	// timings between methods are unchanged.
	scale float64
	// loopback is the link used when src == dst.
	loopback Link
}

type pairKey struct{ a, b string }

func orderedPair(a, b string) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// New returns an empty network with the given time scale. A scale of s
// makes every simulated delay 1/s of its nominal duration; s must be >= 1.
func New(scale float64) *Network {
	if scale < 1 {
		scale = 1
	}
	return &Network{
		sites: make(map[string]Site),
		links: make(map[pairKey]Link),
		scale: scale,
		loopback: Link{
			Latency:   20 * time.Microsecond,
			Bandwidth: 8e9, // 8 GB/s memory-bus-ish loopback
		},
	}
}

// Scale returns the time compression factor of the network.
func (n *Network) Scale() float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.scale
}

// AddSite registers a site. Re-adding a site replaces its NAT flag.
func (n *Network) AddSite(name string, nat bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sites[name] = Site{Name: name, NAT: nat}
}

// Site returns the named site and whether it exists.
func (n *Network) Site(name string) (Site, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s, ok := n.sites[name]
	return s, ok
}

// SetLink installs a symmetric link between sites a and b. Both sites must
// already be registered.
func (n *Network) SetLink(a, b string, l Link) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.sites[a]; !ok {
		return fmt.Errorf("netsim: unknown site %q", a)
	}
	if _, ok := n.sites[b]; !ok {
		return fmt.Errorf("netsim: unknown site %q", b)
	}
	n.links[orderedPair(a, b)] = l
	return nil
}

// LinkBetween returns the link between two sites. Same-site pairs get the
// loopback link. Unconnected distinct pairs return ok == false.
func (n *Network) LinkBetween(a, b string) (Link, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if a == b {
		return n.loopback, true
	}
	l, ok := n.links[orderedPair(a, b)]
	return l, ok
}

// DirectReachable reports whether a process at site src can open a direct
// inbound connection to a listener at site dst. A NATed destination is
// unreachable from a different site; hole punching (rudp + relay) or a
// mediating service is required instead.
func (n *Network) DirectReachable(src, dst string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if src == dst {
		return true
	}
	d, ok := n.sites[dst]
	if !ok {
		return false
	}
	if _, connected := n.links[orderedPair(src, dst)]; !connected {
		return false
	}
	return !d.NAT
}

// TransferTime returns the scaled time for size bytes to traverse the link
// from src to dst: one latency plus size over bandwidth. Unknown pairs get
// zero delay, so tests against unconfigured networks run at full speed.
func (n *Network) TransferTime(src, dst string, size int) time.Duration {
	l, ok := n.LinkBetween(src, dst)
	if !ok {
		return 0
	}
	return n.scaleDuration(transferDuration(l, size, false))
}

// UDPTransferTime is TransferTime under the link's UDP throttle.
func (n *Network) UDPTransferTime(src, dst string, size int) time.Duration {
	l, ok := n.LinkBetween(src, dst)
	if !ok {
		return 0
	}
	return n.scaleDuration(transferDuration(l, size, true))
}

// RTT returns the scaled round-trip latency between two sites.
func (n *Network) RTT(src, dst string) time.Duration {
	l, ok := n.LinkBetween(src, dst)
	if !ok {
		return 0
	}
	return n.scaleDuration(2 * l.Latency)
}

func transferDuration(l Link, size int, udp bool) time.Duration {
	d := l.Latency
	bw := l.Bandwidth
	if udp && l.UDPBandwidth > 0 && l.UDPBandwidth < bw {
		bw = l.UDPBandwidth
	}
	if bw > 0 && size > 0 {
		d += time.Duration(float64(size) / bw * float64(time.Second))
	}
	return d
}

func (n *Network) scaleDuration(d time.Duration) time.Duration {
	n.mu.RLock()
	s := n.scale
	n.mu.RUnlock()
	return time.Duration(float64(d) / s)
}

// Delay blocks for the scaled transfer time of size bytes from src to dst,
// or until ctx is done, returning ctx.Err() in the latter case.
func (n *Network) Delay(ctx context.Context, src, dst string, size int) error {
	return sleepCtx(ctx, n.TransferTime(src, dst, size))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
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
