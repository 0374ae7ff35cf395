// Package ipfs implements a small content-addressed, peer-to-peer block
// store in the spirit of IPFS, used as the inter-site baseline in Figure 5.
//
// Content is chunked into 256 KiB blocks; the content identifier (CID) of a
// file is the hash of its block manifest. Nodes hold blocks locally and
// fetch missing blocks from connected peers with a want-list exchange,
// paying per-block request/response delays on the modeled link plus a
// fixed per-retrieval resolution overhead (DHT lookup stand-in).
package ipfs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"proxystore/internal/netsim"
)

// BlockSize is the chunking unit (256 KiB, IPFS' default).
const BlockSize = 256 << 10

// CID is a content identifier: the hex SHA-256 of the addressed content.
type CID string

func hashCID(data []byte) CID {
	sum := sha256.Sum256(data)
	return CID(hex.EncodeToString(sum[:]))
}

// Node is an IPFS-like peer.
//
// A Node is safe for concurrent use.
type Node struct {
	id   string
	site string
	net  *netsim.Network

	mu     sync.RWMutex
	blocks map[CID][]byte
	peers  []*Node
}

// resolveOverhead models content routing (DHT walk) per retrieval: a
// nominal 50 ms, scaled by the network's time scale.
const resolveOverhead = 50 * time.Millisecond

// NewNode creates a node at a netsim site.
func NewNode(id, site string, network *netsim.Network) *Node {
	return &Node{
		id:     id,
		site:   site,
		net:    network,
		blocks: make(map[CID][]byte),
	}
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.id }

// Connect links two nodes as peers (bidirectional).
func Connect(a, b *Node) {
	a.mu.Lock()
	a.peers = append(a.peers, b)
	a.mu.Unlock()
	b.mu.Lock()
	b.peers = append(b.peers, a)
	b.mu.Unlock()
}

// Add chunks data into blocks, stores them locally, and returns the content
// identifier of the manifest.
func (n *Node) Add(data []byte) CID {
	var manifest bytes.Buffer
	var count uint32
	for off := 0; off < len(data) || (off == 0 && len(data) == 0); off += BlockSize {
		end := off + BlockSize
		if end > len(data) {
			end = len(data)
		}
		block := make([]byte, end-off)
		copy(block, data[off:end])
		cid := hashCID(block)
		n.mu.Lock()
		n.blocks[cid] = block
		n.mu.Unlock()
		manifest.WriteString(string(cid))
		count++
		if len(data) == 0 {
			break
		}
	}
	// Manifest layout: 4-byte block count then concatenated hex CIDs.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], count)
	full := append(hdr[:], manifest.Bytes()...)
	root := hashCID(full)
	n.mu.Lock()
	n.blocks[root] = full
	n.mu.Unlock()
	return root
}

// localBlock fetches a block from local storage only.
func (n *Node) localBlock(cid CID) ([]byte, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	b, ok := n.blocks[cid]
	return b, ok
}

// fetchBlock finds a block locally or from peers, paying modeled transfer
// costs, and caches it locally (IPFS nodes pin what they fetch).
func (n *Node) fetchBlock(ctx context.Context, cid CID) ([]byte, error) {
	if b, ok := n.localBlock(cid); ok {
		return b, nil
	}
	n.mu.RLock()
	peers := append([]*Node(nil), n.peers...)
	n.mu.RUnlock()
	for _, p := range peers {
		b, ok := p.localBlock(cid)
		if !ok {
			continue
		}
		if n.net != nil {
			// Want-list request (small) out, block back.
			if err := n.net.Delay(ctx, n.site, p.site, 64); err != nil {
				return nil, err
			}
			if err := n.net.Delay(ctx, p.site, n.site, len(b)); err != nil {
				return nil, err
			}
		}
		n.mu.Lock()
		n.blocks[cid] = b
		n.mu.Unlock()
		return b, nil
	}
	return nil, fmt.Errorf("ipfs: block %s not found on node %s or its peers", cid[:12], n.id)
}

// Get reassembles the content behind a CID, fetching missing blocks from
// peers.
func (n *Node) Get(ctx context.Context, root CID) ([]byte, error) {
	// Content routing overhead per retrieval.
	if n.net != nil {
		d := time.Duration(float64(resolveOverhead) / n.net.Scale())
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}

	manifest, err := n.fetchBlock(ctx, root)
	if err != nil {
		return nil, err
	}
	if len(manifest) < 4 {
		return nil, fmt.Errorf("ipfs: corrupt manifest for %s", root[:12])
	}
	count := binary.BigEndian.Uint32(manifest[:4])
	body := manifest[4:]
	const cidLen = 64 // hex sha256
	if len(body) != int(count)*cidLen {
		return nil, fmt.Errorf("ipfs: manifest length mismatch for %s", root[:12])
	}
	var out []byte
	for i := 0; i < int(count); i++ {
		cid := CID(body[i*cidLen : (i+1)*cidLen])
		block, err := n.fetchBlock(ctx, cid)
		if err != nil {
			return nil, err
		}
		out = append(out, block...)
	}
	return out, nil
}

// Has reports whether the node holds the root block locally.
func (n *Node) Has(cid CID) bool {
	_, ok := n.localBlock(cid)
	return ok
}

// Blocks returns the number of locally held blocks.
func (n *Node) Blocks() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.blocks)
}
