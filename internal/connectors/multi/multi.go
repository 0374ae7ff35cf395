// Package multi implements the MultiConnector abstraction (paper §4.3): a
// connector composed of other connectors, each guarded by a Policy, so a
// single Store can route objects to the most suitable mediated channel.
//
// On Put, the object's size and the caller's constraints are matched against
// every policy; among matches the highest-priority connector wins. Keys
// remember which child stored the object, so Get/Exists/Evict route without
// re-evaluating policies.
package multi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"proxystore/internal/connector"
)

// Type is the registry name of the multi connector.
const Type = "multi"

const childAttr = "multi_child"

// Policy describes when a child connector is eligible to store an object.
// The zero Policy matches everything with priority 0.
type Policy struct {
	// MinSize and MaxSize bound eligible object sizes in bytes; zero means
	// unbounded on that side.
	MinSize int64 `json:"min_size,omitempty"`
	MaxSize int64 `json:"max_size,omitempty"`
	// Tags are site/capability labels (e.g. "intra-site", "persistent").
	// A constraint tag matches only connectors whose policy carries it.
	Tags []string `json:"tags,omitempty"`
	// Priority breaks ties among matching connectors; higher wins.
	Priority int `json:"priority,omitempty"`
}

// Matches reports whether an object of the given size with the given
// required tags is eligible under the policy.
func (p Policy) Matches(size int64, required []string) bool {
	if p.MinSize > 0 && size < p.MinSize {
		return false
	}
	if p.MaxSize > 0 && size > p.MaxSize {
		return false
	}
	for _, want := range required {
		found := false
		for _, have := range p.Tags {
			if want == have {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Child pairs a connector with its policy under a stable name.
type Child struct {
	Name      string
	Connector connector.Connector
	Policy    Policy
}

// Connector routes operations across children by policy.
//
// A Connector is safe for concurrent use.
type Connector struct {
	mu       sync.RWMutex
	children []Child

	// constraints for the next Put, set via PutConstraints wrapper.
}

// New builds a MultiConnector from children. Child names must be unique.
func New(children ...Child) (*Connector, error) {
	seen := make(map[string]bool, len(children))
	for _, ch := range children {
		if ch.Name == "" {
			return nil, fmt.Errorf("multi: child with empty name")
		}
		if ch.Connector == nil {
			return nil, fmt.Errorf("multi: child %q has nil connector", ch.Name)
		}
		if seen[ch.Name] {
			return nil, fmt.Errorf("multi: duplicate child name %q", ch.Name)
		}
		seen[ch.Name] = true
	}
	c := &Connector{children: append([]Child(nil), children...)}
	// Stable priority order: higher priority first, then insertion order.
	sort.SliceStable(c.children, func(i, j int) bool {
		return c.children[i].Policy.Priority > c.children[j].Policy.Priority
	})
	return c, nil
}

// Type implements connector.Connector.
func (c *Connector) Type() string { return Type }

// Config implements connector.Connector. The config embeds each child's
// config and policy as JSON so consumer processes can rebuild the router.
func (c *Connector) Config() connector.Config {
	c.mu.RLock()
	defer c.mu.RUnlock()
	specs := make([]childSpec, len(c.children))
	for i, ch := range c.children {
		specs[i] = childSpec{Name: ch.Name, Config: ch.Connector.Config(), Policy: ch.Policy}
	}
	blob, err := json.Marshal(specs)
	if err != nil {
		// Child configs are plain string maps; marshaling cannot fail.
		panic(fmt.Sprintf("multi: marshaling child specs: %v", err))
	}
	return connector.Config{Type: Type, Params: map[string]string{"children": string(blob)}}
}

type childSpec struct {
	Name   string           `json:"name"`
	Config connector.Config `json:"config"`
	Policy Policy           `json:"policy"`
}

// ErrNoPolicy is returned when no child's policy matches an object.
// Deployments that want a catch-all should add a low-priority child with a
// zero policy.
var ErrNoPolicy = fmt.Errorf("multi: no connector policy matches object")

func (c *Connector) route(size int64, tags []string) (Child, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ch := range c.children { // already in priority order
		if ch.Policy.Matches(size, tags) {
			return ch, nil
		}
	}
	return Child{}, fmt.Errorf("%w (size=%d tags=%v)", ErrNoPolicy, size, tags)
}

func (c *Connector) child(name string) (Child, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ch := range c.children {
		if ch.Name == name {
			return ch, nil
		}
	}
	return Child{}, fmt.Errorf("multi: key references unknown child %q", name)
}

// Put implements connector.Connector, routing by size with no tag
// constraints. Use PutTagged to constrain placement.
func (c *Connector) Put(ctx context.Context, data []byte) (connector.Key, error) {
	return c.PutTagged(ctx, data, nil)
}

// PutTagged stores data on the highest-priority child whose policy matches
// the object's size and carries every required tag.
func (c *Connector) PutTagged(ctx context.Context, data []byte, tags []string) (connector.Key, error) {
	ch, err := c.route(int64(len(data)), tags)
	if err != nil {
		return connector.Key{}, err
	}
	key, err := ch.Connector.Put(ctx, data)
	if err != nil {
		return connector.Key{}, fmt.Errorf("multi: put via %q: %w", ch.Name, err)
	}
	key = key.WithAttr(childAttr, ch.Name)
	key.Type = Type // the key's producing connector is the router itself
	return key, nil
}

// probeLimit returns the largest finite size bound appearing in any child
// policy. Streams longer than this route identically to any larger size, so
// PutFrom never needs to buffer more than probeLimit+1 bytes to route.
func (c *Connector) probeLimit() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var limit int64
	for _, ch := range c.children {
		if ch.Policy.MinSize > limit {
			limit = ch.Policy.MinSize
		}
		if ch.Policy.MaxSize > limit {
			limit = ch.Policy.MaxSize
		}
	}
	return limit
}

// PutFrom implements connector.StreamPutter, routing by size without
// materializing the stream.
func (c *Connector) PutFrom(ctx context.Context, r io.Reader) (connector.Key, error) {
	return c.PutFromTagged(ctx, r, nil)
}

// PutFromTagged streams data to the highest-priority child whose policy
// matches. Size-based routing works on chunk counts rather than a
// materialized buffer: chunks are read only until the stream either ends
// (exact size known) or provably exceeds every finite policy bound, at
// which point the buffered head plus the remaining stream are forwarded to
// the chosen child's streaming path.
func (c *Connector) PutFromTagged(ctx context.Context, r io.Reader, tags []string) (connector.Key, error) {
	probe := c.probeLimit()
	// The peeked head is kept as a chunk list, never one contiguous buffer,
	// so no O(probe) allocation or copy happens even under policies with
	// large finite bounds (total spooled bytes are still capped at probe+1;
	// bounds are routing decisions and must be observed before routing).
	var head [][]byte
	var size int64
	eof := false
	for size <= probe {
		want := int64(connector.DefaultChunkSize)
		if rem := probe + 1 - size; rem < want {
			want = rem
		}
		buf := make([]byte, want)
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			head = append(head, buf[:n:n])
			size += int64(n)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			eof = true
			break
		}
		if err != nil {
			return connector.Key{}, fmt.Errorf("multi: reading stream: %w", err)
		}
	}
	// When the stream outlives the probe, size now exceeds every finite
	// bound, so it routes like any "large" object.
	ch, err := c.route(size, tags)
	if err != nil {
		return connector.Key{}, err
	}
	readers := make([]io.Reader, 0, len(head)+1)
	for _, chunk := range head {
		readers = append(readers, bytes.NewReader(chunk))
	}
	if !eof {
		readers = append(readers, r)
	}
	src := io.MultiReader(readers...)
	key, err := connector.PutFrom(ctx, ch.Connector, src)
	if err != nil {
		return connector.Key{}, fmt.Errorf("multi: stream put via %q: %w", ch.Name, err)
	}
	key = key.WithAttr(childAttr, ch.Name)
	key.Type = Type
	return key, nil
}

// GetTo implements connector.StreamGetter, dispatching to the child that
// stored the object and using its native streaming path when present.
func (c *Connector) GetTo(ctx context.Context, key connector.Key, w io.Writer) error {
	ch, err := c.dispatch(key)
	if err != nil {
		return err
	}
	return connector.GetTo(ctx, ch.Connector, key, w)
}

// PutBatch implements connector.BatchPutter: items are routed individually
// by size, then stored with one backend batch operation per child.
func (c *Connector) PutBatch(ctx context.Context, blobs [][]byte) ([]connector.Key, error) {
	groups := make(map[string][]int)
	byName := make(map[string]Child)
	for i, b := range blobs {
		ch, err := c.route(int64(len(b)), nil)
		if err != nil {
			return nil, err
		}
		groups[ch.Name] = append(groups[ch.Name], i)
		byName[ch.Name] = ch
	}
	keys := make([]connector.Key, len(blobs))
	for name, idx := range groups {
		ch := byName[name]
		sub := make([][]byte, len(idx))
		for j, i := range idx {
			sub[j] = blobs[i]
		}
		got, err := connector.Stream(ch.Connector).PutBatch(ctx, sub)
		if err != nil {
			return nil, fmt.Errorf("multi: batch put via %q: %w", name, err)
		}
		for j, i := range idx {
			k := got[j].WithAttr(childAttr, name)
			k.Type = Type
			keys[i] = k
		}
	}
	return keys, nil
}

// GetBatch implements connector.BatchGetter: keys are grouped by the child
// that stored them and fetched with one backend batch operation per child.
func (c *Connector) GetBatch(ctx context.Context, keys []connector.Key) ([][]byte, error) {
	groups := make(map[string][]int)
	byName := make(map[string]Child)
	for i, k := range keys {
		ch, err := c.dispatch(k)
		if err != nil {
			return nil, err
		}
		groups[ch.Name] = append(groups[ch.Name], i)
		byName[ch.Name] = ch
	}
	out := make([][]byte, len(keys))
	for name, idx := range groups {
		ch := byName[name]
		sub := make([]connector.Key, len(idx))
		for j, i := range idx {
			sub[j] = keys[i]
		}
		got, err := connector.Stream(ch.Connector).GetBatch(ctx, sub)
		if err != nil {
			return nil, fmt.Errorf("multi: batch get via %q: %w", name, err)
		}
		for j, i := range idx {
			out[i] = got[j]
		}
	}
	return out, nil
}

func (c *Connector) dispatch(key connector.Key) (Child, error) {
	name := key.Attr(childAttr)
	if name == "" {
		return Child{}, fmt.Errorf("multi: key %s lacks child routing attribute", key)
	}
	return c.child(name)
}

// Get implements connector.Connector.
func (c *Connector) Get(ctx context.Context, key connector.Key) ([]byte, error) {
	ch, err := c.dispatch(key)
	if err != nil {
		return nil, err
	}
	return ch.Connector.Get(ctx, key)
}

// Exists implements connector.Connector.
func (c *Connector) Exists(ctx context.Context, key connector.Key) (bool, error) {
	ch, err := c.dispatch(key)
	if err != nil {
		return false, err
	}
	return ch.Connector.Exists(ctx, key)
}

// Evict implements connector.Connector.
func (c *Connector) Evict(ctx context.Context, key connector.Key) error {
	ch, err := c.dispatch(key)
	if err != nil {
		return err
	}
	return ch.Connector.Evict(ctx, key)
}

// Close implements connector.Connector, closing every child and returning
// the first error encountered.
func (c *Connector) Close() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var first error
	for _, ch := range c.children {
		if err := ch.Connector.Close(); err != nil && first == nil {
			first = fmt.Errorf("multi: closing %q: %w", ch.Name, err)
		}
	}
	return first
}

func init() {
	connector.Register(Type, func(cfg connector.Config) (connector.Connector, error) {
		var specs []childSpec
		if err := json.Unmarshal([]byte(cfg.Param("children", "[]")), &specs); err != nil {
			return nil, fmt.Errorf("multi: decoding child specs: %w", err)
		}
		children := make([]Child, len(specs))
		for i, sp := range specs {
			conn, err := connector.FromConfig(sp.Config)
			if err != nil {
				return nil, fmt.Errorf("multi: rebuilding child %q: %w", sp.Name, err)
			}
			children[i] = Child{Name: sp.Name, Connector: conn, Policy: sp.Policy}
		}
		return New(children...)
	})
}
