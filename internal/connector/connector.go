// Package connector defines the Connector protocol: the low-level interface
// to a mediated communication channel (paper §3.4).
//
// A Connector moves opaque byte strings. Put stores bytes and returns a Key
// (a small tuple of metadata) that any process can later hand to Get. The
// Store layers object semantics (serialization, caching, proxies) on top.
//
// Connectors are registered by type name so that a Config travelling inside
// a proxy factory can be turned back into a live Connector on a process
// that has never seen the original instance — the mechanism behind the
// paper's "proxies are self-contained" property.
package connector

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// Key uniquely identifies an object stored in a mediated channel. Keys are
// small, comparable-by-value (excluding Attrs), and safe to serialize into
// proxy factories.
type Key struct {
	// ID is the unique object identifier assigned by Put.
	ID string
	// Type is the connector type that produced the key (e.g. "redis").
	Type string
	// Size is the stored byte-string length, when known. Policy routing in
	// the MultiConnector and cache accounting use it.
	Size int64
	// Attrs carries backend-specific metadata, e.g. the Globus transfer
	// task ID or the producing PS-endpoint UUID.
	Attrs map[string]string
}

// String renders the key for logs and errors.
func (k Key) String() string {
	if len(k.Attrs) == 0 {
		return fmt.Sprintf("%s:%s", k.Type, k.ID)
	}
	names := make([]string, 0, len(k.Attrs))
	for name := range k.Attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	s := fmt.Sprintf("%s:%s", k.Type, k.ID)
	for _, name := range names {
		s += fmt.Sprintf(" %s=%s", name, k.Attrs[name])
	}
	return s
}

// Attr returns a backend-specific attribute, or "" when unset.
func (k Key) Attr(name string) string {
	if k.Attrs == nil {
		return ""
	}
	return k.Attrs[name]
}

// WithAttr returns a copy of the key with the attribute set.
func (k Key) WithAttr(name, value string) Key {
	attrs := make(map[string]string, len(k.Attrs)+1)
	for n, v := range k.Attrs {
		attrs[n] = v
	}
	attrs[name] = value
	k.Attrs = attrs
	return k
}

// NewID returns a fresh 128-bit hex object identifier.
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("connector: reading randomness: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Config is a serializable description of a connector sufficient to
// reconstruct an equivalent instance in another process.
type Config struct {
	// Type names the connector implementation in the registry.
	Type string
	// Params holds implementation-specific settings (addresses, paths...).
	Params map[string]string
}

// Param returns a config parameter, or def when unset.
func (c Config) Param(name, def string) string {
	if v, ok := c.Params[name]; ok {
		return v
	}
	return def
}

// Connector is the protocol all mediated channels implement. Implementations
// must be safe for concurrent use.
type Connector interface {
	// Type returns the registry type name of the connector.
	Type() string
	// Config returns a description sufficient to reconstruct the connector
	// in another process.
	Config() Config
	// Put stores data and returns its key.
	Put(ctx context.Context, data []byte) (Key, error)
	// Get retrieves the byte string for key. It returns ErrNotFound if the
	// object does not exist (e.g. already evicted).
	Get(ctx context.Context, key Key) ([]byte, error)
	// Exists reports whether key currently resolves to an object.
	Exists(ctx context.Context, key Key) (bool, error)
	// Evict removes the object; evicting a missing key is not an error.
	Evict(ctx context.Context, key Key) error
	// Close releases connector resources. Objects in persistent channels
	// survive Close.
	Close() error
}

// BatchPutter is implemented by connectors that can store several objects
// in one backend operation (e.g. a single Globus transfer task, used by
// Store.ProxyBatch).
type BatchPutter interface {
	PutBatch(ctx context.Context, data [][]byte) ([]Key, error)
}

// ErrNotFound is returned by Get when a key has no object, typically
// because it was evicted.
var ErrNotFound = fmt.Errorf("connector: object not found")

// Builder constructs a connector from its serialized config.
type Builder func(Config) (Connector, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Builder)
)

// Register installs a builder for a connector type. Connector packages call
// Register from init so that FromConfig works after a blank import.
func Register(typ string, b Builder) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[typ] = b
}

// FromConfig reconstructs a connector from its config using the registry.
func FromConfig(cfg Config) (Connector, error) {
	regMu.RLock()
	b, ok := registry[cfg.Type]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("connector: no builder registered for type %q", cfg.Type)
	}
	return b(cfg)
}
