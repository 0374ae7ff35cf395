// Package proxy implements lazy, transparent object proxies — the paper's
// core abstraction (§3.3).
//
// A Proxy[T] is initialized with a Factory rather than a target value and
// resolves the target just in time, on first access. Python ProxyStore
// achieves transparency with dynamic attribute interception; Go has no
// metaprogramming, so transparency is expressed through the type system: a
// Proxy[T] is used wherever a T is expected by calling Value, and adapter
// helpers forward common stdlib interfaces. Exactly as in the paper, a
// serialized proxy contains only its factory, never the target, so proxies
// are cheap to communicate and remain resolvable in any process.
package proxy

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"
)

// Factory produces the target object of a proxy. Factories must be safe to
// call from any goroutine; a proxy calls its factory at most once unless
// the cached target is released.
type Factory[T any] interface {
	Resolve(ctx context.Context) (T, error)
}

// Func adapts an ordinary function into a Factory.
type Func[T any] func(ctx context.Context) (T, error)

// Resolve implements Factory.
func (f Func[T]) Resolve(ctx context.Context) (T, error) { return f(ctx) }

// Static is a factory that returns a fixed value; useful in tests and for
// wrapping already-materialized data.
type Static[T any] struct{ Value T }

// Resolve implements Factory.
func (s Static[T]) Resolve(context.Context) (T, error) { return s.Value, nil }

// Proxy is a lazy reference to a value of type T. The zero Proxy is invalid;
// construct with New or by deserializing.
//
// A Proxy is safe for concurrent use.
type Proxy[T any] struct {
	mu       sync.Mutex
	factory  Factory[T]
	resolved bool
	value    T
	pending  *pendingResolve[T]
}

// pendingResolve carries an in-flight async resolution. value and err are
// written by the resolving goroutine strictly before done is closed and are
// immutable afterwards, so waiters read them without locking.
type pendingResolve[T any] struct {
	done  chan struct{}
	value T
	err   error
}

// New returns a proxy that resolves its target with factory on first use.
func New[T any](factory Factory[T]) *Proxy[T] {
	if factory == nil {
		panic("proxy: nil factory")
	}
	return &Proxy[T]{factory: factory}
}

// FromValue returns an already-resolved proxy wrapping v. Serializing such
// a proxy still requires a describable factory, so FromValue proxies are
// process-local conveniences.
func FromValue[T any](v T) *Proxy[T] {
	return &Proxy[T]{factory: Static[T]{Value: v}, resolved: true, value: v}
}

// Value resolves the proxy if needed and returns the target. Subsequent
// calls return the cached target without touching the factory.
//
// A Value call that overlaps an in-flight ResolveAsync waits for it and
// observes its outcome, including a resolution error. A failed async
// resolve leaves the proxy unresolved, so a later (non-overlapping) Value
// call retries the factory.
func (p *Proxy[T]) Value(ctx context.Context) (T, error) {
	p.mu.Lock()
	if p.resolved {
		v := p.value
		p.mu.Unlock()
		return v, nil
	}
	pending := p.pending
	p.mu.Unlock()

	if pending != nil {
		select {
		case <-pending.done:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
		if pending.err != nil {
			var zero T
			return zero, fmt.Errorf("proxy: resolving target: %w", pending.err)
		}
		return p.Value(ctx)
	}

	v, err := p.factoryRef().Resolve(ctx)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("proxy: resolving target: %w", err)
	}
	p.mu.Lock()
	if !p.resolved {
		p.value = v
		p.resolved = true
	}
	v = p.value
	p.mu.Unlock()
	return v, nil
}

// MustValue is Value with a background context, panicking on error. It
// mirrors the ergonomics of Python's implicit resolution for code paths
// where resolution failure is a programming error.
func (p *Proxy[T]) MustValue() T {
	v, err := p.Value(context.Background())
	if err != nil {
		panic(err)
	}
	return v
}

// ResolveAsync begins resolving the target in a background goroutine so a
// later Value call finds it ready — the paper's resolve_async, used to
// overlap communication with computation. Calling ResolveAsync on a
// resolved or already-resolving proxy is a no-op.
//
// A failed async resolve is not discarded: every Value call waiting on the
// in-flight resolution observes the error. The proxy then returns to the
// unresolved state, so the next fresh Value call retries the factory.
func (p *Proxy[T]) ResolveAsync(ctx context.Context) {
	p.mu.Lock()
	if p.resolved || p.pending != nil {
		p.mu.Unlock()
		return
	}
	pending := &pendingResolve[T]{done: make(chan struct{})}
	p.pending = pending
	f := p.factory
	p.mu.Unlock()

	go func() {
		pending.value, pending.err = f.Resolve(ctx)
		p.finishAsync(pending)
		close(pending.done)
	}()
}

func (p *Proxy[T]) finishAsync(pending *pendingResolve[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pending = nil
	if pending.err == nil && !p.resolved {
		p.value = pending.value
		p.resolved = true
	}
}

// Prime hands the proxy an externally materialized target, as if the
// factory had resolved to v. It is a no-op on an already-resolved proxy.
// Store.ResolveBatch uses it to fan a single batched get out to many
// proxies.
func (p *Proxy[T]) Prime(v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.resolved {
		return
	}
	p.value = v
	p.resolved = true
}

// Resolved reports whether the target is materialized locally.
func (p *Proxy[T]) Resolved() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resolved
}

// Release drops the cached target so the next Value resolves again through
// the factory. It has no effect on an unresolved proxy.
func (p *Proxy[T]) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	var zero T
	p.value = zero
	p.resolved = false
}

// Factory returns the proxy's factory.
func (p *Proxy[T]) Factory() Factory[T] { return p.factoryRef() }

func (p *Proxy[T]) factoryRef() Factory[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.factory
}

// --- Serialization -------------------------------------------------------
//
// A proxy serializes as its factory descriptor only (paper §3.3: pickling a
// proxy includes only the factory, not the target). Factories that can
// travel between processes implement Describable; descriptor kinds map to
// rebuild functions in a process-global registry so the receiving side can
// reconstruct an equivalent factory without static knowledge of its type.

// Descriptor is the serialized form of a factory.
type Descriptor struct {
	// Kind names the rebuild function in the registry (e.g. "store").
	Kind string
	// Data is kind-specific encoded state.
	Data []byte
}

// Describable is implemented by factories that can be serialized.
type Describable interface {
	Describe() (Descriptor, error)
}

// AnyFactory resolves a target as an untyped value. Rebuild functions
// return AnyFactory because Go registries cannot hold generic functions;
// the typed Proxy[T] wraps the result and asserts to T.
type AnyFactory interface {
	ResolveAny(ctx context.Context) (any, error)
}

// Rebuilder reconstructs a factory from descriptor data.
type Rebuilder func(data []byte) (AnyFactory, error)

var (
	kindMu sync.RWMutex
	kinds  = make(map[string]Rebuilder)
)

// RegisterKind installs the rebuild function for a descriptor kind.
func RegisterKind(kind string, r Rebuilder) {
	kindMu.Lock()
	defer kindMu.Unlock()
	kinds[kind] = r
}

func rebuild(d Descriptor) (AnyFactory, error) {
	kindMu.RLock()
	r, ok := kinds[d.Kind]
	kindMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("proxy: no factory rebuilder for kind %q", d.Kind)
	}
	return r(d.Data)
}

// typedAdapter lifts an AnyFactory to a Factory[T] with a runtime type
// assertion at resolve time.
type typedAdapter[T any] struct{ af AnyFactory }

func (a typedAdapter[T]) Resolve(ctx context.Context) (T, error) {
	var zero T
	v, err := a.af.ResolveAny(ctx)
	if err != nil {
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("proxy: factory produced %T, want %T", v, zero)
	}
	return t, nil
}

func (a typedAdapter[T]) Describe() (Descriptor, error) {
	d, ok := a.af.(Describable)
	if !ok {
		return Descriptor{}, fmt.Errorf("proxy: underlying factory %T is not describable", a.af)
	}
	return d.Describe()
}

// MarshalBinary serializes the proxy as its factory descriptor. The cached
// target, if any, is deliberately excluded so proxies stay small on the
// wire and remain resolvable remotely.
func (p *Proxy[T]) MarshalBinary() ([]byte, error) {
	f := p.factoryRef()
	d, ok := f.(Describable)
	if !ok {
		return nil, fmt.Errorf("proxy: factory %T is not serializable", f)
	}
	desc, err := d.Describe()
	if err != nil {
		return nil, fmt.Errorf("proxy: describing factory: %w", err)
	}
	return desc.MarshalBinary()
}

// UnmarshalBinary reconstructs the proxy's factory from a descriptor. The
// proxy is left unresolved.
func (p *Proxy[T]) UnmarshalBinary(data []byte) error {
	var desc Descriptor
	if err := desc.UnmarshalBinary(data); err != nil {
		return err
	}
	af, err := rebuild(desc)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.factory = typedAdapter[T]{af: af}
	p.resolved = false
	p.pending = nil
	var zero T
	p.value = zero
	return nil
}

// descriptorFormat is the first byte of an encoded Descriptor. A gob
// stream, the format of earlier builds, starts with a message length that
// is either below 0x80 or a byte count in 0xf8–0xff, so it can never begin
// with this byte and is refused as an unsupported format.
const descriptorFormat = 0xd1

// MarshalBinary encodes the descriptor as its wire frame: the format byte,
// the uvarint length of Kind, Kind, then Data up to the end of the frame.
func (d Descriptor) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+len(d.Kind)+len(d.Data))
	out = append(out, descriptorFormat)
	out = binary.AppendUvarint(out, uint64(len(d.Kind)))
	out = append(out, d.Kind...)
	return append(out, d.Data...), nil
}

// UnmarshalBinary decodes a frame written by MarshalBinary. It checks the
// kind length against the bytes that remain before allocating, and copies
// Data, so the descriptor never aliases the input.
func (d *Descriptor) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("proxy: decoding descriptor: empty input")
	}
	if data[0] != descriptorFormat {
		return fmt.Errorf("proxy: decoding descriptor: unsupported descriptor format 0x%02x (want 0x%02x; blobs from earlier builds are not readable)", data[0], descriptorFormat)
	}
	rest := data[1:]
	n, w := binary.Uvarint(rest)
	if w <= 0 || (w > 1 && rest[w-1] == 0) {
		return fmt.Errorf("proxy: decoding descriptor: malformed kind length")
	}
	rest = rest[w:]
	if n > uint64(len(rest)) {
		return fmt.Errorf("proxy: decoding descriptor: kind length %d exceeds the %d bytes left", n, len(rest))
	}
	d.Kind = string(rest[:n])
	d.Data = append([]byte(nil), rest[n:]...)
	return nil
}

// RegisterGob registers *Proxy[T] with encoding/gob so proxies of that type
// can travel inside interface-typed payloads (e.g. FaaS task arguments).
func RegisterGob[T any]() { gob.Register(&Proxy[T]{}) }

// NewFromAny returns a typed proxy over an untyped factory, asserting the
// resolved value to T at resolve time. Store uses it to build Proxy[T]
// instances from its serializable untyped factories.
func NewFromAny[T any](af AnyFactory) *Proxy[T] {
	return New[T](typedAdapter[T]{af: af})
}

// Underlying returns the untyped factory backing p when it was built with
// NewFromAny (or deserialized), letting callers such as Store.ResolveBatch
// inspect factory state without resolving. It reports false for proxies
// over plain typed factories.
func Underlying[T any](p *Proxy[T]) (AnyFactory, bool) {
	if ta, ok := p.factoryRef().(typedAdapter[T]); ok {
		return ta.af, true
	}
	return nil, false
}
