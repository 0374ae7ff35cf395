package store_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/local"
	"proxystore/internal/connectors/multi"
	"proxystore/internal/serial"
	"proxystore/internal/store"
)

// newTaggedStore builds a store over a two-child multi connector: a
// default untagged child and a "persistent"-tagged child, so tagged puts
// are observable by which child received the object.
func newTaggedStore(t *testing.T, name string, opts ...store.Option) (*store.Store, *local.Connector, *local.Connector) {
	t.Helper()
	// local instances are process-global by name; a fresh suffix keeps
	// repeated runs (-count=N) from seeing earlier runs' objects.
	id := connector.NewID()
	plain := local.New(name + "-plain-" + id)
	tagged := local.New(name + "-tagged-" + id)
	mc, err := multi.New(
		multi.Child{Name: "plain", Connector: plain, Policy: multi.Policy{Priority: 1}},
		multi.Child{Name: "tagged", Connector: tagged, Policy: multi.Policy{Tags: []string{"persistent"}}},
	)
	if err != nil {
		t.Fatalf("multi.New: %v", err)
	}
	s, err := store.New(name, mc, opts...)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister(name) })
	return s, plain, tagged
}

// TestPutObjectWithTagsRoutesPlacement: WithTags must land the object on
// the child carrying the tag, and the minted key must still round-trip
// through GetObject (cache disabled so the read really routes).
func TestPutObjectWithTagsRoutesPlacement(t *testing.T) {
	s, plain, tagged := newTaggedStore(t, "tags-route", store.WithCacheBytes(0))
	ctx := context.Background()

	key, err := s.PutObject(ctx, []byte("pinned"), store.WithTags("persistent"))
	if err != nil {
		t.Fatalf("PutObject(WithTags): %v", err)
	}
	if tagged.Len() != 1 || plain.Len() != 0 {
		t.Fatalf("tagged put landed on the wrong child: plain=%d tagged=%d", plain.Len(), tagged.Len())
	}
	v, err := s.GetObject(ctx, key)
	if err != nil {
		t.Fatalf("GetObject: %v", err)
	}
	if string(v.([]byte)) != "pinned" {
		t.Fatalf("GetObject = %q", v)
	}

	// Untagged puts keep routing to the default (higher-priority) child.
	if _, err := s.PutObject(ctx, []byte("loose")); err != nil {
		t.Fatalf("PutObject: %v", err)
	}
	if plain.Len() != 1 {
		t.Fatalf("untagged put did not use the default child: plain=%d tagged=%d", plain.Len(), tagged.Len())
	}
}

// TestPutObjectWithTagsNonStreamingSerializer: a serializer without a
// streaming encoder must still honor tags (the encoded blob rides the
// tagged streaming path).
func TestPutObjectWithTagsNonStreamingSerializer(t *testing.T) {
	s, plain, tagged := newTaggedStore(t, "tags-blob", store.WithSerializer(serial.Raw()), store.WithCacheBytes(0))
	ctx := context.Background()
	key, err := s.PutObject(ctx, []byte("raw-pinned"), store.WithTags("persistent"))
	if err != nil {
		t.Fatalf("PutObject(WithTags): %v", err)
	}
	if tagged.Len() != 1 || plain.Len() != 0 {
		t.Fatalf("tagged raw put landed wrong: plain=%d tagged=%d", plain.Len(), tagged.Len())
	}
	v, err := s.GetObject(ctx, key)
	if err != nil || string(v.([]byte)) != "raw-pinned" {
		t.Fatalf("GetObject = %v, %v", v, err)
	}
}

// TestPutObjectWithTagsUnsupportedConnector: a connector with no tagged
// put surface must reject the constraint loudly instead of dropping it.
func TestPutObjectWithTagsUnsupportedConnector(t *testing.T) {
	s := newTestStore(t, "tags-unsupported")
	_, err := s.PutObject(context.Background(), []byte("x"), store.WithTags("persistent"))
	if err == nil {
		t.Fatal("PutObject(WithTags) succeeded on a connector without tagged puts")
	}
	if !strings.Contains(err.Error(), "placement tags") {
		t.Fatalf("error does not name the dropped constraint: %v", err)
	}
}

// TestNewProxyWithPutTags: the proxy-minting path carries the same
// placement constraint, and the resulting proxy resolves normally.
func TestNewProxyWithPutTags(t *testing.T) {
	s, plain, tagged := newTaggedStore(t, "tags-proxy")
	ctx := context.Background()
	p, err := store.NewProxy(ctx, s, []byte("via-proxy"), store.WithPutTags("persistent"))
	if err != nil {
		t.Fatalf("NewProxy(WithPutTags): %v", err)
	}
	if tagged.Len() != 1 || plain.Len() != 0 {
		t.Fatalf("proxy put landed wrong: plain=%d tagged=%d", plain.Len(), tagged.Len())
	}
	v, err := p.Value(ctx)
	if err != nil || string(v) != "via-proxy" {
		t.Fatalf("Value = %q, %v", v, err)
	}

	// An unsatisfiable constraint fails the put, not a later resolve.
	if _, err := store.NewProxy(ctx, s, []byte("x"), store.WithPutTags("no-such-tag")); err == nil {
		t.Fatal("NewProxy with unsatisfiable tags succeeded")
	}
}

// TestBinarySerializerStreamsThroughStore: the binary codec round-trips
// []byte and scalar payloads through the store's streaming path and keeps
// them intact; it is registered so factories can name it cross-process.
func TestBinarySerializerStreamsThroughStore(t *testing.T) {
	s := newTestStore(t, "binary-codec", store.WithSerializer(serial.Binary()), store.WithCacheBytes(0))
	ctx := context.Background()

	payload := bytes.Repeat([]byte{0xC3}, 3<<20)
	key, err := s.PutObject(ctx, payload)
	if err != nil {
		t.Fatalf("PutObject: %v", err)
	}
	v, err := s.GetObject(ctx, key)
	if err != nil {
		t.Fatalf("GetObject: %v", err)
	}
	if got, ok := v.([]byte); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("binary round trip corrupted payload (%T, %d bytes)", v, len(got))
	}

	// Scalars and gob-envelope values survive the same path.
	for _, val := range []any{"a string", int64(-42), 3.25, true, []float64{1, 2}} {
		key, err := s.PutObject(ctx, val)
		if err != nil {
			t.Fatalf("PutObject(%T): %v", val, err)
		}
		if _, err := s.GetObject(ctx, key); err != nil {
			t.Fatalf("GetObject(%T): %v", val, err)
		}
	}
}
