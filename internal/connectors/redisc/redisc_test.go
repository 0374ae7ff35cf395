package redisc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"proxystore/internal/connector"
	"proxystore/internal/connector/connectortest"
	"proxystore/internal/kvstore"
	"proxystore/internal/netsim"
)

func newServer(t *testing.T) *kvstore.Server {
	t.Helper()
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestConformance(t *testing.T) {
	srv := newServer(t)
	connectortest.Run(t, func(t *testing.T) connector.Connector {
		return New(srv.Addr())
	}, connectortest.Options{})
}

func TestObjectsSharedAcrossConnectors(t *testing.T) {
	srv := newServer(t)
	producer := New(srv.Addr())
	defer producer.Close()
	consumer := New(srv.Addr())
	defer consumer.Close()

	ctx := context.Background()
	key, err := producer.Put(ctx, []byte("mediated"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := consumer.Get(ctx, key)
	if err != nil {
		t.Fatalf("consumer Get: %v", err)
	}
	if string(got) != "mediated" {
		t.Fatalf("consumer Get = %q", got)
	}
}

func TestConfigCarriesSites(t *testing.T) {
	c := New("127.0.0.1:1", WithSites("midway2-login", "theta"))
	defer c.Close()
	cfg := c.Config()
	if cfg.Param("client_site", "") != "midway2-login" || cfg.Param("server_site", "") != "theta" {
		t.Fatalf("Config = %v", cfg.Params)
	}
}

func TestShardedGetWindows(t *testing.T) {
	// The pipelined read must reassemble shards in order, and a shard
	// missing mid-object must surface ErrNotFound.
	srv := newServer(t)
	ctx := context.Background()
	const chunk = 1 << 10
	payload := make([]byte, 10*chunk+37)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	c := New(srv.Addr(), WithChunkSize(chunk))
	defer c.Close()
	key, err := c.PutFrom(ctx, bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("PutFrom: %v", err)
	}
	got, err := c.Get(ctx, key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("sharded object reassembled out of order")
	}
	var buf bytes.Buffer
	if err := c.GetTo(ctx, key, &buf); err != nil {
		t.Fatalf("GetTo: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), payload) {
		t.Fatal("GetTo reassembled out of order")
	}
	// Punch a hole mid-object: the pipelined read must fail NotFound.
	cli := kvstore.NewClient(srv.Addr())
	if _, err := cli.Del(ctx, key.ID+":5"); err != nil {
		t.Fatalf("Del: %v", err)
	}
	cli.Close()
	if _, err := c.Get(ctx, key); !errors.Is(err, connector.ErrNotFound) {
		t.Fatalf("Get with missing shard = %v, want ErrNotFound", err)
	}
	buf.Reset()
	if err := c.GetTo(ctx, key, &buf); !errors.Is(err, connector.ErrNotFound) {
		t.Fatalf("GetTo with missing shard = %v, want ErrNotFound", err)
	}
	if !bytes.Equal(buf.Bytes(), payload[:5*chunk]) {
		t.Fatalf("GetTo with missing shard 5 wrote %d bytes, want the %d before it", buf.Len(), 5*chunk)
	}
}

// failAfter yields n bytes of r and then fails with err.
type failAfter struct {
	r   io.Reader
	n   int
	err error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, f.err
	}
	k, err := f.r.Read(p[:min(len(p), f.n)])
	f.n -= k
	return k, err
}

// A put whose reader fails removes the shards it wrote, in one DEL on the
// connection the put used.
func TestPutFromReadErrorCleansUp(t *testing.T) {
	srv := newServer(t)
	ctx := context.Background()
	c := New(srv.Addr(), WithChunkSize(64))
	defer c.Close()
	if err := c.Client().Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	dials := c.Client().Dials()
	boom := errors.New("boom")
	cmds := srv.Commands()
	_, err := c.PutFrom(ctx, &failAfter{r: bytes.NewReader(make([]byte, 1000)), n: 3 * 64, err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("PutFrom err = %v, want %v", err, boom)
	}
	if got := srv.Commands() - cmds; got != 4 {
		t.Fatalf("failed PutFrom ran %d commands, want 3 SETs and 1 DEL", got)
	}
	if n, err := c.Client().DBSize(ctx); err != nil || n != 0 {
		t.Fatalf("DBSize after a failed PutFrom = %d, %v; want 0", n, err)
	}
	if got := c.Client().Dials(); got != dials {
		t.Fatalf("Dials went from %d to %d", dials, got)
	}
}

// Descriptors minted before the get window was removed still carry its
// parameter; they must rebuild and resolve.
func TestConfigWithRetiredGetWindowResolves(t *testing.T) {
	srv := newServer(t)
	ctx := context.Background()
	c := New(srv.Addr(), WithChunkSize(1<<10))
	defer c.Close()
	payload := bytes.Repeat([]byte("old descriptor|"), 300)
	key, err := c.PutFrom(ctx, bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("PutFrom: %v", err)
	}
	cfg := c.Config()
	if _, ok := cfg.Params["get_window"]; ok {
		t.Fatalf("Config still carries get_window: %v", cfg.Params)
	}
	cfg.Params["get_window"] = "4"
	rebuilt, err := connector.FromConfig(cfg)
	if err != nil {
		t.Fatalf("FromConfig: %v", err)
	}
	defer rebuilt.Close()
	got, err := rebuilt.Get(ctx, key)
	if err != nil {
		t.Fatalf("Get through the rebuilt connector: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("rebuilt connector read different bytes")
	}
}

// BenchmarkShardedGet measures a sharded read over a WAN-shaped link
// (netsim cloud↔edge, heavily time-compressed): all 64 shards of a 4 MiB
// object travel in one pipelined round trip.
func BenchmarkShardedGet(b *testing.B) {
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	SetNetwork(netsim.Testbed(5000))
	defer SetNetwork(nil)
	c := New(srv.Addr(), WithChunkSize(64<<10), WithSites(netsim.SiteEdge, netsim.SiteCloud))
	defer c.Close()
	ctx := context.Background()
	payload := make([]byte, 4<<20) // 64 shards
	key, err := c.PutFrom(ctx, bytes.NewReader(payload))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.GetTo(ctx, key, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
