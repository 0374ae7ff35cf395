package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proxystore/internal/kvstore"
)

func newServer(t *testing.T, opts ...kvstore.ServerOption) *kvstore.Server {
	t.Helper()
	srv, err := kvstore.NewServer("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestIsSpec(t *testing.T) {
	for addr, want := range map[string]bool{
		"127.0.0.1:6379":                 false,
		"a:1,b:2":                        true,
		"a:1|b:2":                        true,
		"a:1|b:2,c:3":                    true,
		"[::1]:6379":                     false,
		"kv.internal:6379":               false,
		"kv1.internal:6379,kv2.internal": true,
	} {
		if got := IsSpec(addr); got != want {
			t.Errorf("IsSpec(%q) = %v, want %v", addr, got, want)
		}
	}
}

func TestParseSpec(t *testing.T) {
	addrs, err := ParseSpec("a:1| b:2")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(addrs) != 2 || addrs[0] != "a:1" || addrs[1] != "b:2" {
		t.Fatalf("ParseSpec = %v", addrs)
	}
	for _, spec := range []string{"a:1||b:2", "a:1,b:2"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Fatalf("ParseSpec accepted %q", spec)
		}
	}
}

// TestFailover: a real replicating pair keeps serving through the
// primary's death — the client fails over, promotes, and the replicated
// state is all there.
func TestFailover(t *testing.T) {
	dir := t.TempDir()
	prim := newServer(t, kvstore.WithPersistence(filepath.Join(dir, "p.aof")))
	repl := newServer(t,
		kvstore.WithPersistence(filepath.Join(dir, "r.aof")),
		kvstore.WithReplicaOf(prim.Addr()))
	// Replication is asynchronous: only a replica attached to the primary
	// is drained on its Close, so the pair must be established before any
	// write the test later expects on the survivor.
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(prim.InfoText(), "server.replicas 1\n"); {
		if time.Now().After(deadline) {
			t.Fatal("replica never attached to the primary")
		}
		time.Sleep(2 * time.Millisecond)
	}
	fc, err := New(prim.Addr() + "|" + repl.Addr())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer fc.Close()
	ctx := context.Background()

	for i := 0; i < 50; i++ {
		if err := kvstore.Set(ctx, fc, fmt.Sprintf("ps:f:e:%d", i), []byte("v")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if err := prim.Close(); err != nil {
		t.Fatalf("primary Close: %v", err)
	}
	// Reads and writes keep working via the promoted replica.
	v, ok, err := kvstore.Get(ctx, fc, "ps:f:e:49")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after failover = %q, %v, %v", v, ok, err)
	}
	if err := kvstore.Set(ctx, fc, "ps:f:e:50", []byte("post")); err != nil {
		t.Fatalf("Set after failover: %v", err)
	}
	// Pipelines fail over too: the first Exec may fail (reporting the
	// transport error), the retry must land.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		pipe := fc.Pipeline()
		pipe.Do("SET", []byte("ps:f:e:51"), []byte("piped"))
		if lastErr = pipe.Exec(ctx); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("pipeline never recovered after failover: %v", lastErr)
	}
	v, ok, err = kvstore.Get(ctx, fc, "ps:f:e:51")
	if err != nil || !ok || string(v) != "piped" {
		t.Fatalf("piped write lost: %q, %v, %v", v, ok, err)
	}
}
