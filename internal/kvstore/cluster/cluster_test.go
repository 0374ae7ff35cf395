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
	shards, err := ParseSpec("a:1|b:2, c:3")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(shards) != 2 || len(shards[0]) != 2 || len(shards[1]) != 1 {
		t.Fatalf("ParseSpec = %v", shards)
	}
	if shards[0][0] != "a:1" || shards[0][1] != "b:2" || shards[1][0] != "c:3" {
		t.Fatalf("ParseSpec = %v", shards)
	}
	if _, err := ParseSpec("a:1,,b:2"); err == nil {
		t.Fatal("ParseSpec accepted an empty shard")
	}
}

func TestPlacementKey(t *testing.T) {
	for key, want := range map[string]string{
		"ps:orders:e:7":    "ps:orders",
		"ps:orders:head":   "ps:orders",
		"ps:orders:e:":     "ps:orders",
		"ps:orders":        "ps:orders",
		"plain":            "plain",
		"one:colon":        "one:colon",
		"ps:t1:x vs ps:t2": "ps:t1",
	} {
		if got := placementKey(key); got != want {
			t.Errorf("placementKey(%q) = %q, want %q", key, got, want)
		}
	}
}

// TestPlacementDeterministic: two clients with the same spec agree on
// every key's shard, and all of one topic's keys land together.
func TestPlacementDeterministic(t *testing.T) {
	spec := "a:1|b:2,c:3,d:4"
	sc1, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sc1.Close()
	sc2, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sc2.Close()
	hits := make(map[*shard]int)
	for i := 0; i < 100; i++ {
		topic := fmt.Sprintf("ps:topic%d", i)
		sh := sc1.shardFor(topic + ":e:0")
		if sc1.shardFor(topic+":head") != sh || sc1.shardFor(topic+":e:") != sh {
			t.Fatalf("topic %q keys split across shards", topic)
		}
		if sc1.shards[indexOf(t, sc1, sh)] != sh {
			t.Fatal("shard bookkeeping broken")
		}
		if indexOf(t, sc2, sc2.shardFor(topic+":e:0")) != indexOf(t, sc1, sh) {
			t.Fatalf("clients disagree on placement of %q", topic)
		}
		hits[sh]++
	}
	if len(hits) != 3 {
		t.Fatalf("100 topics used %d of 3 shards", len(hits))
	}
}

func indexOf(t *testing.T, sc *ShardedClient, sh *shard) int {
	t.Helper()
	for i, s := range sc.shards {
		if s == sh {
			return i
		}
	}
	t.Fatal("shard not found")
	return -1
}

func TestShardedOps(t *testing.T) {
	s1, s2 := newServer(t), newServer(t)
	sc, err := New(s1.Addr() + "," + s2.Addr())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sc.Close()
	ctx := context.Background()

	keys := make([]string, 0, 40)
	pairs := make(map[string][]byte)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("ps:t%d:e:0", i)
		keys = append(keys, key)
		if err := kvstore.Set(ctx, sc, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
		pairs[fmt.Sprintf("ps:t%d:meta", i)] = []byte("m")
		keys = append(keys, fmt.Sprintf("ps:t%d:meta", i))
	}
	if err := kvstore.MSet(ctx, sc, pairs); err != nil {
		t.Fatalf("MSet: %v", err)
	}
	vals, err := kvstore.MGet(ctx, sc, keys...)
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	for i, key := range keys {
		if vals[i] == nil {
			t.Fatalf("MGet missed %q", key)
		}
	}
	// Both servers actually hold part of the keyspace.
	n1, err := kvDBSize(ctx, s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	n2, err := kvDBSize(ctx, s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 || n2 == 0 {
		t.Fatalf("keys not spread: %d / %d", n1, n2)
	}
	if n1+n2 != int64(len(keys)) {
		t.Fatalf("key count %d+%d, want %d", n1, n2, len(keys))
	}

	if n, err := kvstore.Incr(ctx, sc, "ps:t0:head"); err != nil || n != 1 {
		t.Fatalf("Incr = %d, %v", n, err)
	}
	if swapped, err := kvstore.CAS(ctx, sc, "ps:t0:e:0", []byte("v0"), []byte("v0'")); err != nil || !swapped {
		t.Fatalf("CAS = %v, %v", swapped, err)
	}
	if n, err := kvstore.DelRange(ctx, sc, "ps:t1:e:", 0, 5); err != nil || n != 1 {
		t.Fatalf("DelRange = %d, %v", n, err)
	}
	if n, err := kvstore.Del(ctx, sc, keys...); err != nil || n != int64(len(keys)-1) {
		t.Fatalf("Del = %d, %v (want %d)", n, err, len(keys)-1)
	}
}

func kvDBSize(ctx context.Context, addr string) (int64, error) {
	c := kvstore.NewClient(addr)
	defer c.Close()
	return c.DBSize(ctx)
}

func TestShardedWaits(t *testing.T) {
	s1, s2 := newServer(t), newServer(t)
	sc, err := New(s1.Addr() + "," + s2.Addr())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sc.Close()
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		v, ok, err := sc.WaitGet(ctx, "ps:w:key", 3*time.Second)
		if err == nil && (!ok || string(v) != "x") {
			err = fmt.Errorf("WaitGet = %q, %v", v, ok)
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := kvstore.Set(ctx, sc, "ps:w:key", []byte("x")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitGet through shard router: %v", err)
	}
}

func TestShardedPipeline(t *testing.T) {
	s1, s2 := newServer(t), newServer(t)
	sc, err := New(s1.Addr() + "," + s2.Addr())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sc.Close()
	ctx := context.Background()

	pipe := sc.Pipeline()
	setRep := pipe.Do("SET", []byte("ps:p:e:0"), []byte("a"))
	incRep := pipe.Do("INCR", []byte("ps:p:head"))
	if err := pipe.Exec(ctx); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if err := setRep.Err(); err != nil {
		t.Fatalf("pipelined Set: %v", err)
	}
	if n, err := incRep.Int(); err != nil || n != 1 {
		t.Fatalf("pipelined Incr = %d, %v", n, err)
	}

	// A batch whose keys place on different shards must be refused,
	// whether the keys are in two commands or in one multi-key command.
	var other string
	for i := 1; ; i++ {
		if other = fmt.Sprintf("ps:q%d:e:0", i); sc.shardFor(other) != sc.shardFor("ps:p:e:0") {
			break
		}
	}
	cross := sc.Pipeline()
	cross.Do("SET", []byte("ps:p:e:1"), []byte("a"))
	cross.Do("SET", []byte(other), []byte("b"))
	err = cross.Exec(ctx)
	if err == nil || !strings.Contains(err.Error(), "spans shards") {
		t.Fatalf("cross-shard pipeline Exec = %v, want spans-shards error", err)
	}
	if err := kvstore.Set(ctx, sc, other, []byte("b")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	for _, name := range []string{"MGET", "DEL"} {
		p := sc.Pipeline()
		rep := p.Do(name, []byte("ps:p:e:0"), []byte(other))
		if err := p.Exec(ctx); err == nil || !strings.Contains(err.Error(), "spans shards") || rep.Err() == nil {
			t.Fatalf("pipelined %s across shards: Exec = %v, reply %v; want spans-shards errors", name, err, rep.Err())
		}
		vals, err := kvstore.MGet(ctx, sc, "ps:p:e:0", other)
		if err != nil || vals[0] == nil || vals[1] == nil {
			t.Fatalf("after pipelined %s across shards: values %q, %v; want both keys kept", name, vals, err)
		}
	}
}

// TestShardedFailover: a shard with a real replicating pair keeps serving
// through the primary's death — the router fails over, promotes, and the
// replicated state is all there.
func TestShardedFailover(t *testing.T) {
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
	sc, err := New(prim.Addr() + "|" + repl.Addr())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer sc.Close()
	ctx := context.Background()

	for i := 0; i < 50; i++ {
		if err := kvstore.Set(ctx, sc, fmt.Sprintf("ps:f:e:%d", i), []byte("v")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if err := prim.Close(); err != nil {
		t.Fatalf("primary Close: %v", err)
	}
	// Reads and writes keep working via the promoted replica.
	v, ok, err := kvstore.Get(ctx, sc, "ps:f:e:49")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after failover = %q, %v, %v", v, ok, err)
	}
	if err := kvstore.Set(ctx, sc, "ps:f:e:50", []byte("post")); err != nil {
		t.Fatalf("Set after failover: %v", err)
	}
	// Pipelines fail over too: the first Exec may fail (reporting the
	// transport error), the retry must land.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		pipe := sc.Pipeline()
		pipe.Do("SET", []byte("ps:f:e:51"), []byte("piped"))
		if lastErr = pipe.Exec(ctx); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("pipeline never recovered after failover: %v", lastErr)
	}
	v, ok, err = kvstore.Get(ctx, sc, "ps:f:e:51")
	if err != nil || !ok || string(v) != "piped" {
		t.Fatalf("piped write lost: %q, %v, %v", v, ok, err)
	}
}
