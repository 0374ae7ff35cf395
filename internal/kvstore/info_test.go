package kvstore

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestInfo smoke-tests the INFO command: after a few commands the dump
// must carry the server-level lines and per-command metrics.
func TestInfo(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := Set(ctx, c, "k", []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if _, _, err := Get(ctx, c, "k"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	raw, _, err := c.Do(ctx, "INFO").Bytes()
	info := string(raw)
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	for _, want := range []string{
		"server.uptime_ns ",
		"server.keys 1",
		"server.commands ",
		"kv.cmd.SET.count 1",
		"kv.cmd.GET.count 1",
		"kv.cmd.SET.ns.p95 ",
		"kv.bytes_in ",
		"kv.bytes_out ",
		"kv.conns 1",
	} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q in:\n%s", want, info)
		}
	}

	// Wrong arity is an error, not a crash.
	if err := c.Do(ctx, "INFO", []byte("x")).Err(); err == nil {
		t.Fatal("INFO with an argument should error")
	}
}

// TestInfoUnknownCommandsShareOneBucket: the command names clients send
// cannot grow the server's registry. Every name the server does not
// answer counts under kv.cmd.unknown, one bucket of at most nine lines
// (two counters and a histogram's seven).
func TestInfoUnknownCommandsShareOneBucket(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	lines := func() int { return strings.Count(srv.Telemetry().Snapshot().Text(), "\n") }
	before := lines()
	for i := 0; i < 100; i++ {
		if err := c.Do(ctx, fmt.Sprintf("NOSUCH%d", i)).Err(); err == nil {
			t.Fatalf("NOSUCH%d: no error reply", i)
		}
	}
	if added := lines() - before; added > 9 {
		t.Fatalf("100 unknown command names added %d metric lines, want at most 9", added)
	}
	if n := srv.Telemetry().Snapshot().Counters["kv.cmd.unknown.count"]; n != 100 {
		t.Fatalf("kv.cmd.unknown.count = %d, want 100", n)
	}
}

// TestInfoWaitersGauge parks a blocking wait and checks it shows up in
// the live-waiters gauge (and its peak survives the wait resolving).
func TestInfoWaitersGauge(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, _, err := c.WaitGet(ctx, "wk", 5*time.Second)
		done <- err
	}()
	// Wait until the waiter is parked server-side.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Telemetry().Gauge("kv.waiters").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := Set(ctx, c, "wk", []byte("x")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitGet: %v", err)
	}
	snap := srv.Telemetry().Snapshot()
	g := snap.Gauges["kv.waiters"]
	if g.Peak < 1 {
		t.Fatalf("kv.waiters peak = %d, want >= 1", g.Peak)
	}
	if snap.Counters["kv.cmd.TWAITGET.count"] == 0 {
		t.Fatal("no wait command recorded")
	}
}
