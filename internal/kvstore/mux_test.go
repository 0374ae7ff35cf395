package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Many concurrent blocking waits on one client must share the single
// multiplexer connection: the dial count stays O(1) no matter how many
// waits are parked.
func TestManyWaitsShareOneMuxConnection(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	const waiters = 16
	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, ok, err := cli.WaitGet(ctx, fmt.Sprintf("mux-%d", i), 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if !ok || string(val) != fmt.Sprintf("v%d", i) {
				errs <- fmt.Errorf("wait %d = %q, %v", i, val, ok)
			}
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // park all waits on the mux conn
	if got := cli.Dials(); got != 1 {
		t.Fatalf("%d parked waits dialed %d connections, want 1 (the mux conn)", waiters, got)
	}
	for i := 0; i < waiters; i++ {
		if err := Set(ctx, cli, fmt.Sprintf("mux-%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Mixed tagged waits — WAITGET and WAITPREFIX — interleave on the one mux
// connection and resolve out of order without crosstalk.
func TestMuxInterleavesGetAndPrefixWaits(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := Set(ctx, cli, "boot", []byte("x")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	seq, err := cli.WaitPrefix(ctx, "log:", 0, time.Second)
	if err != nil {
		t.Fatalf("seed WaitPrefix: %v", err)
	}

	type res struct {
		what string
		err  error
	}
	got := make(chan res, 2)
	go func() {
		val, ok, err := cli.WaitGet(ctx, "slow", 10*time.Second)
		if err == nil && (!ok || string(val) != "later") {
			err = fmt.Errorf("WaitGet = %q, %v", val, ok)
		}
		got <- res{"get", err}
	}()
	go func() {
		s, err := cli.WaitPrefix(ctx, "log:", seq, 10*time.Second)
		if err == nil && s <= seq {
			err = fmt.Errorf("sequence did not advance past %d", seq)
		}
		got <- res{"prefix", err}
	}()
	time.Sleep(100 * time.Millisecond)
	// Resolve the prefix wait first, then the get: replies come back in
	// resolution order, not submission order.
	if err := Set(ctx, cli, "log:1", []byte("x")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	first := <-got
	if first.err != nil {
		t.Fatalf("%s wait: %v", first.what, first.err)
	}
	if first.what != "prefix" {
		t.Fatalf("first resolved wait = %s, want prefix", first.what)
	}
	if err := Set(ctx, cli, "slow", []byte("later")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	second := <-got
	if second.err != nil {
		t.Fatalf("%s wait: %v", second.what, second.err)
	}
}

// A context-cancelled wait abandons its tag; the shared connection must
// stay healthy for the other parked waits, and the late reply for the
// abandoned tag must be dropped silently.
func TestMuxCancelledWaitLeavesConnectionHealthy(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := cli.Do(ctx, "PING").Err(); err != nil { // establish the pooled conn up front
		t.Fatalf("Ping: %v", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancelled := make(chan error, 1)
	go func() {
		_, _, err := cli.WaitGet(cctx, "abandoned", 10*time.Second)
		cancelled <- err
	}()
	kept := make(chan error, 1)
	go func() {
		val, ok, err := cli.WaitGet(ctx, "kept", 10*time.Second)
		if err == nil && (!ok || string(val) != "v") {
			err = fmt.Errorf("WaitGet = %q, %v", val, ok)
		}
		kept <- err
	}()
	time.Sleep(100 * time.Millisecond)
	dials := cli.Dials()
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait = %v, want context.Canceled", err)
	}
	// The surviving wait resolves on the same connection.
	if err := Set(ctx, cli, "kept", []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := <-kept; err != nil {
		t.Fatalf("surviving wait: %v", err)
	}
	// Fill the abandoned key too: its tagged reply arrives with a tag
	// nobody claims and must not disturb the next wait.
	if err := Set(ctx, cli, "abandoned", []byte("late")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if val, ok, err := cli.WaitGet(ctx, "kept", time.Second); err != nil || !ok || string(val) != "v" {
		t.Fatalf("post-late-reply WaitGet = %q, %v, %v", val, ok, err)
	}
	if got := cli.Dials(); got != dials {
		t.Fatalf("cancellation churned connections (%d -> %d dials)", dials, got)
	}
}

// A server restart mid-wait fails the parked waits with a transport error
// (not a hang); re-issued waits against the restarted server must park on
// a fresh mux connection and resolve.
func TestMuxWaitsResumeAcrossServerRestart(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	cli := NewClient(srv.Addr())
	t.Cleanup(func() { cli.Close() })
	ctx := context.Background()
	parked := make(chan error, 1)
	go func() {
		_, _, err := cli.WaitGet(ctx, "k", 10*time.Second)
		parked <- err
	}()
	time.Sleep(100 * time.Millisecond)
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("wait across server death returned success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait did not fail when the server died")
	}
	srv2, err := NewServer(addr)
	if err != nil {
		t.Fatalf("restart NewServer: %v", err)
	}
	t.Cleanup(func() { srv2.Close() })
	resumed := make(chan error, 1)
	go func() {
		val, ok, err := cli.WaitGet(ctx, "k", 10*time.Second)
		if err == nil && (!ok || string(val) != "back") {
			err = fmt.Errorf("WaitGet = %q, %v", val, ok)
		}
		resumed <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if err := Set(ctx, cli, "k", []byte("back")); err != nil {
		t.Fatalf("Set after restart: %v", err)
	}
	if err := <-resumed; err != nil {
		t.Fatalf("re-issued wait after restart: %v", err)
	}
}
