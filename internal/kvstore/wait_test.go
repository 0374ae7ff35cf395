package kvstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestWaitGetReturnsExistingValueImmediately(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	Set(ctx, cli, "k", []byte("v"))
	start := time.Now()
	val, ok, err := cli.WaitGet(ctx, "k", 5*time.Second)
	if err != nil || !ok || string(val) != "v" {
		t.Fatalf("WaitGet = %q, %v, %v", val, ok, err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("WaitGet on an existing key blocked %v", time.Since(start))
	}
}

func TestWaitGetWakesOnSet(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	type result struct {
		val []byte
		ok  bool
		err error
	}
	got := make(chan result, 1)
	go func() {
		val, ok, err := cli.WaitGet(ctx, "late", 10*time.Second)
		got <- result{val, ok, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the wait park server-side
	start := time.Now()
	if err := Set(ctx, cli, "late", []byte("arrived")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	select {
	case r := <-got:
		if r.err != nil || !r.ok || string(r.val) != "arrived" {
			t.Fatalf("WaitGet = %q, %v, %v", r.val, r.ok, r.err)
		}
		if wake := time.Since(start); wake > time.Second {
			t.Fatalf("wake latency %v", wake)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitGet did not wake on Set")
	}
}

// A wait on a log slot that an append filled and a ranged delete then
// removed can never be satisfied: the server answers it at once, as it
// would a lapsed round. A wait on an unfilled slot still parks.
func TestWaitGetOnCollectedLogSlotReturnsAtOnce(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if _, err := cli.Do(ctx, "LAPPEND", []byte("log:len"), []byte("log:"), []byte("a"), []byte("b"), []byte("c")).Int(); err != nil {
		t.Fatalf("LAPPEND: %v", err)
	}
	if _, err := DelRange(ctx, cli, "log:", 0, 2); err != nil {
		t.Fatalf("DelRange: %v", err)
	}
	start := time.Now()
	if val, ok, err := cli.WaitGet(ctx, "log:1", 10*time.Second); err != nil || ok {
		t.Fatalf("WaitGet on a collected slot = %q, %v, %v; want a miss", val, ok, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("WaitGet on a collected slot blocked %v", d)
	}
	if val, ok, err := cli.WaitGet(ctx, "log:2", 10*time.Second); err != nil || !ok || string(val) != "c" {
		t.Fatalf("WaitGet on a kept slot = %q, %v, %v", val, ok, err)
	}
	for _, key := range []string{"log:3", "other:1"} {
		start := time.Now()
		if _, ok, err := cli.WaitGet(ctx, key, 100*time.Millisecond); err != nil || ok {
			t.Fatalf("WaitGet(%s) = %v, %v; want a lapsed wait", key, ok, err)
		}
		if d := time.Since(start); d < 90*time.Millisecond {
			t.Fatalf("WaitGet(%s) returned after %v, before its timeout", key, d)
		}
	}
}

// Every write command that can fill a key must wake a parked WaitGet.
func TestWaitGetWakesOnEveryWriteCommand(t *testing.T) {
	writes := map[string]func(cli *Client, ctx context.Context, key string) error{
		"mset": func(cli *Client, ctx context.Context, key string) error {
			return MSet(ctx, cli, map[string][]byte{key: []byte("x")})
		},
		"cas": func(cli *Client, ctx context.Context, key string) error {
			_, err := CAS(ctx, cli, key, nil, []byte("x"))
			return err
		},
		"incr": func(cli *Client, ctx context.Context, key string) error {
			_, err := Incr(ctx, cli, key)
			return err
		},
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			_, cli := newPair(t, nil, nil)
			ctx := context.Background()
			key := "wake-" + name
			got := make(chan bool, 1)
			go func() {
				_, ok, err := cli.WaitGet(ctx, key, 10*time.Second)
				got <- ok && err == nil
			}()
			time.Sleep(50 * time.Millisecond)
			if err := write(cli, ctx, key); err != nil {
				t.Fatalf("write: %v", err)
			}
			select {
			case ok := <-got:
				if !ok {
					t.Fatalf("WaitGet woke without a value")
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("WaitGet did not wake on %s", name)
			}
		})
	}
}

func TestWaitGetTimeoutKeepsConnectionClean(t *testing.T) {
	// A wait that hits its server-side timeout gets a complete (null bulk)
	// reply: the multiplexer connection stays healthy, not burned and
	// redialed. The first wait dials the mux connection; every wait after
	// it must keep the dial count flat.
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := cli.Do(ctx, "PING").Err(); err != nil { // establish the one pooled conn
		t.Fatalf("Ping: %v", err)
	}
	var dials uint64
	for i := 0; i < 5; i++ {
		start := time.Now()
		_, ok, err := cli.WaitGet(ctx, "never", 30*time.Millisecond)
		if err != nil {
			t.Fatalf("WaitGet %d: %v", i, err)
		}
		if ok {
			t.Fatalf("WaitGet %d found a value for a missing key", i)
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("WaitGet %d blocked %v past its timeout", i, time.Since(start))
		}
		if i == 0 {
			dials = cli.Dials() // pooled conn + the mux conn
		}
	}
	if got := cli.Dials(); got != dials {
		t.Fatalf("dials rose from %d to %d across timed-out waits", dials, got)
	}
	// And the pooled connection still works for ordinary traffic.
	if err := Set(ctx, cli, "after", []byte("ok")); err != nil {
		t.Fatalf("Set after timeouts: %v", err)
	}
	if got := cli.Dials(); got != dials {
		t.Fatalf("post-timeout Set redialed (%d -> %d)", dials, got)
	}
}

func TestWaitGetContextCancellation(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := cli.WaitGet(ctx, "never", 30*time.Second)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("WaitGet after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled WaitGet did not return")
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	// Server.Close while WAITGETs are outstanding must hang up the blocked
	// clients with an error — not deadlock Close, not strand the waiters.
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx := context.Background()
	const waiters = 3
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli := NewClient(srv.Addr())
			defer cli.Close()
			_, _, err := cli.WaitGet(ctx, fmt.Sprintf("blocked-%d", i), 30*time.Second)
			errs <- err
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // park all waiters server-side
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked behind blocked waiters")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("a blocked WaitGet returned success after server Close")
		}
	}
}

func TestWaitPrefixWakesOnPrefixWrite(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	// Advance the mutation sequence past zero, then seed: after=0 is the
	// defined seed case and returns the current sequence without waiting.
	if err := Set(ctx, cli, "boot", []byte("x")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	start := time.Now()
	seq, err := cli.WaitPrefix(ctx, "log:", 0, 10*time.Second)
	if err != nil {
		t.Fatalf("seed WaitPrefix: %v", err)
	}
	if seq == 0 {
		t.Fatal("seed returned sequence 0 after a mutation")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("seed WaitPrefix blocked %v; after=0 must return immediately", time.Since(start))
	}
	got := make(chan uint64, 1)
	go func() {
		s, err := cli.WaitPrefix(ctx, "log:", seq, 10*time.Second)
		if err == nil {
			got <- s
		}
	}()
	time.Sleep(50 * time.Millisecond)
	// A write outside the prefix must not wake the watch...
	if err := Set(ctx, cli, "other:1", []byte("x")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	select {
	case s := <-got:
		t.Fatalf("WaitPrefix woke (seq %d) on an unrelated write", s)
	case <-time.After(150 * time.Millisecond):
	}
	// ...but one under it must, with a sequence past the watched one.
	if err := Set(ctx, cli, "log:1", []byte("x")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	select {
	case s := <-got:
		if s <= seq {
			t.Fatalf("woke with sequence %d, want > %d", s, seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitPrefix did not wake on a prefix write")
	}
}

func TestWaitPrefixMissedWriteFiresImmediately(t *testing.T) {
	// A matching write landing between the caller's scan and its wait must
	// fire the wait immediately — the recent-writes ring closes the race.
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := Set(ctx, cli, "boot", []byte("x")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	seq, err := cli.WaitPrefix(ctx, "log:", 0, time.Second)
	if err != nil {
		t.Fatalf("seed WaitPrefix: %v", err)
	}
	if err := Set(ctx, cli, "log:racy", []byte("x")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	start := time.Now()
	s, err := cli.WaitPrefix(ctx, "log:", seq, 10*time.Second)
	if err != nil {
		t.Fatalf("WaitPrefix: %v", err)
	}
	if s <= seq {
		t.Fatalf("sequence did not advance past %d", seq)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("missed write took %v to fire", time.Since(start))
	}
}

func TestWaitPrefixWakesOnRangedDelete(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		Set(ctx, cli, fmt.Sprintf("log:%d", i), []byte("e"))
	}
	seq, err := cli.WaitPrefix(ctx, "log:", 0, time.Second)
	if err != nil {
		t.Fatalf("seed WaitPrefix: %v", err)
	}
	got := make(chan struct{}, 1)
	go func() {
		if _, err := cli.WaitPrefix(ctx, "log:", seq, 10*time.Second); err == nil {
			got <- struct{}{}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := DelRange(ctx, cli, "log:", 0, 3); err != nil {
		t.Fatalf("DelRange: %v", err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitPrefix did not wake on DELRANGE under its prefix")
	}
}

func TestWaitCommandsLeaveAOFUntouched(t *testing.T) {
	// Blocking waits are pure reads: they must append nothing to the AOF,
	// and a log written alongside waits must replay identically.
	aof := filepath.Join(t.TempDir(), "store.aof")
	srv, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	cli := NewClient(srv.Addr())
	ctx := context.Background()
	Set(ctx, cli, "k", []byte("v"))
	stat, err := os.Stat(aof)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	before := stat.Size()
	if _, _, err := cli.WaitGet(ctx, "k", time.Second); err != nil {
		t.Fatalf("WaitGet: %v", err)
	}
	if _, ok, err := cli.WaitGet(ctx, "missing", 20*time.Millisecond); err != nil || ok {
		t.Fatalf("timed-out WaitGet = %v, %v", ok, err)
	}
	if _, err := cli.WaitPrefix(ctx, "k", 0, 20*time.Millisecond); err != nil {
		t.Fatalf("WaitPrefix: %v", err)
	}
	stat, err = os.Stat(aof)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if stat.Size() != before {
		t.Fatalf("AOF grew from %d to %d bytes across wait commands", before, stat.Size())
	}
	cli.Close()
	srv.Close()

	srv2, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("replay NewServer: %v", err)
	}
	defer srv2.Close()
	cli2 := NewClient(srv2.Addr())
	defer cli2.Close()
	if v, ok, err := Get(ctx, cli2, "k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("replayed Get = %q, %v, %v", v, ok, err)
	}
}

func TestWaitGetManyWaitersAllWake(t *testing.T) {
	srv, _ := newPair(t, nil, nil)
	ctx := context.Background()
	const waiters = 6
	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := NewClient(srv.Addr())
			defer cli.Close()
			val, ok, err := cli.WaitGet(ctx, "shared", 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if !ok || string(val) != "fan" {
				errs <- fmt.Errorf("WaitGet = %q, %v", val, ok)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	writer := NewClient(srv.Addr())
	defer writer.Close()
	if err := Set(ctx, writer, "shared", []byte("fan")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
