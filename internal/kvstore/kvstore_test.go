package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"proxystore/internal/netsim"
)

func newPair(t *testing.T, sopts []ServerOption, copts []ClientOption) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", sopts...)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := NewClient(srv.Addr(), copts...)
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestPing(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	if err := cli.Do(context.Background(), "PING").Err(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestSetGet(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := Set(ctx, cli, "k", []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, ok, err := Get(ctx, cli, "k")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v, %v", got, ok, err)
	}
	if string(got) != "v" {
		t.Fatalf("Get = %q", got)
	}
}

// Set does not retain its value: a caller that reuses the buffer as soon
// as Set returns (redisc's pooled chunk buffers do) must not change what
// the server stored. Both sizes stay inside and go past the client's
// write buffer.
func TestSetValueReusedAfterReturn(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	for _, size := range []int{1 << 10, 1 << 20} {
		buf := bytes.Repeat([]byte{0xAB}, size)
		key := fmt.Sprintf("reuse-%d", size)
		if err := Set(ctx, cli, key, buf); err != nil {
			t.Fatalf("Set: %v", err)
		}
		for i := range buf {
			buf[i] = 0xCD
		}
		got, ok, err := Get(ctx, cli, key)
		if err != nil || !ok {
			t.Fatalf("Get = %v, %v", ok, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, size)) {
			t.Fatalf("size %d: stored value changed after the caller reused its buffer", size)
		}
	}
}

func TestGetMissing(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	_, ok, err := Get(context.Background(), cli, "ghost")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if ok {
		t.Fatal("Get found a missing key")
	}
}

func TestBinarySafety(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	val := []byte("embedded\r\nCRLF\x00and nulls\xff")
	if err := Set(ctx, cli, "bin", val); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, _, err := Get(ctx, cli, "bin")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("binary value corrupted: %q", got)
	}
}

func TestDelAndExists(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	Set(ctx, cli, "a", []byte("1"))
	Set(ctx, cli, "b", []byte("2"))
	n, err := Exists(ctx, cli, "a", "b", "c")
	if err != nil || n != 2 {
		t.Fatalf("Exists = %d, %v; want 2", n, err)
	}
	deleted, err := Del(ctx, cli, "a", "c")
	if err != nil || deleted != 1 {
		t.Fatalf("Del = %d, %v; want 1", deleted, err)
	}
	n, _ = Exists(ctx, cli, "a")
	if n != 0 {
		t.Fatal("key a survived Del")
	}
}

func TestMGetMSet(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := MSet(ctx, cli, map[string][]byte{"x": []byte("1"), "y": []byte("2")}); err != nil {
		t.Fatalf("MSet: %v", err)
	}
	vals, err := MGet(ctx, cli, "x", "ghost", "y")
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	if string(vals[0]) != "1" || vals[1] != nil || string(vals[2]) != "2" {
		t.Fatalf("MGet = %q", vals)
	}
}

func TestIncr(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	n, err := Incr(ctx, cli, "ctr")
	if err != nil || n != 1 {
		t.Fatalf("Incr new key = %d, %v; want 1", n, err)
	}
	n, err = Incr(ctx, cli, "ctr")
	if err != nil || n != 2 {
		t.Fatalf("second Incr = %d, %v; want 2", n, err)
	}
	if err := Set(ctx, cli, "str", []byte("not a number")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if _, err := Incr(ctx, cli, "str"); err == nil {
		t.Fatal("Incr of non-integer value succeeded")
	}
}

func TestIncrConcurrent(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := Incr(ctx, cli, "ctr"); err != nil {
					t.Errorf("Incr: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, ok, err := Get(ctx, cli, "ctr")
	if err != nil || !ok {
		t.Fatalf("Get: %v ok=%v", err, ok)
	}
	if string(v) != fmt.Sprint(goroutines*per) {
		t.Fatalf("counter = %s, want %d", v, goroutines*per)
	}
}

func TestCAS(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	// Empty old = SETNX: first claim wins, second loses.
	ok, err := CAS(ctx, cli, "claim", nil, []byte("alice"))
	if err != nil || !ok {
		t.Fatalf("CAS on absent key = %v, %v; want true", ok, err)
	}
	ok, err = CAS(ctx, cli, "claim", nil, []byte("bob"))
	if err != nil || ok {
		t.Fatalf("second SETNX-CAS = %v, %v; want false", ok, err)
	}
	// Swap requires the exact current value.
	ok, err = CAS(ctx, cli, "claim", []byte("carol"), []byte("bob"))
	if err != nil || ok {
		t.Fatalf("CAS with stale old = %v, %v; want false", ok, err)
	}
	ok, err = CAS(ctx, cli, "claim", []byte("alice"), []byte("bob"))
	if err != nil || !ok {
		t.Fatalf("CAS with matching old = %v, %v; want true", ok, err)
	}
	got, _, err := Get(ctx, cli, "claim")
	if err != nil || string(got) != "bob" {
		t.Fatalf("value after CAS = %q, %v", got, err)
	}
	// CAS with old set but key missing must fail.
	ok, err = CAS(ctx, cli, "ghost", []byte("x"), []byte("y"))
	if err != nil || ok {
		t.Fatalf("CAS on missing key with old = %v, %v; want false", ok, err)
	}
}

func TestCASConcurrentSingleWinner(t *testing.T) {
	srv, _ := newPair(t, nil, nil)
	ctx := context.Background()
	const contenders = 8
	var wg sync.WaitGroup
	wins := make(chan int, contenders)
	for g := 0; g < contenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := NewClient(srv.Addr())
			defer cli.Close()
			ok, err := CAS(ctx, cli, "lease", nil, []byte(fmt.Sprintf("holder-%d", g)))
			if err != nil {
				t.Errorf("CAS: %v", err)
				return
			}
			if ok {
				wins <- g
			}
		}(g)
	}
	wg.Wait()
	close(wins)
	var winners []int
	for g := range wins {
		winners = append(winners, g)
	}
	if len(winners) != 1 {
		t.Fatalf("CAS claim had %d winners (%v), want exactly 1", len(winners), winners)
	}
}

func TestKeysListsAPrefixSorted(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	for _, k := range []string{"f:b", "f:a", "g:a", "f", "f:c"} {
		Set(ctx, cli, k, []byte("v"))
	}
	keys, err := Keys(ctx, cli, "f:")
	if err != nil || !reflect.DeepEqual(keys, []string{"f:a", "f:b", "f:c"}) {
		t.Fatalf("Keys(f:) = %q, %v; want [f:a f:b f:c]", keys, err)
	}
	if keys, err := Keys(ctx, cli, "none:"); err != nil || len(keys) != 0 {
		t.Fatalf("Keys(none:) = %q, %v; want none", keys, err)
	}
}

func TestDelRange(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		Set(ctx, cli, fmt.Sprintf("log:%d", i), []byte("e"))
	}
	Set(ctx, cli, "log:other", []byte("kept")) // non-numeric suffix untouched
	n, err := DelRange(ctx, cli, "log:", 2, 7)
	if err != nil || n != 5 {
		t.Fatalf("DelRange = %d, %v; want 5", n, err)
	}
	for i := 0; i < 10; i++ {
		want := int64(1)
		if i >= 2 && i < 7 {
			want = 0
		}
		if got, _ := Exists(ctx, cli, fmt.Sprintf("log:%d", i)); got != want {
			t.Fatalf("log:%d exists = %d, want %d", i, got, want)
		}
	}
	if got, _ := Exists(ctx, cli, "log:other"); got != 1 {
		t.Fatal("DelRange deleted a key outside the numeric range")
	}
	// Empty and inverted ranges are no-ops; oversized ranges are rejected.
	if n, err := DelRange(ctx, cli, "log:", 7, 7); err != nil || n != 0 {
		t.Fatalf("empty DelRange = %d, %v", n, err)
	}
	if n, err := DelRange(ctx, cli, "log:", 9, 2); err != nil || n != 0 {
		t.Fatalf("inverted DelRange = %d, %v", n, err)
	}
	if _, err := DelRange(ctx, cli, "log:", 0, 1<<30); err == nil {
		t.Fatal("oversized DelRange did not error")
	}
}

func TestNewCommandsPersistAcrossRestart(t *testing.T) {
	aof := filepath.Join(t.TempDir(), "store.aof")
	srv, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	cli := NewClient(srv.Addr())
	ctx := context.Background()
	for i := 0; i < 42; i++ {
		if _, err := Incr(ctx, cli, "ctr"); err != nil {
			t.Fatalf("Incr: %v", err)
		}
	}
	if _, err := CAS(ctx, cli, "claim", nil, []byte("held")); err != nil {
		t.Fatalf("CAS: %v", err)
	}
	for i := 0; i < 4; i++ {
		Set(ctx, cli, fmt.Sprintf("log:%d", i), []byte("e"))
	}
	if _, err := DelRange(ctx, cli, "log:", 0, 3); err != nil {
		t.Fatalf("DelRange: %v", err)
	}
	cli.Close()
	srv.Close()

	srv2, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("restart NewServer: %v", err)
	}
	defer srv2.Close()
	cli2 := NewClient(srv2.Addr())
	defer cli2.Close()
	if v, _, _ := Get(ctx, cli2, "ctr"); string(v) != "42" {
		t.Fatalf("counter after restart = %q, want 42", v)
	}
	if v, _, _ := Get(ctx, cli2, "claim"); string(v) != "held" {
		t.Fatalf("claim after restart = %q, want held", v)
	}
	if n, _ := Exists(ctx, cli2, "log:0", "log:1", "log:2", "log:3"); n != 1 {
		t.Fatalf("%d log keys survived restart, want 1 (only log:3)", n)
	}
}

func TestDBSizeAndFlush(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		Set(ctx, cli, fmt.Sprintf("k%d", i), []byte("v"))
	}
	n, err := cli.DBSize(ctx)
	if err != nil || n != 5 {
		t.Fatalf("DBSize = %d, %v; want 5", n, err)
	}
	if err := cli.Do(ctx, "FLUSHALL").Err(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	n, _ = cli.DBSize(ctx)
	if n != 0 {
		t.Fatalf("DBSize after flush = %d", n)
	}
}

func TestLargeValue(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	val := make([]byte, 4<<20)
	for i := range val {
		val[i] = byte(i)
	}
	if err := Set(ctx, cli, "big", val); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, _, err := Get(ctx, cli, "big")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, val) {
		t.Fatal("large value corrupted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := newPair(t, nil, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := NewClient(srv.Addr())
			defer cli.Close()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := Set(ctx, cli, key, []byte(key)); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				got, ok, err := Get(ctx, cli, key)
				if err != nil || !ok || string(got) != key {
					t.Errorf("Get(%s) = %q, %v, %v", key, got, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPersistenceAcrossRestart(t *testing.T) {
	aof := filepath.Join(t.TempDir(), "store.aof")
	srv, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	cli := NewClient(srv.Addr())
	ctx := context.Background()
	Set(ctx, cli, "durable", []byte("survives"))
	Set(ctx, cli, "doomed", []byte("deleted"))
	Del(ctx, cli, "doomed")
	cli.Close()
	srv.Close()

	srv2, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("restart NewServer: %v", err)
	}
	defer srv2.Close()
	cli2 := NewClient(srv2.Addr())
	defer cli2.Close()
	got, ok, err := Get(ctx, cli2, "durable")
	if err != nil || !ok || string(got) != "survives" {
		t.Fatalf("Get after restart = %q, %v, %v", got, ok, err)
	}
	if n, _ := Exists(ctx, cli2, "doomed"); n != 0 {
		t.Fatal("deleted key resurrected after restart")
	}
}

func TestNetworkModelDelaysRequests(t *testing.T) {
	n := netsim.New(1)
	n.AddSite("client", true)
	n.AddSite("server", true)
	if err := n.SetLink("client", "server", netsim.Link{Latency: 15 * time.Millisecond}); err != nil {
		t.Fatalf("SetLink: %v", err)
	}
	_, cli := newPair(t, nil, []ClientOption{WithClientNetwork(n, "client", "server")})
	start := time.Now()
	if err := cli.Do(context.Background(), "PING").Err(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("Ping took %v, want >= 30ms (two one-way delays)", elapsed)
	}
}

func TestServerCountsCommands(t *testing.T) {
	srv, cli := newPair(t, nil, nil)
	ctx := context.Background()
	cli.Do(ctx, "PING")
	Set(ctx, cli, "k", []byte("v"))
	Get(ctx, cli, "k")
	if got := srv.Commands(); got != 3 {
		t.Fatalf("Commands = %d, want 3", got)
	}
}

func TestUnknownCommandReturnsError(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	if err := cli.Do(context.Background(), "NOSUCHCMD").Err(); err == nil {
		t.Fatal("unknown command did not error")
	}
}

// validArgs holds well-formed arguments for every command table row.
var validArgs = map[string][]string{
	"PING":     {},
	"SET":      {"k", "v"},
	"PSETEX":   {"k", "60000", "v"},
	"PEXPIRE":  {"k", "60000"},
	"GET":      {"k"},
	"DEL":      {"k"},
	"EXISTS":   {"k"},
	"MGET":     {"k", "k2"},
	"MSET":     {"k", "v", "k2", "v2"},
	"LAPPEND":  {"len", "s:", "x"},
	"LREAD":    {"len", "0", "8", "1", "s:", "k"},
	"INCR":     {"n"},
	"CAS":      {"c", "", "v"},
	"DELRANGE": {"s:", "0", "4"},
	"KEYS":     {"k"},
	"DBSIZE":   {},
	"INFO":     {},
	"FLUSHALL": {},
	"PROMOTE":  {},
}

// rowArgs returns validArgs' arguments for a row, failing the test when a
// row has none.
func rowArgs(t *testing.T, c *Command) [][]byte {
	t.Helper()
	a, ok := validArgs[c.Name]
	if !ok {
		t.Fatalf("no valid arguments for %s: add them to validArgs", c.Name)
	}
	if err := c.CheckArgs(keysArgs(a)); err != nil {
		t.Fatalf("%s %q: %v", c.Name, a, err)
	}
	return keysArgs(a)
}

// TestEveryCommandRowIsServed: each row of the command table is answered
// without error for well-formed arguments, and refused with the arity
// error for one argument too few.
func TestEveryCommandRowIsServed(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	for i := range commandTable {
		c := &commandTable[i]
		if err := cli.Do(ctx, c.Name, rowArgs(t, c)...).Err(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if min := max(c.Arity, -c.Arity) - 1; min > 0 {
			err := cli.Do(ctx, c.Name, make([][]byte, min-1)...).Err()
			if err == nil || !strings.Contains(err.Error(), "wrong number of arguments") {
				t.Errorf("%s with %d args = %v, want an arity error", c.Name, min-1, err)
			}
		}
	}
}

func TestPropertyRoundTripArbitraryValues(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	i := 0
	f := func(val []byte) bool {
		i++
		key := fmt.Sprintf("prop-%d", i)
		if err := Set(ctx, cli, key, val); err != nil {
			return false
		}
		got, ok, err := Get(ctx, cli, key)
		if err != nil || !ok {
			return false
		}
		return bytes.Equal(got, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
