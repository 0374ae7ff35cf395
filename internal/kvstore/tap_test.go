package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// tapLog collects tapped operations for assertions.
type tapLog struct {
	mu  sync.Mutex
	ops []tapOp
}

type tapOp struct {
	name     string
	args     [][]byte
	reply    [][]byte
	err      error
	blocking bool
}

func (l *tapLog) fn(name string, args [][]byte, blocking bool) TapDone {
	return func(reply [][]byte, err error) {
		l.mu.Lock()
		l.ops = append(l.ops, tapOp{name: name, args: args, reply: reply, err: err, blocking: blocking})
		l.mu.Unlock()
	}
}

func (l *tapLog) snapshot() []tapOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]tapOp(nil), l.ops...)
}

func (l *tapLog) find(t *testing.T, name string) tapOp {
	t.Helper()
	for _, op := range l.snapshot() {
		if op.name == name {
			return op
		}
	}
	t.Fatalf("no %s operation tapped; got %+v", name, l.snapshot())
	return tapOp{}
}

// TestTapRecordsOperations drives one of every command through a TapKV
// and checks the recorded name, args, normalized reply, and blocking
// flag — the exact material the wiretap recorder persists.
func TestTapRecordsOperations(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	log := &tapLog{}
	kv := NewTap(cli, log.fn)
	ctx := context.Background()

	if err := Set(ctx, kv, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := Get(ctx, kv, "k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, err := Get(ctx, kv, "missing"); err != nil || ok {
		t.Fatalf("Get missing = %v, %v", ok, err)
	}
	if n, err := Incr(ctx, kv, "ctr"); err != nil || n != 1 {
		t.Fatalf("Incr = %d, %v", n, err)
	}
	if won, err := CAS(ctx, kv, "cas", nil, []byte("x")); err != nil || !won {
		t.Fatalf("CAS = %v, %v", won, err)
	}
	if _, ok, err := kv.WaitGet(ctx, "never", 20*time.Millisecond); err != nil || ok {
		t.Fatalf("WaitGet = %v, %v", ok, err)
	}

	ops := log.snapshot()
	if len(ops) != 6 {
		t.Fatalf("tapped %d ops, want 6: %+v", len(ops), ops)
	}
	set := log.find(t, "SET")
	if len(set.args) != 2 || string(set.args[0]) != "k" || string(set.args[1]) != "v" || set.err != nil {
		t.Fatalf("SET tapped as %+v", set)
	}
	hit := ops[1]
	if hit.name != "GET" || len(hit.reply) != 2 || string(hit.reply[0]) != "b" || string(hit.reply[1]) != "v" {
		t.Fatalf("GET hit reply = %q", hit.reply)
	}
	miss := ops[2]
	if miss.name != "GET" || len(miss.reply) != 1 || string(miss.reply[0]) != "n" {
		t.Fatalf("GET miss reply = %q", miss.reply)
	}
	if incr := log.find(t, "INCR"); string(incr.reply[0]) != "i1" {
		t.Fatalf("INCR reply = %q", incr.reply)
	}
	cas := log.find(t, "CAS")
	if string(cas.reply[0]) != "i1" || len(cas.args) != 3 || len(cas.args[1]) != 0 {
		t.Fatalf("CAS tapped as %+v", cas)
	}
	wg := log.find(t, "WAITGET")
	if !wg.blocking {
		t.Fatal("WAITGET not marked blocking")
	}
	if want := fmt.Sprint(int64(20 * time.Millisecond)); string(wg.args[1]) != want {
		t.Fatalf("WAITGET timeout arg = %q, want %q (nanoseconds)", wg.args[1], want)
	}
	if string(wg.reply[0]) != "n" {
		t.Fatalf("timed-out WAITGET reply = %q, want null", wg.reply)
	}
}

// TestTapRecordsDoUnderCommandName: a Do is reported under its command's
// name with its wire args. A status reply (SET, MSET, PING) records no
// element, and an array reply (MGET, LREAD) records its elements with no
// "a<n>" header, the shapes the committed traces hold.
func TestTapRecordsDoUnderCommandName(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	log := &tapLog{}
	kv := NewTap(cli, log.fn)
	ctx := context.Background()
	cases := []struct {
		name  string
		args  []string
		reply []string
	}{
		{"SET", []string{"k", "v"}, nil},
		{"MSET", []string{"k2", "v2", "k3", "v3"}, nil},
		{"PING", nil, nil},
		{"MGET", []string{"k", "missing"}, []string{"b", "v", "n"}},
		{"LAPPEND", []string{"len", "s:", "x"}, []string{"i1"}},
		{"LREAD", []string{"len", "0", "8", "1", "s:", "k"}, []string{"i1", "b", "v", "a1", "b", "x"}},
	}
	for _, c := range cases {
		if err := kv.Do(ctx, c.name, keysArgs(c.args)...).Err(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	ops := log.snapshot()
	if len(ops) != len(cases) {
		t.Fatalf("tapped %d ops, want %d: %+v", len(ops), len(cases), ops)
	}
	for i, c := range cases {
		op := ops[i]
		if op.name != c.name || fmt.Sprintf("%q", op.args) != fmt.Sprintf("%q", keysArgs(c.args)) {
			t.Errorf("op %d tapped as %s %q, want %s %q", i, op.name, op.args, c.name, c.args)
		}
		if fmt.Sprintf("%q", op.reply) != fmt.Sprintf("%q", keysArgs(c.reply)) {
			t.Errorf("%s reply = %q, want %q", c.name, op.reply, c.reply)
		}
	}
}

// TestTapRecordsPipeline: a batched round trip is tapped as one PIPELINE
// operation carrying every queued command and every per-command reply —
// including per-command errors, which surface as "e..." reply elements
// without failing the batch.
func TestTapRecordsPipeline(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	log := &tapLog{}
	kv := NewTap(cli, log.fn)
	ctx := context.Background()

	p := kv.Pipeline()
	p.Do("SET", []byte("pk"), []byte("pv"))
	p.Do("GET", []byte("pk"))
	p.Do("BOGUS", []byte("arg"))
	if err := p.Exec(ctx); err != nil {
		t.Fatalf("Exec: %v", err)
	}

	ops := log.snapshot()
	if len(ops) != 1 || ops[0].name != "PIPELINE" {
		t.Fatalf("tapped %+v, want one PIPELINE op", ops)
	}
	op := ops[0]
	if string(op.args[0]) != "3" {
		t.Fatalf("PIPELINE arg[0] = %q, want queued-command count 3", op.args[0])
	}
	wantArgs := []string{"3", "SET", "2", "pk", "pv", "GET", "1", "pk", "BOGUS", "1", "arg"}
	if len(op.args) != len(wantArgs) {
		t.Fatalf("PIPELINE args = %q, want %q", op.args, wantArgs)
	}
	for i, w := range wantArgs {
		if string(op.args[i]) != w {
			t.Fatalf("PIPELINE args[%d] = %q, want %q", i, op.args[i], w)
		}
	}
	// Replies: SET → sOK, GET → b,pv, BOGUS → e...
	if string(op.reply[0]) != "sOK" {
		t.Fatalf("SET reply element = %q", op.reply[0])
	}
	if string(op.reply[1]) != "b" || string(op.reply[2]) != "pv" {
		t.Fatalf("GET reply elements = %q %q", op.reply[1], op.reply[2])
	}
	if op.reply[3][0] != 'e' {
		t.Fatalf("BOGUS reply element = %q, want an error element", op.reply[3])
	}
}

// TestTapComposes: taps stack like pstream's broker wrappers — the outer
// tap sees every op the inner one does.
func TestTapComposes(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	inner, outer := &tapLog{}, &tapLog{}
	kv := NewTap(NewTap(cli, inner.fn), outer.fn)

	if err := Set(context.Background(), kv, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	for name, log := range map[string]*tapLog{"inner": inner, "outer": outer} {
		ops := log.snapshot()
		if len(ops) != 1 || ops[0].name != "SET" {
			t.Fatalf("%s tap saw %+v, want the SET", name, ops)
		}
	}
}

// countingDialer wraps the real dialer, counting and collecting every
// connection the client establishes.
type countingDialer struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (d *countingDialer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var nd net.Dialer
	conn, err := nd.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.conns = append(d.conns, conn)
	d.mu.Unlock()
	return conn, nil
}

func (d *countingDialer) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// TestDialFuncCarriesEveryConnection: with WithDialFunc installed, both
// the pooled request connections and the wait multiplexer's shared
// connection are established through the hook — the client never dials
// around it.
func TestDialFuncCarriesEveryConnection(t *testing.T) {
	dialer := &countingDialer{}
	_, cli := newPair(t, nil, []ClientOption{WithDialFunc(dialer.dial)})
	ctx := context.Background()

	if err := Set(ctx, cli, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cli.WaitGet(ctx, "parked", 20*time.Millisecond); err != nil || ok {
		t.Fatalf("WaitGet = %v, %v", ok, err)
	}
	if got, want := uint64(dialer.count()), cli.Dials(); got != want || got < 2 {
		t.Fatalf("hook saw %d dials, client made %d (want equal, ≥2: pool + mux)", got, want)
	}
}

// TestDialFuncHonorsDialTimeout: the configured dial timeout arrives at
// the hook as a context deadline, and a hook that respects it bounds a
// stuck connection attempt.
func TestDialFuncHonorsDialTimeout(t *testing.T) {
	cli := NewClient("203.0.113.1:1", // TEST-NET; the hook never actually dials
		WithDialTimeout(50*time.Millisecond),
		WithDialFunc(func(ctx context.Context, network, addr string) (net.Conn, error) {
			dl, ok := ctx.Deadline()
			if !ok {
				t.Error("dial hook received no deadline")
			} else if until := time.Until(dl); until > time.Second {
				t.Errorf("dial deadline %v away, want ≈50ms", until)
			}
			<-ctx.Done() // a black-holed dial: only the deadline ends it
			return nil, ctx.Err()
		}))
	defer cli.Close()

	start := time.Now()
	err := Set(context.Background(), cli, "k", []byte("v"))
	if err == nil {
		t.Fatal("Set succeeded through a black-holed dial")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stuck dial took %v to fail, dial timeout is 50ms", elapsed)
	}
}

// TestMuxReconnectRedialsThroughDialFunc: when the multiplexer's shared
// connection dies, the replacement connection is dialed through the hook
// too — reconnects cannot bypass the interposition point.
func TestMuxReconnectRedialsThroughDialFunc(t *testing.T) {
	dialer := &countingDialer{}
	_, cli := newPair(t, nil, []ClientOption{WithDialFunc(dialer.dial)})
	ctx := context.Background()

	// Park one wait to establish the mux connection through the hook.
	if _, ok, err := cli.WaitGet(ctx, "first", 20*time.Millisecond); err != nil || ok {
		t.Fatalf("WaitGet = %v, %v", ok, err)
	}
	before := dialer.count()
	if before == 0 {
		t.Fatal("mux connection was not dialed through the hook")
	}

	// Kill every established connection out from under the client.
	dialer.mu.Lock()
	for _, conn := range dialer.conns {
		conn.Close()
	}
	dialer.mu.Unlock()

	// The next waits must re-dial (through the hook) and then succeed.
	if err := Set(ctx, cli, "wake", []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok, err := cli.WaitGet(ctx, "wake", 100*time.Millisecond)
		if err == nil && ok && bytes.Equal(v, []byte("v")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mux never recovered: %q, %v, %v", v, ok, err)
		}
	}
	if after := dialer.count(); after <= before {
		t.Fatalf("reconnect bypassed the dial hook: %d dials before kill, %d after recovery", before, after)
	}
}
