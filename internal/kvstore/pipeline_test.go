package kvstore

import (
	"context"
	"fmt"
	"testing"
)

func TestPipelineBatchesCommandsPerRoundTrip(t *testing.T) {
	srv, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := cli.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	rtts := cli.RoundTrips()
	cmds := srv.Commands()

	const n = 50
	p := cli.Pipeline()
	sets := make([]*PipeReply, n)
	for i := 0; i < n; i++ {
		sets[i] = p.Set(fmt.Sprintf("p%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	if err := p.Exec(ctx); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	for i, r := range sets {
		if r.Err() != nil {
			t.Fatalf("set %d: %v", i, r.Err())
		}
	}
	if got := srv.Commands() - cmds; got != n {
		t.Fatalf("server executed %d commands, want %d", got, n)
	}
	if got := cli.RoundTrips() - rtts; got != 1 {
		t.Fatalf("%d commands cost %d round trips, want 1", n, got)
	}

	// Read them back pipelined, mixing reply kinds.
	p = cli.Pipeline()
	gets := make([]*PipeReply, n)
	for i := 0; i < n; i++ {
		gets[i] = p.Get(fmt.Sprintf("p%d", i))
	}
	missing := p.Get("p-missing")
	count := p.Incr("p-counter")
	if err := p.Exec(ctx); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	for i, r := range gets {
		val, ok, err := r.Bytes()
		if err != nil || !ok || string(val) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d = %q, %v, %v", i, val, ok, err)
		}
	}
	if _, ok, err := missing.Bytes(); err != nil || ok {
		t.Fatalf("missing key = ok=%v err=%v, want null", ok, err)
	}
	if n, err := count.Int(); err != nil || n != 1 {
		t.Fatalf("Incr = %d, %v", n, err)
	}
}

// A batch larger than the pipeline window must drain reply windows along
// the way and still resolve every reply in order.
func TestPipelineLargerThanWindow(t *testing.T) {
	srv, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := cli.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	rtts := cli.RoundTrips()
	_ = srv

	n := 3*pipelineWindow + 7
	p := cli.Pipeline()
	reps := make([]*PipeReply, n)
	for i := 0; i < n; i++ {
		reps[i] = p.IncrBy("win-counter", 1)
	}
	if err := p.Exec(ctx); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	for i, r := range reps {
		got, err := r.Int()
		if err != nil || got != int64(i+1) {
			t.Fatalf("reply %d = %d, %v, want %d", i, got, err, i+1)
		}
	}
	wantRTTs := uint64((n + pipelineWindow - 1) / pipelineWindow)
	if got := cli.RoundTrips() - rtts; got != wantRTTs {
		t.Fatalf("%d commands cost %d round trips, want %d", n, got, wantRTTs)
	}
}

// Per-command server errors land on the individual reply; the commands
// around the failing one succeed and Exec itself reports no error.
func TestPipelineServerErrorIsPerCommand(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := cli.Set(ctx, "text", []byte("not-a-number")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	p := cli.Pipeline()
	before := p.Set("a", []byte("1"))
	bad := p.Incr("text")
	after := p.Get("a")
	if err := p.Exec(ctx); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if before.Err() != nil {
		t.Fatalf("command before the failure: %v", before.Err())
	}
	if bad.Err() == nil {
		t.Fatal("INCR on non-integer succeeded")
	}
	if val, ok, err := after.Bytes(); err != nil || !ok || string(val) != "1" {
		t.Fatalf("command after the failure = %q, %v, %v", val, ok, err)
	}
}

func TestPipelineEmptyExecIsNoop(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	if err := cli.Pipeline().Exec(context.Background()); err != nil {
		t.Fatalf("empty Exec: %v", err)
	}
}
