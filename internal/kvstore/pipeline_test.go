package kvstore

import (
	"context"
	"fmt"
	"testing"
)

func TestPipelineBatchesCommandsPerRoundTrip(t *testing.T) {
	srv, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := cli.Do(ctx, "PING").Err(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	rtts := cli.RoundTrips()
	cmds := srv.Commands()

	const n = 50
	p := cli.Pipeline()
	sets := make([]*PipeReply, n)
	for i := 0; i < n; i++ {
		sets[i] = p.Do("SET", []byte(fmt.Sprintf("p%d", i)), []byte(fmt.Sprintf("v%d", i)))
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
		gets[i] = p.Do("GET", []byte(fmt.Sprintf("p%d", i)))
	}
	missing := p.Do("GET", []byte("p-missing"))
	count := p.Do("INCR", []byte("p-counter"))
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
	if err := cli.Do(ctx, "PING").Err(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	rtts := cli.RoundTrips()
	_ = srv

	n := 3*pipelineWindow + 7
	p := cli.Pipeline()
	reps := make([]*PipeReply, n)
	for i := 0; i < n; i++ {
		reps[i] = p.Do("INCR", []byte("win-counter"))
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
	if err := Set(ctx, cli, "text", []byte("not-a-number")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	p := cli.Pipeline()
	before := p.Do("SET", []byte("a"), []byte("1"))
	bad := p.Do("INCR", []byte("text"))
	after := p.Do("GET", []byte("a"))
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

// lappend appends vals to the log at lenKey through a pipeline and
// returns the new length.
func lappend(t *testing.T, cli *Client, lenKey, prefix string, vals ...string) int64 {
	t.Helper()
	p := cli.Pipeline()
	r := p.Do("LAPPEND", keysArgs(append([]string{lenKey, prefix}, vals...))...)
	p.Exec(context.Background())
	n, err := r.Int()
	if err != nil {
		t.Fatalf("LAPPEND: %v", err)
	}
	return n
}

// TestLogAppendAndRead pins the two log commands: LAPPEND takes the next
// slots past the length and returns the new length; LREAD returns the
// length, the named keys and each prefix's values from start up to the
// length, never past it.
func TestLogAppendAndRead(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if n := lappend(t, cli, "L", "e:", "a", "b"); n != 2 {
		t.Fatalf("first LAPPEND = %d, want 2", n)
	}
	if n := lappend(t, cli, "L", "e:", "c"); n != 3 {
		t.Fatalf("second LAPPEND = %d, want 3", n)
	}
	if err := MSet(ctx, cli, map[string][]byte{"c:1": []byte("claim"), "e:3": []byte("beyond"), "f": []byte("7")}); err != nil {
		t.Fatal(err)
	}
	p := cli.Pipeline()
	r := p.Do("LREAD", keysArgs([]string{"L", "1", "32", "2", "e:", "c:", "f", "ghost"})...)
	p.Exec(ctx)
	arr, err := r.Array()
	if err != nil || len(arr) != 5 {
		t.Fatalf("LREAD = %d values, %v; want 5", len(arr), err)
	}
	if n, _ := arr[0].Int(); n != 3 {
		t.Fatalf("LREAD length = %d, want 3", n)
	}
	if v, ok, _ := arr[1].Bytes(); !ok || string(v) != "7" {
		t.Fatalf("LREAD key f = %q, %v", v, ok)
	}
	if _, ok, _ := arr[2].Bytes(); ok {
		t.Fatal("LREAD returned a value for a missing key")
	}
	var got []string
	for _, fam := range arr[3:] {
		vals, err := fam.Array()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			b, ok, _ := v.Bytes()
			got = append(got, fmt.Sprintf("%s/%v", b, ok))
		}
	}
	// Slots 1 and 2 of each family; e:3 lies past the length.
	if want := "[b/true c/true claim/true /false]"; fmt.Sprint(got) != want {
		t.Fatalf("LREAD families = %v, want %v", got, want)
	}
	if err := Set(ctx, cli, "bad", []byte("x")); err != nil {
		t.Fatal(err)
	}
	p = cli.Pipeline()
	ra, rr := p.Do("LAPPEND", keysArgs([]string{"bad", "e:", "v"})...), p.Do("LREAD", keysArgs([]string{"bad", "0", "1", "0"})...)
	p.Exec(ctx)
	if ra.Err() == nil || rr.Err() == nil {
		t.Fatalf("log commands on a non-integer length = %v, %v; want errors", ra.Err(), rr.Err())
	}
	if _, ok, _ := Get(ctx, cli, "e:0"); !ok {
		t.Fatal("slot 0 lost")
	}
}
