package kvstore

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// pattern returns n bytes that differ from every other (seed, offset).
func pattern(seed, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seed*131 + i*7 + i>>8)
	}
	return p
}

func chunkKeyFunc(prefix string) func(int) string {
	return func(i int) string { return fmt.Sprintf("%s:%d", prefix, i) }
}

func chunkKeyList(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = chunkKeyFunc(prefix)(i)
	}
	return keys
}

// A streamed put or read costs one round trip per pipeline window, not one
// per chunk, and GetTo reassembles the chunks in order.
func TestSetChunksAndGetToRoundTrips(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := cli.Do(ctx, "PING").Err(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	const chunk = 16
	for _, tc := range []struct {
		chunks, trips int
	}{{5, 1}, {300, 3}} {
		payload := pattern(tc.chunks, tc.chunks*chunk-3)
		prefix := fmt.Sprintf("obj%d", tc.chunks)
		rtts := cli.RoundTrips()
		sent, total, err := cli.SetChunks(ctx, bytes.NewReader(payload), make([]byte, chunk), chunkKeyFunc(prefix))
		if err != nil {
			t.Fatalf("SetChunks: %v", err)
		}
		if sent != tc.chunks || total != int64(len(payload)) {
			t.Fatalf("SetChunks = %d chunks, %d bytes; want %d, %d", sent, total, tc.chunks, len(payload))
		}
		if got := cli.RoundTrips() - rtts; got != uint64(tc.trips) {
			t.Fatalf("SetChunks of %d chunks cost %d round trips, want %d", tc.chunks, got, tc.trips)
		}

		rtts = cli.RoundTrips()
		var buf bytes.Buffer
		found, err := cli.GetTo(ctx, chunkKeyList(prefix, tc.chunks), &buf)
		if err != nil || found != tc.chunks {
			t.Fatalf("GetTo = %d found, %v; want %d", found, err, tc.chunks)
		}
		if got := cli.RoundTrips() - rtts; got != uint64(tc.trips) {
			t.Fatalf("GetTo of %d keys cost %d round trips, want %d", tc.chunks, got, tc.trips)
		}
		if !bytes.Equal(buf.Bytes(), payload) {
			t.Fatalf("GetTo of %d keys reassembled different bytes", tc.chunks)
		}
	}
}

// An empty stream still stores chunk 0, so the object has a key.
func TestSetChunksEmptyStreamSendsChunkZero(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	sent, total, err := cli.SetChunks(ctx, bytes.NewReader(nil), make([]byte, 8), chunkKeyFunc("empty"))
	if err != nil || sent != 1 || total != 0 {
		t.Fatalf("SetChunks(empty) = %d, %d, %v; want 1, 0, nil", sent, total, err)
	}
	val, ok, err := Get(ctx, cli, "empty:0")
	if err != nil || !ok || len(val) != 0 {
		t.Fatalf("Get(empty:0) = %q, %v, %v", val, ok, err)
	}
}

// failingReader yields n bytes and then fails.
type failingReader struct {
	r   io.Reader
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		return n, f.err
	}
	return n, err
}

// A reader failing mid-stream is reported after the pending replies are
// read, so the connection goes back to the pool in step.
func TestSetChunksReadErrorLeavesConnectionClean(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if err := cli.Do(ctx, "PING").Err(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	dials := cli.Dials()
	boom := errors.New("boom")
	r := &failingReader{r: bytes.NewReader(pattern(1, 3*8)), err: boom}
	sent, _, err := cli.SetChunks(ctx, r, make([]byte, 8), chunkKeyFunc("fail"))
	if !errors.Is(err, boom) {
		t.Fatalf("SetChunks err = %v, want %v", err, boom)
	}
	if sent != 3 {
		t.Fatalf("SetChunks sent %d chunks, want 3", sent)
	}
	if n, err := Del(ctx, cli, chunkKeyList("fail", sent)...); err != nil || n != 3 {
		t.Fatalf("Del = %d, %v; want 3", n, err)
	}
	if got := cli.Dials(); got != dials {
		t.Fatalf("Dials went from %d to %d after a failed SetChunks", dials, got)
	}
}

// A missing key in the middle stops writes at that key, and the remaining
// replies are drained so the connection is reused.
func TestGetToMissingMiddleKey(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	payload := pattern(2, 5*8)
	if _, _, err := cli.SetChunks(ctx, bytes.NewReader(payload), make([]byte, 8), chunkKeyFunc("hole")); err != nil {
		t.Fatalf("SetChunks: %v", err)
	}
	if _, err := Del(ctx, cli, "hole:2"); err != nil {
		t.Fatalf("Del: %v", err)
	}
	dials := cli.Dials()
	var buf bytes.Buffer
	found, err := cli.GetTo(ctx, chunkKeyList("hole", 5), &buf)
	if err != nil || found != 2 {
		t.Fatalf("GetTo = %d, %v; want 2, nil", found, err)
	}
	if !bytes.Equal(buf.Bytes(), payload[:16]) {
		t.Fatalf("GetTo wrote %d bytes, want the first two chunks only", buf.Len())
	}
	if val, ok, err := Get(ctx, cli, "hole:4"); err != nil || !ok || !bytes.Equal(val, payload[32:]) {
		t.Fatalf("Get after GetTo = %q, %v, %v", val, ok, err)
	}
	if got := cli.Dials(); got != dials {
		t.Fatalf("Dials went from %d to %d after a GetTo with a missing key", dials, got)
	}
}

// errWriter accepts limit bytes and then fails.
type errWriter struct{ limit int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errors.New("writer full")
	}
	w.limit -= len(p)
	return len(p), nil
}

// A writer failing mid-value leaves a reply half read: the connection is
// discarded, and the next command works on a fresh one.
func TestGetToWriterErrorDiscardsConnection(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if _, _, err := cli.SetChunks(ctx, bytes.NewReader(pattern(3, 4*1024)), make([]byte, 1024), chunkKeyFunc("w")); err != nil {
		t.Fatalf("SetChunks: %v", err)
	}
	dials := cli.Dials()
	if _, err := cli.GetTo(ctx, chunkKeyList("w", 4), &errWriter{limit: 1500}); err == nil {
		t.Fatal("GetTo into a failing writer succeeded")
	}
	val, ok, err := Get(ctx, cli, "w:3")
	if err != nil || !ok || len(val) != 1024 {
		t.Fatalf("Get after a failed GetTo = %d bytes, %v, %v", len(val), ok, err)
	}
	if got := cli.Dials(); got != dials+1 {
		t.Fatalf("Dials = %d, want %d: the broken connection must be replaced", got, dials+1)
	}
}

// kvc.rtt.ns times the kv round trip, flush to last reply: the time GetTo
// spends waiting on its writer belongs to the consumer and stays out.
func TestGetToRoundTripLeavesOutWriterTime(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if _, _, err := cli.SetChunks(ctx, bytes.NewReader(pattern(5, 3*1024)), make([]byte, 1024), chunkKeyFunc("slow")); err != nil {
		t.Fatalf("SetChunks: %v", err)
	}
	rtt := func() uint64 { return cli.Telemetry().Snapshot().Histograms["kvc.rtt.ns"].Sum }
	before := rtt()
	w := &slowWriter{pause: 30 * time.Millisecond}
	if found, err := cli.GetTo(ctx, chunkKeyList("slow", 3), w); err != nil || found != 3 {
		t.Fatalf("GetTo = %d found, %v", found, err)
	}
	if got, in := time.Duration(rtt()-before), time.Duration(w.writes)*w.pause; got >= in {
		t.Fatalf("kvc.rtt.ns grew by %v, no less than the %v spent in the writer", got, in)
	}
}

// slowWriter takes pause over every Write.
type slowWriter struct {
	pause  time.Duration
	writes int
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.pause)
	w.writes++
	return len(p), nil
}

// Concurrent SetChunks calls recycling chunk buffers through a pool must
// each store exactly their own bytes.
func TestSetChunksPooledBuffersDoNotAlias(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	pool := sync.Pool{New: func() any { b := make([]byte, 32); return &b }}
	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				payload := pattern(w*perWorker+i, 32*5+i)
				prefix := fmt.Sprintf("alias%d-%d", w, i)
				bufp := pool.Get().(*[]byte)
				sent, _, err := cli.SetChunks(ctx, bytes.NewReader(payload), *bufp, chunkKeyFunc(prefix))
				pool.Put(bufp)
				if err != nil {
					t.Errorf("SetChunks: %v", err)
					return
				}
				var got bytes.Buffer
				if found, err := cli.GetTo(ctx, chunkKeyList(prefix, sent), &got); err != nil || found != sent {
					t.Errorf("GetTo = %d, %v", found, err)
					return
				}
				if !bytes.Equal(got.Bytes(), payload) {
					t.Errorf("object %s read back different bytes", prefix)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// The server flushes once its read buffer is drained, not after every
// reply; a batch written in one go still gets every reply, in order.
func TestServerAnswersAPipelineWrittenInOneWrite(t *testing.T) {
	srv, cli := newPair(t, nil, nil)
	ctx := context.Background()
	const n = 1000
	for i := 0; i < 10; i++ {
		if err := Set(ctx, cli, fmt.Sprintf("raw%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	var req strings.Builder
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("raw%d", i%10)
		fmt.Fprintf(&req, "*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(k), k)
	}
	go conn.Write([]byte(req.String()))
	r := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		v, err := readValue(r)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i%10); string(v.bulk) != want {
			t.Fatalf("reply %d = %q, want %q", i, v.bulk, want)
		}
	}
}
