package redisc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/store"
)

// Concurrent PutFrom calls share the connector's chunk-buffer pool. Each
// payload spans many 64-byte chunks, so a buffer returned to the pool while
// its bytes were still being sent would surface as another put's data.
func TestPutFromPooledBuffersDoNotAlias(t *testing.T) {
	srv := newServer(t)
	c := New(srv.Addr(), WithChunkSize(64))
	defer c.Close()
	ctx := context.Background()

	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	keys := make([][]connector.Key, workers)
	payloads := make([][][]byte, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := bytes.Repeat([]byte(fmt.Sprintf("w%d-i%d|", w, i)), 40+i)
				key, err := c.PutFrom(ctx, bytes.NewReader(p))
				if err != nil {
					errs <- err
					return
				}
				keys[w] = append(keys[w], key)
				payloads[w] = append(payloads[w], p)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("PutFrom: %v", err)
	}
	for w := range keys {
		for i, key := range keys[w] {
			if key.ChunkCount() < 2 {
				t.Fatalf("payload %d/%d stored in %d chunks, want several", w, i, key.ChunkCount())
			}
			got, err := c.Get(ctx, key)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, payloads[w][i]) {
				t.Fatalf("payload %d/%d read back differently: %q", w, i, got)
			}
		}
	}
}

// A small put must not pay for a fresh chunk-size buffer: 200 puts of
// 1 KiB with the default 256 KiB chunk allocate under 16 KiB each, client
// and in-process server together.
func TestPutFromSmallObjectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	srv := newServer(t)
	c := New(srv.Addr())
	defer c.Close()
	ctx := context.Background()
	payload := make([]byte, 1<<10)
	put := func() {
		key, err := c.PutFrom(ctx, bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("PutFrom: %v", err)
		}
		if err := c.Evict(ctx, key); err != nil {
			t.Fatalf("Evict: %v", err)
		}
	}
	for i := 0; i < 20; i++ {
		put()
	}
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		put()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 16<<10 {
		t.Fatalf("a 1 KiB PutFrom allocates %d bytes, want < 16 KiB", per)
	}
}

// A streamed read holds one pooled kv connection until its reader has taken
// the last byte, so readers opened but not yet read hold the whole pool,
// and one reader more waits for a connection. This pins that behaviour: the
// extra reader, read first, blocks, and it completes once one of the
// others has been read to the end and its connection freed.
func TestGetReadersBeyondThePoolWaitForAConnection(t *testing.T) {
	srv := newServer(t)
	ctx := context.Background()
	// The objects are written through a connector of their own, so every
	// connection the reading connector dials is held by one reader.
	w := New(srv.Addr(), WithChunkSize(1<<10))
	defer w.Close()
	var payloads [][]byte
	var keys []connector.Key
	for i := 0; i < 16; i++ {
		p := bytes.Repeat([]byte(fmt.Sprintf("reader %d|", i)), 400) // 4 shards
		key, err := w.PutFrom(ctx, bytes.NewReader(p))
		if err != nil {
			t.Fatalf("PutFrom: %v", err)
		}
		payloads, keys = append(payloads, p), append(keys, key)
	}

	c := New(srv.Addr(), WithChunkSize(1<<10))
	st, err := store.New("redisc-readers-"+connector.NewID(), c)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	defer st.Close()
	cli := c.Client()
	poolWaits := func() uint64 { return cli.Telemetry().Snapshot().Counters["kvc.pool.waits"] }

	// Open readers one at a time until one has to wait: every earlier one
	// has dialed a pooled connection and stalls on its unread pipe.
	var readers []io.ReadCloser
	for poolWaits() == 0 {
		if len(readers) == len(keys) {
			t.Fatalf("%d readers open and none waited for a connection", len(readers))
		}
		r, err := st.GetReader(ctx, keys[len(readers)])
		if err != nil {
			t.Fatalf("GetReader: %v", err)
		}
		defer r.Close()
		readers = append(readers, r)
		deadline := time.Now().Add(10 * time.Second)
		for cli.Dials()+poolWaits() < uint64(len(readers)) {
			if time.Now().After(deadline) {
				t.Fatalf("reader %d neither dialed nor waited", len(readers)-1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	last := len(readers) - 1

	type result struct {
		data []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		data, err := io.ReadAll(readers[last])
		done <- result{data, err}
	}()
	select {
	case res := <-done:
		t.Fatalf("reader beyond the pool returned %d bytes, %v while every connection was held", len(res.data), res.err)
	case <-time.After(50 * time.Millisecond):
	}
	for i := last - 1; i >= 0; i-- {
		data, err := io.ReadAll(readers[i])
		if err != nil || !bytes.Equal(data, payloads[i]) {
			t.Fatalf("reader %d: %d bytes, %v", i, len(data), err)
		}
		if i == last-1 {
			select {
			case res := <-done:
				if res.err != nil || !bytes.Equal(res.data, payloads[last]) {
					t.Fatalf("reader %d: %d bytes, %v", last, len(res.data), res.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("reader %d still waits after reader %d freed its connection", last, i)
			}
		}
	}
}
