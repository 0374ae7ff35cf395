package redisc

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"proxystore/internal/connector"
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
