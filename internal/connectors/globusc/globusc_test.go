package globusc

import (
	"bytes"
	"context"
	"testing"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connector/connectortest"
	"proxystore/internal/globus"
	"proxystore/internal/netsim"
)

func setup(t *testing.T) (*Connector, *Connector) {
	t.Helper()
	t.Cleanup(globus.ResetServices)
	n := netsim.Testbed(1000)
	svc := globus.NewService(n)
	if err := svc.RegisterEndpoint("site-a", netsim.SiteMidway2, t.TempDir()); err != nil {
		t.Fatalf("RegisterEndpoint: %v", err)
	}
	if err := svc.RegisterEndpoint("site-b", netsim.SiteTheta, t.TempDir()); err != nil {
		t.Fatalf("RegisterEndpoint: %v", err)
	}
	// Cleanups run last-in first-out: in-flight transfers finish before
	// the endpoint directories are removed.
	t.Cleanup(svc.WaitAll)
	globus.RegisterService("svc", svc)

	producer, err := New("svc", "site-a", []string{"site-b"})
	if err != nil {
		t.Fatalf("New producer: %v", err)
	}
	consumer, err := New("svc", "site-b", []string{"site-a"})
	if err != nil {
		t.Fatalf("New consumer: %v", err)
	}
	return producer, consumer
}

func TestConformance(t *testing.T) {
	producer, _ := setup(t)
	connectortest.Run(t, func(t *testing.T) connector.Connector {
		return producer
	}, connectortest.Options{SkipConfigRebuild: true})
}

func TestCrossSiteTransfer(t *testing.T) {
	producer, consumer := setup(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	payload := bytes.Repeat([]byte("g"), 100_000)
	key, err := producer.Put(ctx, payload)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if key.Attr("globus_task") == "" {
		t.Fatal("key lacks transfer task id")
	}
	// The consumer's Get waits for the transfer task before reading.
	got, err := consumer.Get(ctx, key)
	if err != nil {
		t.Fatalf("consumer Get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("transferred object corrupted")
	}
}

func TestBatchPutSingleTransferTask(t *testing.T) {
	producer, consumer := setup(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	blobs := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	keys, err := producer.PutBatch(ctx, blobs)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	// All keys share the same transfer task (one Globus task per batch).
	task := keys[0].Attr("globus_task")
	for i, k := range keys {
		if k.Attr("globus_task") != task {
			t.Fatalf("key %d has different task: %s vs %s", i, k.Attr("globus_task"), task)
		}
	}
	for i, k := range keys {
		got, err := consumer.Get(ctx, k)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("object %d corrupted", i)
		}
	}
}

func TestLocalGetNeedsNoWait(t *testing.T) {
	producer, _ := setup(t)
	ctx := context.Background()
	key, err := producer.Put(ctx, []byte("local read"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	// The producing site's file is already on disk; Get must not block on
	// the transfer task.
	start := time.Now()
	got, err := producer.Get(ctx, key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != "local read" {
		t.Fatalf("Get = %q", got)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("local Get took %v; it waited for the transfer", elapsed)
	}
}

// The connector must stream natively, not through the buffering adapter.
var (
	_ connector.StreamPutter = (*Connector)(nil)
	_ connector.StreamGetter = (*Connector)(nil)
)

func TestStreamedCrossSiteTransfer(t *testing.T) {
	producer, consumer := setup(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	payload := bytes.Repeat([]byte("s"), 300_000)
	key, err := producer.PutFrom(ctx, bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("PutFrom: %v", err)
	}
	if key.Size != int64(len(payload)) {
		t.Fatalf("key.Size = %d, want %d", key.Size, len(payload))
	}
	if key.Attr("globus_task") == "" {
		t.Fatal("streamed key lacks transfer task id")
	}
	// GetTo on the remote side waits for the transfer, then streams the
	// endpoint file.
	var got bytes.Buffer
	if err := consumer.GetTo(ctx, key, &got); err != nil {
		t.Fatalf("GetTo: %v", err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("streamed object corrupted in cross-site round trip")
	}
	// Evicting everywhere then streaming again reports not-found.
	if err := producer.Evict(ctx, key); err != nil {
		t.Fatalf("producer Evict: %v", err)
	}
	if err := consumer.Evict(ctx, key); err != nil {
		t.Fatalf("consumer Evict: %v", err)
	}
	if err := consumer.GetTo(ctx, key, &got); err != connector.ErrNotFound {
		t.Fatalf("GetTo after evict = %v, want ErrNotFound", err)
	}
}
