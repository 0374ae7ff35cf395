package pstream_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/redisc"
	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/pstream/brokertest"
	"proxystore/internal/serial"
	"proxystore/internal/store"
)

// --- Group consumption through the Consumer API ---------------------------

func TestGroupConsumersSplitWork(t *testing.T) {
	ctx := context.Background()
	st := newLocalStore(t)
	b := pstream.NewMem()

	const items, members = 12, 3
	prod := pstream.NewProducer[int](st, b, "work")
	values := make([]int, items)
	for i := range values {
		values[i] = i
	}
	if err := prod.SendBatch(ctx, values); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if err := prod.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var mu sync.Mutex
	seen := make(map[int]string)
	var wg sync.WaitGroup
	errs := make(chan error, members)
	for m := 0; m < members; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", m)
			cons, err := pstream.NewConsumer[int](ctx, b, "work", name,
				pstream.WithGroup("pool"), pstream.WithWindow(2))
			if err != nil {
				errs <- err
				return
			}
			defer cons.Close()
			for {
				v, err := cons.NextValue(ctx)
				if errors.Is(err, pstream.ErrEnd) {
					return
				}
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if prev, dup := seen[v]; dup {
					errs <- fmt.Errorf("value %d consumed by both %s and %s", v, prev, name)
					mu.Unlock()
					return
				}
				seen[v] = name
				mu.Unlock()
			}
		}(m)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(seen) != items {
		t.Fatalf("group consumed %d distinct values, want %d", len(seen), items)
	}
}

func TestGroupEvictOnAckReclaimsEverything(t *testing.T) {
	// A group counts as one distinct consumer, so WithEvictOnAck(1) must
	// garbage-collect every payload once the group has worked the queue.
	ctx := context.Background()
	st := newLocalStore(t)
	b := pstream.NewMem()

	const items = 8
	prod := pstream.NewProducer[string](st, b, "gc", pstream.WithEvictOnAck(1))
	for i := 0; i < items; i++ {
		if err := prod.Send(ctx, fmt.Sprintf("item-%d", i), nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	prod.Close(ctx)

	cons, err := pstream.NewConsumer[string](ctx, b, "gc", "solo", pstream.WithGroup("g"))
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	for {
		if _, err := cons.NextValue(ctx); errors.Is(err, pstream.ErrEnd) {
			break
		} else if err != nil {
			t.Fatalf("NextValue: %v", err)
		}
	}
	if got := st.Metrics().Evicts; got != items {
		t.Fatalf("store Evicts = %d, want %d", got, items)
	}
}

// --- Randomized property test ---------------------------------------------

// groupRecord is one acked delivery observed by the harness.
type groupRecord struct {
	member   string
	producer string
	seq      uint64
}

// runGroupWorkload drives producers×perProducer events through a jittered
// broker into members group consumers, killing killAfter members after
// they consume a few items without acking. It returns every acked
// delivery.
func runGroupWorkload(t *testing.T, b pstream.Broker, producers, perProducer, members, killMembers int) []groupRecord {
	t.Helper()
	ctx := context.Background()
	st := newLocalStore(t)
	topic := "prop-" + connector.NewID()[:8]

	var wg sync.WaitGroup
	errs := make(chan error, producers+members)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			prod := pstream.NewProducer[int](st, b, topic,
				pstream.WithProducerID(fmt.Sprintf("p%d", p)))
			for i := 0; i < perProducer; i++ {
				if err := prod.Send(ctx, p*1_000_000+i, nil); err != nil {
					errs <- err
					return
				}
			}
			if err := prod.Close(ctx); err != nil {
				errs <- err
			}
		}(p)
	}

	var mu sync.Mutex
	var acked []groupRecord
	for m := 0; m < members; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", m)
			cons, err := pstream.NewConsumer[int](ctx, b, topic, name,
				pstream.WithGroup("pool"), pstream.WithWindow(3),
				pstream.WithEndCount(producers))
			if err != nil {
				errs <- err
				return
			}
			defer cons.Close()
			doomed := m < killMembers
			claimed := 0
			for {
				cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
				it, err := cons.Next(cctx)
				cancel()
				if errors.Is(err, pstream.ErrEnd) {
					return
				}
				if err != nil {
					errs <- fmt.Errorf("%s: Next: %w", name, err)
					return
				}
				if doomed {
					// Crash with claims in hand: never ack, just vanish.
					if claimed++; claimed >= 2 {
						return
					}
					continue
				}
				if _, err := it.Value(ctx); err != nil {
					errs <- fmt.Errorf("%s: Value: %w", name, err)
					return
				}
				if err := it.Ack(ctx); err != nil {
					errs <- fmt.Errorf("%s: Ack: %w", name, err)
					return
				}
				mu.Lock()
				acked = append(acked, groupRecord{member: name, producer: it.Event.Producer, seq: it.Event.Seq})
				mu.Unlock()
			}
		}(m)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return acked
}

// assertExactlyOnce checks every produced event was acked exactly once
// across the whole group and nothing was lost.
func assertExactlyOnce(t *testing.T, acked []groupRecord, producers, perProducer int) {
	t.Helper()
	counts := make(map[string]int)
	for _, r := range acked {
		counts[r.producer+"/"+fmt.Sprint(r.seq)]++
	}
	if len(acked) != producers*perProducer {
		t.Fatalf("group acked %d deliveries, want %d", len(acked), producers*perProducer)
	}
	for p := 0; p < producers; p++ {
		for seq := uint64(1); seq <= uint64(perProducer); seq++ {
			key := fmt.Sprintf("p%d/%d", p, seq)
			if counts[key] != 1 {
				t.Fatalf("event %s acked %d times, want exactly 1", key, counts[key])
			}
		}
	}
}

func TestGroupPropertyCleanRun(t *testing.T) {
	producers, perProducer, members := 3, 30, 4
	if testing.Short() {
		perProducer = 10
	}
	// A lease far above total runtime: any duplicate here is a real claim
	// bug, not a slow member.
	b := brokertest.NewJitter(
		pstream.NewMem(pstream.WithMemLease(time.Minute)), 1, time.Millisecond)
	acked := runGroupWorkload(t, b, producers, perProducer, members, 0)
	assertExactlyOnce(t, acked, producers, perProducer)
	// Per-producer order: without reclamation, each member's claims are
	// issued in log order, so the subsequence of any producer's events a
	// single member acks must have strictly increasing Seq.
	last := make(map[string]uint64)
	for _, r := range acked {
		key := r.member + "|" + r.producer
		if r.seq <= last[key] {
			t.Fatalf("member %s saw producer %s Seq %d after %d",
				r.member, r.producer, r.seq, last[key])
		}
		last[key] = r.seq
	}
}

func TestGroupPropertyMemberCrash(t *testing.T) {
	producers, perProducer, members := 2, 20, 4
	if testing.Short() {
		perProducer = 8
	}
	// A short lease so the two crashed members' claims are reclaimed
	// quickly; survivors must still ack every event exactly once.
	b := brokertest.NewJitter(
		pstream.NewMem(pstream.WithMemLease(500*time.Millisecond)), 7, time.Millisecond)
	acked := runGroupWorkload(t, b, producers, perProducer, members, 2)
	assertExactlyOnce(t, acked, producers, perProducer)
}

// --- KVBroker compaction ---------------------------------------------------

func TestKVBrokerPublishBatchIsOneCommand(t *testing.T) {
	ctx := context.Background()
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	b := pstream.NewKV(srv.Addr())
	defer b.Close()

	evs := make([]pstream.Event, 64)
	for i := range evs {
		evs[i] = pstream.Event{Producer: "p", Seq: uint64(i + 1)}
	}
	before := srv.Commands()
	if err := b.PublishBatch(ctx, "rt", evs); err != nil {
		t.Fatalf("PublishBatch: %v", err)
	}
	if got := srv.Commands() - before; got != 1 {
		t.Fatalf("PublishBatch of 64 events cost %d server commands, want 1 (LAPPEND)", got)
	}
	for i, ev := range evs {
		if ev.Offset != uint64(i) {
			t.Fatalf("PublishBatch assigned event %d offset %d", i, ev.Offset)
		}
	}
	// Eager Publish pays 1 command per event.
	before = srv.Commands()
	if err := b.Publish(ctx, "rt", pstream.Event{Producer: "p", Seq: 65}); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got := srv.Commands() - before; got != 1 {
		t.Fatalf("single Publish cost %d commands, want 1", got)
	}
}

// TestKVBrokerTruncationBoundsServerKeys is the acceptance check for log
// compaction: a 1,000-event stream, fully consumed and acked with
// evict-on-ack payloads and the default trim, must leave the kv server with
// O(1) keys — not O(events) of log slots, ack counters and blobs.
func TestKVBrokerTruncationBoundsServerKeys(t *testing.T) {
	ctx := context.Background()
	items := 1000
	if testing.Short() {
		items = 128
	}
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Metadata and data planes share the server, as in a deployment that
	// reuses one redis for both.
	name := "pstream-trunc-" + connector.NewID()[:12]
	st, err := store.New(name, redisc.New(srv.Addr()),
		store.WithSerializer(serial.Raw()), store.WithCacheBytes(0))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Unregister(name)
	b := pstream.NewKV(srv.Addr())
	defer b.Close()

	prod := pstream.NewProducer[[]byte](st, b, "trunc", pstream.WithEvictOnAck(1))
	const chunk = 50
	payload := make([]byte, 128)
	for sent := 0; sent < items; sent += chunk {
		n := chunk
		if items-sent < n {
			n = items - sent
		}
		batch := make([][]byte, n)
		for i := range batch {
			payload[0] = byte(sent + i)
			batch[i] = append([]byte(nil), payload...)
		}
		if err := prod.SendBatch(ctx, batch); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
	}
	if err := prod.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cons, err := pstream.NewConsumer[[]byte](ctx, b, "trunc", "c", pstream.WithWindow(32))
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	consumed := 0
	for {
		v, err := cons.NextValue(ctx)
		if errors.Is(err, pstream.ErrEnd) {
			break
		}
		if err != nil {
			t.Fatalf("NextValue: %v", err)
		}
		if len(v) != len(payload) {
			t.Fatalf("item %d has %d bytes", consumed, len(v))
		}
		consumed++
	}
	if consumed != items {
		t.Fatalf("consumed %d items, want %d", consumed, items)
	}

	cli := kvstore.NewClient(srv.Addr())
	defer cli.Close()
	keys, err := cli.DBSize(ctx)
	if err != nil {
		t.Fatalf("DBSize: %v", err)
	}
	// Survivors: the log length counter, the truncation floor, the
	// consumer's committed offset and registration, and the trailing End
	// marker (plus a
	// window of not-yet-collected stragglers). Anything O(items) means a
	// leak of event slots, ack counters or payload blobs.
	if keys > 16 {
		t.Fatalf("server holds %d keys after a fully acked %d-event stream, want <= 16", keys, items)
	}
	if st.Metrics().Evicts != uint64(items) {
		t.Fatalf("store Evicts = %d, want %d", st.Metrics().Evicts, items)
	}
}
