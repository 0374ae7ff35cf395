package pstream_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/file"
	"proxystore/internal/connectors/local"
	"proxystore/internal/connectors/redisc"
	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/pstream/brokertest"
	"proxystore/internal/serial"
	"proxystore/internal/store"
)

// --- Broker conformance ---------------------------------------------------

// conformanceLease keeps the battery's lease-expiry subtests fast while
// staying comfortably above scheduler noise under -race.
const conformanceLease = 300 * time.Millisecond

func TestMemBrokerConformance(t *testing.T) {
	brokertest.Run(t, func(t *testing.T) pstream.Broker {
		return pstream.NewMem(pstream.WithMemLease(conformanceLease))
	}, brokertest.Options{ClaimLease: conformanceLease})
}

func TestKVBrokerConformance(t *testing.T) {
	// The kv server persists to an AOF and is restarted in place by the
	// battery's restart-mid-stream fault: logs, offsets, ack counters and
	// claim records must all survive.
	aof := filepath.Join(t.TempDir(), "broker.aof")
	srv, err := kvstore.NewServer("127.0.0.1:0", kvstore.WithPersistence(aof))
	if err != nil {
		t.Fatalf("kvstore server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr()
	restart := func() error {
		if err := srv.Close(); err != nil {
			return err
		}
		next, err := kvstore.NewServer(addr, kvstore.WithPersistence(aof))
		if err != nil {
			return err
		}
		srv = next
		return nil
	}
	brokertest.Run(t, func(t *testing.T) pstream.Broker {
		return pstream.NewKV(addr, pstream.WithKVLease(conformanceLease))
	}, brokertest.Options{
		ClaimLease:     conformanceLease,
		Restart:        restart,
		Commands:       func() uint64 { return srv.Commands() },
		NewFailoverEnv: newKVFailoverEnv,
	})
}

// newKVFailoverEnv builds a fresh primary/replica pair (each with its own
// AOF, the replica following over REPLICATE) and a broker addressed with
// the cluster spec "primary|replica"; kill gracefully closes the primary,
// which drains the replication feed first — every client-acknowledged
// write is on the replica before the box disappears.
func newKVFailoverEnv(t *testing.T) (pstream.Broker, func() error) {
	dir := t.TempDir()
	prim, err := kvstore.NewServer("127.0.0.1:0",
		kvstore.WithPersistence(filepath.Join(dir, "primary.aof")))
	if err != nil {
		t.Fatalf("kvstore primary: %v", err)
	}
	t.Cleanup(func() { prim.Close() })
	repl, err := kvstore.NewServer("127.0.0.1:0",
		kvstore.WithPersistence(filepath.Join(dir, "replica.aof")),
		kvstore.WithReplicaOf(prim.Addr()))
	if err != nil {
		t.Fatalf("kvstore replica: %v", err)
	}
	t.Cleanup(func() { repl.Close() })
	waitReplicaAttached(t, prim)
	b := pstream.NewKV(prim.Addr()+"|"+repl.Addr(), pstream.WithKVLease(conformanceLease))
	return b, prim.Close
}

// waitReplicaAttached returns once prim has a replica feed. Replication is
// asynchronous: only an attached replica is drained on the primary's Close,
// so the pair must be established before any write the failover battery
// later expects on the survivor.
func waitReplicaAttached(t *testing.T, prim *kvstore.Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(prim.InfoText(), "server.replicas 1\n"); {
		if time.Now().After(deadline) {
			t.Fatal("replica never attached to the primary")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestKVBrokerMultiShardSpecFailsOnFirstUse: the kv tier is one replica
// set, so a spec naming several shards is refused, and the broker's first
// command fails with the spec in its error.
func TestKVBrokerMultiShardSpecFailsOnFirstUse(t *testing.T) {
	spec := "127.0.0.1:1,127.0.0.1:2"
	b := pstream.NewKV(spec)
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.Publish(ctx, "t", pstream.Event{Producer: "p", Seq: 1})
	if err == nil || !strings.Contains(err.Error(), spec) {
		t.Fatalf("Publish over %q = %v, want an error naming the spec", spec, err)
	}
}

// TestKVBrokerIdleGroupHoldsOneWaitConnection is the connection-scaling
// guarantee behind the wait multiplexer: N parked group members share ONE
// blocking-wait connection instead of pinning one each, so an idle group
// holds O(1) TCP connections total. Member starts are staggered so their
// scan commands reuse the single pooled command connection — everything
// the count then measures is what parking actually costs.
func TestKVBrokerIdleGroupHoldsOneWaitConnection(t *testing.T) {
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("kvstore server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	b := pstream.NewKV(srv.Addr())
	t.Cleanup(func() { b.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const members = 8
	var wg sync.WaitGroup
	errs := make(chan error, members)
	for i := 0; i < members; i++ {
		sub, err := b.SubscribeGroup(ctx, "idle-conns", "g", fmt.Sprintf("m%d", i))
		if err != nil {
			t.Fatalf("SubscribeGroup: %v", err)
		}
		defer sub.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sub.Next(ctx); err != nil {
				errs <- err
			}
		}()
		time.Sleep(20 * time.Millisecond) // serialize the pre-park scans
	}
	time.Sleep(200 * time.Millisecond) // all members parked in blocking waits
	if got := b.Dials(); got > 4 {
		t.Fatalf("%d idle group members hold %d connections, want O(1) (<=4: one command conn + one shared wait mux)", members, got)
	}
	// Unpark everyone: one event per member.
	evs := make([]pstream.Event, members)
	for i := range evs {
		evs[i] = pstream.Event{Producer: "p", Seq: uint64(i + 1)}
	}
	if err := b.PublishBatch(ctx, "idle-conns", evs); err != nil {
		t.Fatalf("PublishBatch: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// --- Producer/Consumer end to end ----------------------------------------

// newLocalStore registers a uniquely named store over the local connector.
func newLocalStore(t *testing.T) *store.Store {
	t.Helper()
	name := "pstream-test-" + connector.NewID()[:12]
	st, err := store.New(name, local.New(name+"-conn"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Unregister(name) })
	return st
}

func TestProduceConsumeRoundTrip(t *testing.T) {
	ctx := context.Background()
	st := newLocalStore(t)
	b := pstream.NewMem()

	prod := pstream.NewProducer[string](st, b, "words")
	for _, w := range []string{"alpha", "bravo", "charlie"} {
		if err := prod.Send(ctx, w, nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := prod.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cons, err := pstream.NewConsumer[string](ctx, b, "words", "c1")
	if err != nil {
		t.Fatalf("NewConsumer: %v", err)
	}
	defer cons.Close()
	var got []string
	for {
		v, err := cons.NextValue(ctx)
		if errors.Is(err, pstream.ErrEnd) {
			break
		}
		if err != nil {
			t.Fatalf("NextValue: %v", err)
		}
		got = append(got, v)
	}
	want := []string{"alpha", "bravo", "charlie"}
	if len(got) != len(want) {
		t.Fatalf("consumed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d = %q, want %q", i, got[i], want[i])
		}
	}
	if s := prod.Stats(); s.Items != 3 {
		t.Fatalf("producer stats = %+v", s)
	}
	if s := cons.Stats(); s.Items != 3 {
		t.Fatalf("consumer stats = %+v", s)
	}
}

func TestConsumerLazyProxies(t *testing.T) {
	ctx := context.Background()
	st := newLocalStore(t)
	b := pstream.NewMem()

	prod := pstream.NewProducer[[]byte](st, b, "lazy")
	if err := prod.Send(ctx, []byte("payload"), nil); err != nil {
		t.Fatalf("Send: %v", err)
	}

	// Window 1 disables prefetch: the delivered proxy must still be lazy.
	cons, err := pstream.NewConsumer[[]byte](ctx, b, "lazy", "c", pstream.WithWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	it, err := cons.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if it.Proxy.Resolved() {
		t.Fatal("proxy resolved before Value despite window=1")
	}
	v, err := it.Value(ctx)
	if err != nil || string(v) != "payload" {
		t.Fatalf("Value = %q, %v", v, err)
	}
}

func TestConsumerBatchPrefetch(t *testing.T) {
	ctx := context.Background()
	st := newLocalStore(t)
	b := pstream.NewMem()

	prod := pstream.NewProducer[string](st, b, "batch")
	if err := prod.SendBatch(ctx, []string{"a", "b", "c", "d"}); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}

	cons, err := pstream.NewConsumer[string](ctx, b, "batch", "c", pstream.WithWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	it, err := cons.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	// The backlog was pending at the first Next, so the whole batch must
	// arrive primed.
	if !it.Proxy.Resolved() {
		t.Fatal("first item not primed by batch prefetch")
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		v, err := it.Value(ctx)
		if err != nil || v != want {
			t.Fatalf("Value = %q, %v; want %q", v, err, want)
		}
		if err := it.Ack(ctx); err != nil {
			t.Fatalf("Ack: %v", err)
		}
		if want == "d" {
			break
		}
		it, err = cons.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if s := cons.Stats(); s.Prefetched != 4 {
		t.Fatalf("Prefetched = %d, want 4", s.Prefetched)
	}
}

func TestEvictOnAck(t *testing.T) {
	ctx := context.Background()
	st := newLocalStore(t)
	b := pstream.NewMem()

	prod := pstream.NewProducer[string](st, b, "evict", pstream.WithEvictOnAck(2))
	if err := prod.Send(ctx, "transient", nil); err != nil {
		t.Fatalf("Send: %v", err)
	}

	read := func(name string) *pstream.Item[string] {
		cons, err := pstream.NewConsumer[string](ctx, b, "evict", name, pstream.WithWindow(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cons.Close() })
		it, err := cons.Next(ctx)
		if err != nil {
			t.Fatalf("Next(%s): %v", name, err)
		}
		if _, err := it.Value(ctx); err != nil {
			t.Fatalf("Value(%s): %v", name, err)
		}
		return it
	}

	itA := read("a")
	itB := read("b")
	key := itA.Event.Key
	if err := itA.Ack(ctx); err != nil {
		t.Fatalf("Ack a: %v", err)
	}
	// One ack of two: the object must survive.
	if ok, err := st.Exists(ctx, key); err != nil || !ok {
		t.Fatalf("object gone after first ack: ok=%v err=%v", ok, err)
	}
	if err := itB.Ack(ctx); err != nil {
		t.Fatalf("Ack b: %v", err)
	}
	if ok, err := st.Exists(ctx, key); err != nil || ok {
		t.Fatalf("object survived final ack: ok=%v err=%v", ok, err)
	}
	if st.Metrics().Evicts != 1 {
		t.Fatalf("store Evicts = %d, want 1", st.Metrics().Evicts)
	}
}

func TestMultiProducerFanIn(t *testing.T) {
	ctx := context.Background()
	st := newLocalStore(t)
	b := pstream.NewMem()

	const producers, per = 3, 5
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			prod := pstream.NewProducer[int](st, b, "fanin")
			for i := 0; i < per; i++ {
				if err := prod.Send(ctx, p*100+i, nil); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
			prod.Close(ctx)
		}(p)
	}
	wg.Wait()

	cons, err := pstream.NewConsumer[int](ctx, b, "fanin", "agg",
		pstream.WithEndCount(producers))
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	seen := make(map[int]bool)
	for {
		v, err := cons.NextValue(ctx)
		if errors.Is(err, pstream.ErrEnd) {
			break
		}
		if err != nil {
			t.Fatalf("NextValue: %v", err)
		}
		seen[v] = true
	}
	if len(seen) != producers*per {
		t.Fatalf("consumed %d distinct items, want %d", len(seen), producers*per)
	}
}

func TestConsumerOffsetResumeAcrossRestart(t *testing.T) {
	ctx := context.Background()
	st := newLocalStore(t)
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	b := pstream.NewKV(srv.Addr())
	defer b.Close()

	prod := pstream.NewProducer[int](st, b, "resume")
	for i := 1; i <= 4; i++ {
		if err := prod.Send(ctx, i, nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	prod.Close(ctx)

	cons, err := pstream.NewConsumer[int](ctx, b, "resume", "c", pstream.WithWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	// Consume and ack two, then "crash".
	for i := 1; i <= 2; i++ {
		v, err := cons.NextValue(ctx)
		if err != nil || v != i {
			t.Fatalf("NextValue = %d, %v", v, err)
		}
	}
	cons.Close()

	cons2, err := pstream.NewConsumer[int](ctx, b, "resume", "c", pstream.WithWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cons2.Close()
	v, err := cons2.NextValue(ctx)
	if err != nil || v != 3 {
		t.Fatalf("resumed NextValue = %d, %v; want 3", v, err)
	}
}

// --- The headline guarantee ----------------------------------------------

// TestBrokerBytesStayMetadataSized is the acceptance scenario: a producer
// streams 1,000 × 1 MiB items to two consumers; only O(KB)-sized event
// records cross the broker, while bulk bytes ride the store's data plane —
// and evict-on-ack garbage-collects each item once both consumers are done,
// so the backlog on disk stays bounded too.
func TestBrokerBytesStayMetadataSized(t *testing.T) {
	ctx := context.Background()
	items := 1000
	if testing.Short() {
		items = 64
	}
	const itemSize = 1 << 20

	name := "pstream-bulk-" + connector.NewID()[:12]
	conn, err := file.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(name, conn, store.WithSerializer(serial.Raw()),
		store.WithCacheBytes(0)) // no cache: consumers must hit the data plane
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Unregister(name) })

	cb := pstream.NewCounting(pstream.NewMem())
	const consumers = 2

	var wg sync.WaitGroup
	consumed := make([]int, consumers)
	errs := make(chan error, consumers+1)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Window 1 keeps proxies lazy: receiving an event must not pull
			// its megabyte.
			cons, err := pstream.NewConsumer[[]byte](ctx, cb, "bulk", fmt.Sprintf("c%d", c),
				pstream.WithWindow(1))
			if err != nil {
				errs <- err
				return
			}
			defer cons.Close()
			for {
				it, err := cons.Next(ctx)
				if errors.Is(err, pstream.ErrEnd) {
					return
				}
				if err != nil {
					errs <- err
					return
				}
				// Spot-check payload integrity on a sample; events alone
				// (unresolved proxies) are the common path.
				if it.Event.Seq%251 == 0 {
					v, err := it.Value(ctx)
					if err != nil {
						errs <- err
						return
					}
					if len(v) != itemSize || v[0] != byte(it.Event.Seq) {
						errs <- fmt.Errorf("consumer %d: corrupt item seq %d", c, it.Event.Seq)
						return
					}
				}
				if err := it.Ack(ctx); err != nil {
					errs <- err
					return
				}
				consumed[c]++
			}
		}(c)
	}

	prod := pstream.NewProducer[[]byte](st, cb, "bulk", pstream.WithEvictOnAck(consumers))
	buf := make([]byte, itemSize)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < items; i++ {
			buf[0] = byte(i + 1) // Seq starts at 1
			if err := prod.Send(ctx, buf, nil); err != nil {
				errs <- err
				return
			}
		}
		if err := prod.Close(ctx); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for c := 0; c < consumers; c++ {
		if consumed[c] != items {
			t.Fatalf("consumer %d consumed %d items, want %d", c, consumed[c], items)
		}
	}

	dataBytes := uint64(items) * itemSize
	brokerBytes := cb.BytesPublished() + cb.BytesDelivered()
	perEvent := brokerBytes / uint64((items+1)*(consumers+1)) // +End, pub+2×deliver
	t.Logf("data plane: %d MiB stored; metadata plane: %d KiB total, %d B/event",
		dataBytes>>20, brokerBytes>>10, perEvent)
	if perEvent > 1024 {
		t.Fatalf("per-event broker cost = %d bytes, want O(KB) (<=1024)", perEvent)
	}
	if brokerBytes*100 > dataBytes {
		t.Fatalf("broker moved %d bytes, more than 1%% of the %d data bytes",
			brokerBytes, dataBytes)
	}

	// Evict-on-ack reclaimed every item: nothing left in the data plane.
	if m := st.Metrics(); m.Evicts != uint64(items) {
		t.Fatalf("store Evicts = %d, want %d", m.Evicts, items)
	}
}

// --- Broker bytes vs payload sanity over redis data plane ----------------

func TestKVBrokerWithRedisDataPlane(t *testing.T) {
	// Metadata and data planes share one kvstore server, as they would in a
	// deployment that reuses redis for both.
	ctx := context.Background()
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	name := "pstream-redis-" + connector.NewID()[:12]
	st, err := store.New(name, redisc.New(srv.Addr()), store.WithSerializer(serial.Raw()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Unregister(name)
	b := pstream.NewKV(srv.Addr())
	defer b.Close()

	payload := bytes.Repeat([]byte{0xAB}, 512<<10)
	prod := pstream.NewProducer[[]byte](st, b, "rd", pstream.WithEvictOnAck(1))
	if err := prod.Send(ctx, payload, nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	prod.Close(ctx)

	cons, err := pstream.NewConsumer[[]byte](ctx, b, "rd", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	v, err := cons.NextValue(ctx)
	if err != nil {
		t.Fatalf("NextValue: %v", err)
	}
	if !bytes.Equal(v, payload) {
		t.Fatal("payload corrupted crossing shared kv server")
	}
	if _, err := cons.NextValue(ctx); !errors.Is(err, pstream.ErrEnd) {
		t.Fatalf("want ErrEnd, got %v", err)
	}
}

func TestMemBrokerCloseWakesBlockedNext(t *testing.T) {
	ctx := context.Background()
	b := pstream.NewMem()
	sub, err := b.Subscribe(ctx, "idle", "c")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := sub.Next(ctx)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Next park
	b.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Next returned nil after broker close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked after broker Close")
	}
}
