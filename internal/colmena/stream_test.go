package colmena

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/local"
	"proxystore/internal/connectors/redisc"
	"proxystore/internal/kvstore"
	"proxystore/internal/proxy"
	"proxystore/internal/pstream"
	"proxystore/internal/store"
)

// newStreamServer wires a StreamServer over the given broker with a fresh
// local store.
func newStreamServer(t *testing.T, b pstream.Broker, workers int) *StreamServer {
	t.Helper()
	t.Cleanup(func() { b.Close() })
	id := connector.NewID()[:8]
	st, err := store.New("colmena-stream-"+id, local.New("colmena-stream-conn-"+id))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("colmena-stream-" + id) })
	s, err := NewStreamServer(st, b, "srv-"+id, workers, 64)
	if err != nil {
		t.Fatalf("NewStreamServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// awaitResult reads one Result with a timeout so a broken stream fails
// fast instead of hanging the suite.
func awaitResult(t *testing.T, s *StreamServer) Result {
	t.Helper()
	select {
	case res := <-s.Results():
		return res
	case <-time.After(60 * time.Second):
		t.Fatal("no result within 60s")
		return Result{}
	}
}

func TestStreamSubmitAndReceiveResult(t *testing.T) {
	s := newStreamServer(t, pstream.NewMem(), 2)
	s.RegisterMethod("noop", func(_ context.Context, in any) (any, error) {
		return in, nil
	})
	ctx := context.Background()
	if err := s.Submit(ctx, "noop", []byte("task input"), "tag-1"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res := awaitResult(t, s)
	if res.Err != nil {
		t.Fatalf("result error: %v", res.Err)
	}
	if res.Tag != "tag-1" || res.Method != "noop" {
		t.Fatalf("result = %+v", res)
	}
	if !bytes.Equal(res.Value.([]byte), []byte("task input")) {
		t.Fatalf("Value = %v", res.Value)
	}
	if res.RTT() <= 0 {
		t.Fatal("RTT not positive")
	}
}

func TestStreamUnknownMethod(t *testing.T) {
	s := newStreamServer(t, pstream.NewMem(), 1)
	if err := s.Submit(context.Background(), "ghost", nil, nil); err == nil {
		t.Fatal("Submit accepted unknown method")
	}
}

func TestStreamMethodErrorPropagates(t *testing.T) {
	s := newStreamServer(t, pstream.NewMem(), 1)
	s.RegisterMethod("boom", func(context.Context, any) (any, error) {
		return nil, fmt.Errorf("simulation diverged")
	})
	if err := s.Submit(context.Background(), "boom", nil, "tag"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res := awaitResult(t, s)
	if res.Err == nil {
		t.Fatal("method error did not propagate")
	}
	if res.Tag != "tag" {
		t.Fatalf("Tag = %v", res.Tag)
	}
}

func TestStreamInputProxiedAboveThreshold(t *testing.T) {
	s := newStreamServer(t, pstream.NewMem(), 1)
	st, err := store.New("colmena-sin", local.New("colmena-sin-conn"))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("colmena-sin") })

	sawBytes := make(chan bool, 1)
	s.RegisterMethod("check", func(_ context.Context, in any) (any, error) {
		_, isBytes := in.([]byte)
		sawBytes <- isBytes
		return nil, nil
	})
	s.RegisterStore("check", StorePolicy{Store: st, Threshold: 1024})

	ctx := context.Background()
	if err := s.Submit(ctx, "check", make([]byte, 10_000), nil); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res := awaitResult(t, s)
	if res.Err != nil {
		t.Fatalf("result error: %v", res.Err)
	}
	if !<-sawBytes {
		t.Fatal("method did not receive resolved bytes")
	}
	// The input landed in the method's registered policy store, not just
	// the server's stream store.
	if st.Metrics().Proxies != 1 {
		t.Fatalf("policy store minted %d proxies, want 1", st.Metrics().Proxies)
	}
}

func TestStreamResultProxying(t *testing.T) {
	s := newStreamServer(t, pstream.NewMem(), 1)
	st, err := store.New("colmena-sout", local.New("colmena-sout-conn"))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("colmena-sout") })
	s.RegisterMethod("produce", func(context.Context, any) (any, error) {
		return make([]byte, 50_000), nil
	})
	s.RegisterStore("produce", StorePolicy{Store: st, Threshold: 1024, ProxyResults: true})

	ctx := context.Background()
	if err := s.Submit(ctx, "produce", nil, nil); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res := awaitResult(t, s)
	if res.Err != nil {
		t.Fatalf("result error: %v", res.Err)
	}
	p, isProxy := res.Value.(*proxy.Proxy[[]byte])
	if !isProxy {
		t.Fatalf("result value is %T, want a proxy", res.Value)
	}
	data, err := ResolveResult(ctx, p)
	if err != nil {
		t.Fatalf("ResolveResult: %v", err)
	}
	if len(data.([]byte)) != 50_000 {
		t.Fatalf("resolved %d bytes", len(data.([]byte)))
	}
}

func TestStreamTwoInstancesSameNameRouteResultsHome(t *testing.T) {
	// Two processes (here: two StreamServers) hosting the same server
	// name share one task topic — their worker pools form one group — but
	// each instance's results must flow back to the instance that holds
	// the submission, whichever instance's worker executed it.
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	mk := func(tag string) *StreamServer {
		b := pstream.NewKV(srv.Addr())
		t.Cleanup(func() { b.Close() })
		st, err := store.New("colmena-twin-"+tag, redisc.New(srv.Addr()))
		if err != nil {
			t.Fatalf("store.New: %v", err)
		}
		t.Cleanup(func() { store.Unregister("colmena-twin-" + tag) })
		s, err := NewStreamServer(st, b, "twin", 2, 64)
		if err != nil {
			t.Fatalf("NewStreamServer: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		s.RegisterMethod("echo", func(_ context.Context, in any) (any, error) { return in, nil })
		return s
	}
	id := connector.NewID()[:8]
	s1, s2 := mk(id+"-1"), mk(id+"-2")

	ctx := context.Background()
	const per = 4
	for i := 0; i < per; i++ {
		if err := s1.Submit(ctx, "echo", []byte("one"), fmt.Sprintf("a%d", i)); err != nil {
			t.Fatalf("s1 Submit: %v", err)
		}
		if err := s2.Submit(ctx, "echo", []byte("two"), fmt.Sprintf("b%d", i)); err != nil {
			t.Fatalf("s2 Submit: %v", err)
		}
	}
	for name, s := range map[string]*StreamServer{"a": s1, "b": s2} {
		seen := make(map[any]bool)
		for i := 0; i < per; i++ {
			res := awaitResult(t, s)
			if res.Err != nil {
				t.Fatalf("instance %s result error: %v", name, res.Err)
			}
			tag := res.Tag.(string)
			if tag[:1] != name {
				t.Fatalf("instance %s received tag %q — another instance's result", name, tag)
			}
			if seen[tag] {
				t.Fatalf("instance %s saw tag %q twice", name, tag)
			}
			seen[tag] = true
		}
	}
}

func TestStreamOverKVBrokerPushDelivery(t *testing.T) {
	// The steering loop over the kvstore metadata plane: several rounds of
	// submissions flow submit→claim→execute→result with the broker moving
	// only event records (workers park in server-side blocking waits
	// between tasks).
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	cb := pstream.NewCounting(pstream.NewKV(srv.Addr()))
	t.Cleanup(func() { cb.Close() })
	id := connector.NewID()[:8]
	st, err := store.New("colmena-kv-"+id, redisc.New(srv.Addr()))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("colmena-kv-" + id) })
	s, err := NewStreamServer(st, cb, "kvsrv-"+id, 2, 64)
	if err != nil {
		t.Fatalf("NewStreamServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })

	payload := make([]byte, 128<<10)
	s.RegisterMethod("size", func(_ context.Context, in any) (any, error) {
		return len(in.([]byte)), nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const tasks = 6
	for i := 0; i < tasks; i++ {
		if err := s.Submit(ctx, "size", payload, i); err != nil {
			t.Fatalf("Submit #%d: %v", i, err)
		}
	}
	seen := make(map[int]bool)
	for i := 0; i < tasks; i++ {
		res := awaitResult(t, s)
		if res.Err != nil {
			t.Fatalf("result error: %v", res.Err)
		}
		if res.Value.(int) != len(payload) {
			t.Fatalf("Value = %v", res.Value)
		}
		tag := res.Tag.(int)
		if seen[tag] {
			t.Fatalf("tag %d delivered twice", tag)
		}
		seen[tag] = true
	}
	brokerBytes := cb.BytesPublished() + cb.BytesDelivered()
	if brokerBytes > 128<<10 {
		t.Fatalf("broker moved %d bytes for %d tasks of %d-byte inputs", brokerBytes, tasks, len(payload))
	}
}

// refusingPuts is a connector whose puts fail at once.
type refusingPuts struct{ connector.Connector }

func (refusingPuts) Put(context.Context, []byte) (connector.Key, error) {
	return connector.Key{}, errors.New("put refused")
}

func TestStreamSubmitFailureReleasesInFlightSlot(t *testing.T) {
	// Regression: a Submit whose input could not be proxied into the
	// method's policy store kept its in-flight slot, so once a window's
	// worth of such failures had piled up every later Submit blocked.
	s := newStreamServer(t, pstream.NewMem(), 1)
	id := connector.NewID()[:8]
	bad, err := store.New("colmena-refuse-"+id, refusingPuts{local.New("colmena-refuse-conn-" + id)})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("colmena-refuse-" + id) })
	s.RegisterMethod("echo", func(_ context.Context, in any) (any, error) { return in, nil })
	s.RegisterMethod("refused", func(_ context.Context, in any) (any, error) { return in, nil })
	s.RegisterStore("refused", StorePolicy{Store: bad, Threshold: 1})

	submit := func(method string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return s.Submit(ctx, method, []byte("input"), method)
	}
	for i := 0; i <= pstream.TaskWindow; i++ {
		if err := submit("refused"); err == nil {
			t.Fatalf("Submit #%d into a refusing policy store succeeded", i)
		} else if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Submit #%d blocked on a full in-flight window: %v", i, err)
		}
	}
	if err := submit("echo"); err != nil {
		t.Fatalf("healthy Submit after %d failures: %v", pstream.TaskWindow+1, err)
	}
	if res := awaitResult(t, s); res.Err != nil || res.Tag != "echo" {
		t.Fatalf("result = %+v", res)
	}
}

// futureTap shows seen the value of every result future set through it,
// before the set reaches the server.
type futureTap struct {
	kvstore.KV
	prefix string
	seen   func(val []byte)
}

func (f *futureTap) Do(ctx context.Context, name string, args ...[]byte) kvstore.PipeReply {
	if name == "CAS" && strings.HasPrefix(string(args[0]), f.prefix) {
		f.seen(args[2])
	}
	return f.KV.Do(ctx, name, args...)
}

func TestStreamServerChurnSweepsKilledInstanceResults(t *testing.T) {
	// An instance killed with a ProxyResults result still owed to it
	// leaves that result in a future nobody will await. A surviving
	// instance's sweep must evict both the result payload and the
	// policy-store target of the proxy embedded in it.
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	id := connector.NewID()[:8]
	st, err := store.New("colmena-kill-"+id, local.New("colmena-kill-conn-"+id))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("colmena-kill-" + id) })
	pst, err := store.New("colmena-kill-p-"+id, local.New("colmena-kill-p-conn-"+id))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("colmena-kill-p-" + id) })

	// The tap reads each result as it is set, before any sweep can reach
	// it, and reports the stored payload and the embedded proxy's target.
	type target struct {
		st  *store.Store
		key connector.Key
	}
	name := "kill-" + id
	found := make(chan []target, 1)
	tap := &futureTap{prefix: "ps:" + resultTopic(name) + ":f:", seen: func(val []byte) {
		var targets []target
		defer func() {
			select {
			case found <- targets:
			default: // a re-run's set: the first one is the case under test
			}
		}()
		ev, err := pstream.DecodeEvent(val)
		if err != nil {
			return
		}
		pxy := new(proxy.Proxy[streamResult])
		if pxy.UnmarshalBinary(ev.ProxyData) != nil {
			return
		}
		if rst, key, ok, err := store.KeyOf(pxy); err == nil && ok {
			targets = append(targets, target{rst, key})
		}
		if r, err := pxy.Value(context.Background()); err == nil {
			if p := embeddedProxy(r); p != nil {
				if pst, key, ok, err := store.KeyOf(p); err == nil && ok {
					targets = append(targets, target{pst, key})
				}
			}
		}
	}}
	b := pstream.NewKV(srv.Addr(),
		pstream.WithKVLease(time.Second),
		pstream.WithKVHeartbeatTTL(200*time.Millisecond),
		pstream.WithKVWrap(func(inner kvstore.KV) kvstore.KV { tap.KV = inner; return tap }))
	t.Cleanup(func() { b.Close() })

	// Both instances' workers hold the task until release, so the
	// submitter is dead before any result exists.
	release := make(chan struct{})
	mk := func() *StreamServer {
		s, err := NewStreamServer(st, b, name, 1, 64)
		if err != nil {
			t.Fatalf("NewStreamServer: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		s.RegisterMethod("produce", func(context.Context, any) (any, error) {
			<-release
			return make([]byte, 50_000), nil
		})
		s.RegisterStore("produce", StorePolicy{Store: pst, Threshold: 1024, ProxyResults: true})
		return s
	}
	doomed, survivor := mk(), mk()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := doomed.Submit(ctx, "produce", nil, nil); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The client half dies first; the worker pool's Close waits for the
	// held task, which may be running on either instance.
	doomed.c.Kill()
	killed := make(chan struct{})
	go func() {
		doomed.Kill()
		close(killed)
	}()
	close(release)
	<-killed

	// Whichever worker ran the task, its result, carrying a policy-store
	// proxy, is set in the dead instance's future.
	var targets []target
	select {
	case targets = <-found:
	case <-ctx.Done():
		t.Fatal("no result was set")
	}
	if len(targets) != 2 {
		t.Fatalf("the result set yields %d stored targets, want its payload and the embedded proxy's", len(targets))
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := survivor.SweepResults(ctx); err != nil {
			t.Fatalf("SweepResults: %v", err)
		}
		left := 0
		for _, tg := range targets {
			if ok, err := tg.st.Exists(ctx, tg.key); err != nil {
				t.Fatalf("Exists: %v", err)
			} else if ok {
				left++
			}
		}
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d orphaned payloads still stored after sweeps", left, len(targets))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestStreamServerCloseReturnsServerKeysToBaseline(t *testing.T) {
	// The twin of faas's executor test: generations of instances that
	// submit, drain their results and Close cleanly must leave no
	// per-instance keys on the kv server — each result future is deleted
	// once awaited, Close leaves the thinkers group, and its workers leave
	// the worker group, trimming the task topic they share (two instances
	// of the name run at once) to the group's floor.
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	b := pstream.NewKV(srv.Addr(),
		pstream.WithKVLease(2*time.Second),
		pstream.WithKVHeartbeatTTL(200*time.Millisecond))
	t.Cleanup(func() { b.Close() })

	id := connector.NewID()[:8]
	st, err := store.New("colmena-leak-"+id, local.New("colmena-leak-conn-"+id))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { store.Unregister("colmena-leak-" + id) })

	ctx := context.Background()
	cli := kvstore.NewClient(srv.Addr())
	t.Cleanup(func() { cli.Close() })

	// The count is polled briefly, as in faas's twin test.
	generation := func(ceiling int64) int64 {
		var twins [2]*StreamServer
		for j := range twins {
			s, err := NewStreamServer(st, b, "leak-"+id, 2, 64)
			if err != nil {
				t.Fatalf("NewStreamServer: %v", err)
			}
			s.RegisterMethod("echo", func(_ context.Context, in any) (any, error) { return in, nil })
			twins[j] = s
		}
		for i := 0; i < 8; i++ {
			for _, s := range twins {
				if err := s.Submit(ctx, "echo", i, i); err != nil {
					t.Fatalf("Submit: %v", err)
				}
			}
			for _, s := range twins {
				if res := awaitResult(t, s); res.Err != nil || res.Tag != i {
					t.Fatalf("result = %+v, want tag %d", res, i)
				}
			}
		}
		for _, s := range twins {
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
		var n int64
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n, err = cli.DBSize(ctx); err != nil {
				t.Fatalf("DBSize: %v", err)
			}
			if n <= ceiling || time.Now().After(deadline) {
				return n
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// The baseline is the task topic's counter and floor, and the group's
	// floor and registration: 4 keys, however many tasks or instances have
	// been through.
	first := generation(6)
	second := generation(first)
	if second > first {
		t.Fatalf("server keys grew across instance generations: %d -> %d", first, second)
	}
	if first > 6 {
		t.Fatalf("baseline server key count = %d, want <= 6", first)
	}
}
