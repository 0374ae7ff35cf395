package msgnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"proxystore/internal/netsim"
)

func echoServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestRequestReply(t *testing.T) {
	srv := echoServer(t)
	cli := NewClient(srv.Addr())
	defer cli.Close()
	got, err := cli.Request(context.Background(), []byte("ping"))
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if string(got) != "ping" {
		t.Fatalf("Request = %q", got)
	}
}

func TestHandlerErrorSurfaces(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(context.Context, []byte) ([]byte, error) {
		return nil, fmt.Errorf("handler exploded")
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	cli := NewClient(srv.Addr())
	defer cli.Close()
	_, err = cli.Request(context.Background(), []byte("x"))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("handler exploded")) {
		t.Fatalf("Request error = %v", err)
	}
}

func TestEmptyFrames(t *testing.T) {
	srv := echoServer(t)
	cli := NewClient(srv.Addr())
	defer cli.Close()
	got, err := cli.Request(context.Background(), nil)
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("Request = %d bytes, want 0", len(got))
	}
}

func TestLargeFrame(t *testing.T) {
	srv := echoServer(t)
	cli := NewClient(srv.Addr())
	defer cli.Close()
	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i * 13)
	}
	got, err := cli.Request(context.Background(), big)
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large frame corrupted")
	}
}

func TestConcurrentRequests(t *testing.T) {
	srv := echoServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := NewClient(srv.Addr())
			defer cli.Close()
			for i := 0; i < 10; i++ {
				msg := []byte(fmt.Sprintf("g%d-%d", g, i))
				got, err := cli.Request(context.Background(), msg)
				if err != nil {
					t.Errorf("Request: %v", err)
					return
				}
				if !bytes.Equal(got, msg) {
					t.Errorf("Request = %q, want %q", got, msg)
				}
			}
		}(g)
	}
	wg.Wait()
	if srv.Requests() != 80 {
		t.Fatalf("Requests = %d, want 80", srv.Requests())
	}
}

func TestClientReusesPooledConnections(t *testing.T) {
	srv := echoServer(t)
	cli := NewClient(srv.Addr())
	defer cli.Close()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := cli.Request(ctx, []byte("x")); err != nil {
			t.Fatalf("Request #%d: %v", i, err)
		}
	}
}

// closeWithin runs srv.Close and fails the test if it takes longer than d.
func closeWithin(t *testing.T, srv *Server, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(d):
		t.Fatalf("Close did not return within %v", d)
	}
}

func TestCloseCutsIdleConnections(t *testing.T) {
	// The client's pooled connection stays open and idle after its request:
	// the server's handler is parked reading it, and Close must hang up on
	// it rather than wait for the peer to leave.
	srv := echoServer(t)
	cli := NewClient(srv.Addr())
	defer cli.Close()
	if _, err := cli.Request(context.Background(), []byte("x")); err != nil {
		t.Fatalf("Request: %v", err)
	}
	closeWithin(t, srv, time.Second)
}

func TestCloseCancelsBlockedHandlers(t *testing.T) {
	entered := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", func(ctx context.Context, _ []byte) ([]byte, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	cli := NewClient(srv.Addr())
	defer cli.Close()
	go cli.Request(context.Background(), []byte("block"))
	<-entered
	closeWithin(t, srv, time.Second)
}

func TestRequestHonorsContextWhileHandlerStalls(t *testing.T) {
	release := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		if string(req) == "stall" {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return req, nil
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	defer close(release)
	cli := NewClient(srv.Addr())
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := cli.Request(ctx, []byte("stall"))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Request = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Request still blocked 10s after its context expired")
	}
	got, err := cli.Request(context.Background(), []byte("next"))
	if err != nil || string(got) != "next" {
		t.Fatalf("Request after cancel = %q, %v; want \"next\"", got, err)
	}
}

func TestNetworkShapedDelay(t *testing.T) {
	n := netsim.New(1)
	n.AddSite("c", true)
	n.AddSite("s", true)
	n.SetLink("c", "s", netsim.Link{Latency: 10 * time.Millisecond})
	srv := echoServer(t)
	cli := NewClient(srv.Addr(), WithClientNetwork(n, "c", "s"))
	defer cli.Close()
	start := time.Now()
	if _, err := cli.Request(context.Background(), []byte("x")); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("Request took %v, want >= 20ms", elapsed)
	}
}

func TestFrameCodecProperty(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFrameRejectsOversizedPrefix(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("ReadFrame accepted oversized length prefix")
	}
}
