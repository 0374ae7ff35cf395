package kvstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// newPrimaryReplica starts a persisted primary and a replica following it
// (each with its own AOF), plus clients for both.
func newPrimaryReplica(t *testing.T) (prim, repl *Server, pc, rc *Client) {
	t.Helper()
	dir := t.TempDir()
	prim, err := NewServer("127.0.0.1:0", WithPersistence(filepath.Join(dir, "primary.aof")))
	if err != nil {
		t.Fatalf("NewServer(primary): %v", err)
	}
	t.Cleanup(func() { prim.Close() })
	repl, err = NewServer("127.0.0.1:0",
		WithPersistence(filepath.Join(dir, "replica.aof")),
		WithReplicaOf(prim.Addr()))
	if err != nil {
		t.Fatalf("NewServer(replica): %v", err)
	}
	t.Cleanup(func() { repl.Close() })
	pc = NewClient(prim.Addr())
	t.Cleanup(func() { pc.Close() })
	rc = NewClient(repl.Addr())
	t.Cleanup(func() { rc.Close() })
	return prim, repl, pc, rc
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", path, err)
	}
	return raw
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReplicationCatchUp(t *testing.T) {
	_, _, pc, rc := newPrimaryReplica(t)
	ctx := context.Background()

	// Writes made before the replica syncs and after both replicate.
	for i := 0; i < 10; i++ {
		if err := Set(ctx, pc, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if _, err := Del(ctx, pc, "k3"); err != nil {
		t.Fatalf("Del: %v", err)
	}
	// The replica applies records in order, so once it holds a write made
	// after the Del, the Del has been applied too.
	if err := Set(ctx, pc, "synced", []byte("1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	waitFor(t, "replica catch-up", func() bool {
		_, ok, err := Get(ctx, rc, "synced")
		return err == nil && ok
	})
	if v, ok, _ := Get(ctx, rc, "k9"); !ok || string(v) != "v9" {
		t.Fatalf("k9 on replica = %q, %v; want v9", v, ok)
	}
	if _, ok, _ := Get(ctx, rc, "k3"); ok {
		t.Fatal("deleted key visible on replica")
	}
	// Live tail: a fresh write flows through the established feed.
	if err := Set(ctx, pc, "late", []byte("tail")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	waitFor(t, "live tail replication", func() bool {
		v, ok, err := Get(ctx, rc, "late")
		return err == nil && ok && string(v) == "tail"
	})
}

// TestReplicaRejectsWrites: a following replica refuses a command of the
// command table if and only if its row writes, and serves the others.
// PROMOTE, which ends the following, goes last.
func TestReplicaRejectsWrites(t *testing.T) {
	_, _, _, rc := newPrimaryReplica(t)
	ctx := context.Background()
	var promote *Command
	for i := range commandTable {
		c := &commandTable[i]
		if c.Name == "PROMOTE" {
			promote = c
			continue
		}
		switch err := rc.Do(ctx, c.Name, rowArgs(t, c)...).Err(); {
		case c.Writes && (err == nil || !strings.Contains(err.Error(), "readonly replica")):
			t.Errorf("%s on replica = %v, want readonly error", c.Name, err)
		case !c.Writes && err != nil:
			t.Errorf("%s on replica: %v", c.Name, err)
		}
	}
	p := rc.Pipeline()
	app := p.Do("LAPPEND", []byte("len"), []byte("slot:"), []byte("x"))
	p.Exec(ctx)
	if err := app.Err(); err == nil || !strings.Contains(err.Error(), "readonly replica") {
		t.Fatalf("pipelined LAPPEND on replica = %v, want readonly error", err)
	}
	if err := rc.Do(ctx, promote.Name, rowArgs(t, promote)...).Err(); err != nil {
		t.Fatalf("PROMOTE on replica: %v", err)
	}
}

func TestReplicaPromoteCommand(t *testing.T) {
	_, _, pc, rc := newPrimaryReplica(t)
	ctx := context.Background()
	if err := Set(ctx, pc, "seed", []byte("1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	waitFor(t, "replica sync", func() bool {
		_, ok, _ := Get(ctx, rc, "seed")
		return ok
	})
	if err := rc.Do(ctx, "PROMOTE").Err(); err != nil {
		t.Fatalf("PROMOTE: %v", err)
	}
	if err := Set(ctx, rc, "post", []byte("promoted")); err != nil {
		t.Fatalf("Set after PROMOTE: %v", err)
	}
	raw, _, err := rc.Do(ctx, "INFO").Bytes()
	info := string(raw)
	if err != nil || !strings.Contains(info, "server.role primary") {
		t.Fatalf("promoted replica INFO role: %v\n%s", err, info)
	}
}

// TestReplicationDrainOnClose: a gracefully closed primary hands the
// COMPLETE log to its replica before hanging up — every write it acked is
// on the survivor, deterministically, with no settling sleep.
func TestReplicationDrainOnClose(t *testing.T) {
	prim, _, pc, rc := newPrimaryReplica(t)
	ctx := context.Background()
	if err := Set(ctx, pc, "sync", []byte("1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	waitFor(t, "replica attach", func() bool {
		_, ok, _ := Get(ctx, rc, "sync")
		return ok
	})
	// A burst the replica has likely not applied yet when Close starts.
	for i := 0; i < 200; i++ {
		if err := Set(ctx, pc, fmt.Sprintf("burst%d", i), []byte("x")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if err := prim.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// No waiting: everything acked to the client must already be here.
	v, ok, err := Get(ctx, rc, "burst199")
	if err != nil || !ok || string(v) != "x" {
		t.Fatalf("drained write missing on replica after primary Close: %v %v %q", ok, err, v)
	}
}

// TestReplicaAutoPromotes: when the primary dies, the replica latches
// standalone and starts accepting writes — the client failover path needs
// somewhere for retried writes to land even before an explicit PROMOTE.
func TestReplicaAutoPromotes(t *testing.T) {
	prim, _, pc, rc := newPrimaryReplica(t)
	ctx := context.Background()
	if err := Set(ctx, pc, "seed", []byte("1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	waitFor(t, "replica sync", func() bool {
		_, ok, _ := Get(ctx, rc, "seed")
		return ok
	})
	pc.Close()
	if err := prim.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitFor(t, "auto-promotion", func() bool {
		return Set(ctx, rc, "failover", []byte("landed")) == nil
	})
	v, ok, err := Get(ctx, rc, "seed")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("pre-failover state lost: %v %v %q", ok, err, v)
	}
}

// TestReplicaRestartResumes: a restarted replica resumes replication from
// its own AOF size instead of re-pulling the whole log.
func TestReplicaRestartResumes(t *testing.T) {
	dir := t.TempDir()
	prim, err := NewServer("127.0.0.1:0", WithPersistence(filepath.Join(dir, "primary.aof")))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer prim.Close()
	pc := NewClient(prim.Addr())
	defer pc.Close()
	ctx := context.Background()

	replAOF := filepath.Join(dir, "replica.aof")
	repl, err := NewServer("127.0.0.1:0", WithPersistence(replAOF), WithReplicaOf(prim.Addr()))
	if err != nil {
		t.Fatalf("NewServer(replica): %v", err)
	}
	rc := NewClient(repl.Addr())
	if err := Set(ctx, pc, "gen1", []byte("a")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	waitFor(t, "first sync", func() bool {
		_, ok, _ := Get(ctx, rc, "gen1")
		return ok
	})
	rc.Close()
	if err := repl.Close(); err != nil {
		t.Fatalf("replica Close: %v", err)
	}

	// Writes while the replica is down.
	if err := Set(ctx, pc, "gen2", []byte("b")); err != nil {
		t.Fatalf("Set: %v", err)
	}

	before := prim.reg.Counter("kv.repl.bytes_out").Value()
	repl2, err := NewServer("127.0.0.1:0", WithPersistence(replAOF), WithReplicaOf(prim.Addr()))
	if err != nil {
		t.Fatalf("replica restart: %v", err)
	}
	defer repl2.Close()
	rc2 := NewClient(repl2.Addr())
	defer rc2.Close()
	waitFor(t, "resume catch-up", func() bool {
		_, ok, _ := Get(ctx, rc2, "gen2")
		return ok
	})
	if _, ok, _ := Get(ctx, rc2, "gen1"); !ok {
		t.Fatal("state from first generation lost across replica restart")
	}
	// Resume means the second session shipped only the delta, not the log.
	shipped := prim.reg.Counter("kv.repl.bytes_out").Value() - before
	prim.aofMu.Lock()
	logSize := uint64(prim.aofSize)
	prim.aofMu.Unlock()
	if shipped >= logSize {
		t.Fatalf("restart re-shipped the whole log: %d of %d bytes", shipped, logSize)
	}
}

// TestReplicateRequiresPersistence: a primary without an AOF has no log
// to ship; the replica hears a fatal rejection and serves standalone.
func TestReplicateRequiresPersistence(t *testing.T) {
	prim, err := NewServer("127.0.0.1:0") // no AOF
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer prim.Close()
	repl, err := NewServer("127.0.0.1:0", WithReplicaOf(prim.Addr()))
	if err != nil {
		t.Fatalf("NewServer(replica): %v", err)
	}
	defer repl.Close()
	rc := NewClient(repl.Addr())
	defer rc.Close()
	ctx := context.Background()
	waitFor(t, "standalone latch after rejection", func() bool {
		return Set(ctx, rc, "k", []byte("v")) == nil
	})
}

// TestReplicaWakesParkedWaits: a WAITGET parked on the replica wakes when
// the record arrives over replication — after failover, consumers parked
// on the survivor see writes without re-polling.
func TestReplicaWakesParkedWaits(t *testing.T) {
	_, _, pc, rc := newPrimaryReplica(t)
	ctx := context.Background()
	if err := Set(ctx, pc, "sync", []byte("1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	waitFor(t, "replica sync", func() bool {
		_, ok, _ := Get(ctx, rc, "sync")
		return ok
	})
	// The wait's own timeout would also return the value, so only a wake
	// well inside it proves the replicated record woke the waiter.
	wakes := func(key, want string, write func()) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			v, ok, err := rc.WaitGet(ctx, key, 10*time.Second)
			if err == nil && (!ok || string(v) != want) {
				err = fmt.Errorf("WaitGet = %q, %v", v, ok)
			}
			done <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the wait park
		write()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("wait parked on replica key %s: %v", key, err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("replicated write did not wake the wait parked on %s", key)
		}
	}
	wakes("parked", "woken", func() {
		if err := Set(ctx, pc, "parked", []byte("woken")); err != nil {
			t.Errorf("Set: %v", err)
		}
	})
	// A replicated LAPPEND wakes a wait parked on the slot it fills.
	wakes("slot:0", "appended", func() { lappend(t, pc, "len", "slot:", "appended") })
}

// TestReplicaAOFIsPrefixOfPrimary: the replica's own log is a
// byte-identical prefix of the primary's — the invariant that makes its
// file size a valid resume offset.
func TestReplicaAOFIsPrefixOfPrimary(t *testing.T) {
	prim, repl, pc, rc := newPrimaryReplica(t)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if err := Set(ctx, pc, fmt.Sprintf("k%d", i), []byte(strings.Repeat("x", i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if _, err := DelRange(ctx, pc, "k", 10, 20); err != nil {
		t.Fatalf("DelRange: %v", err)
	}
	waitFor(t, "full catch-up", func() bool {
		repl.aofMu.Lock()
		rs := repl.aofSize
		repl.aofMu.Unlock()
		prim.aofMu.Lock()
		ps := prim.aofSize
		prim.aofMu.Unlock()
		return rs == ps
	})
	_ = rc
	praw := readAll(t, prim.aofPath)
	rraw := readAll(t, repl.aofPath)
	if string(praw) != string(rraw) {
		t.Fatalf("replica AOF diverged from primary's (%d vs %d bytes)", len(rraw), len(praw))
	}
}
