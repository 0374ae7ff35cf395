package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// aofStateAfter replays the complete records at the start of raw into a
// fresh map — the straight-line definition of "state after N log bytes"
// that loadAOF must agree with.
func aofStateAfter(t *testing.T, raw []byte) map[string][]byte {
	t.Helper()
	dummy := &Server{data: make(map[string][]byte)}
	recs, _, err := splitAOFRecords(raw)
	if err != nil {
		t.Fatalf("splitAOFRecords: %v", err)
	}
	for _, rec := range recs {
		if err := dummy.applyRecordLocked(rec); err != nil {
			t.Fatalf("applyRecordLocked: %v", err)
		}
	}
	return dummy.data
}

func snapshotData(s *Server) map[string][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.data))
	for k, v := range s.data {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

func sameState(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}

// TestAOFConcurrentSetDelRestart is the regression test for the append-
// order bug: del used to append its AOF record after releasing s.mu, so
// a concurrent SET could persist in the opposite order it applied and a
// restart would resurrect (or lose) the key. Hammer one key from two
// writers, then assert the restarted state matches the final live state.
func TestAOFConcurrentSetDelRestart(t *testing.T) {
	aof := filepath.Join(t.TempDir(), "kv.aof")
	srv, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	setter := NewClient(srv.Addr())
	deleter := NewClient(srv.Addr())
	ctx := context.Background()

	const ops = 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			if err := Set(ctx, setter, "contested", []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("Set: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			if _, err := Del(ctx, deleter, "contested"); err != nil {
				t.Errorf("Del: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	setter.Close()
	deleter.Close()

	live := snapshotData(srv)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	srv2, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	restored := snapshotData(srv2)
	if !sameState(live, restored) {
		t.Fatalf("restart diverged: live=%q restored=%q", live, restored)
	}
}

// writeAOFRun produces a small but representative log: sets, overwrites,
// deletes, an INCR, a DELRANGE sweep, an LAPPEND, an MSET, a PSETEX, a
// PEXPIRE, an expiry's DEL, a FLUSHALL, and writes after it.
func writeAOFRun(t *testing.T, aof string) []byte {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	cli := NewClient(srv.Addr())
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := Set(ctx, cli, fmt.Sprintf("ps:t:e:%d", i), []byte(fmt.Sprintf("event-%d", i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if err := Set(ctx, cli, "ps:t:head", []byte("0")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if _, err := Incr(ctx, cli, "ps:t:head"); err != nil {
		t.Fatalf("Incr: %v", err)
	}
	if _, err := Del(ctx, cli, "ps:t:e:0"); err != nil {
		t.Fatalf("Del: %v", err)
	}
	if _, err := DelRange(ctx, cli, "ps:t:e:", 1, 4); err != nil {
		t.Fatalf("DelRange: %v", err)
	}
	lappend(t, cli, "ps:t:len", "ps:t:e:", "x", "y")
	if err := MSet(ctx, cli, map[string][]byte{"m1": []byte("1"), "m2": []byte("2")}); err != nil {
		t.Fatalf("MSet: %v", err)
	}
	// hb:a outlives the test; hb:b expires live. A server reloading a cut
	// that holds hb:b but not its DEL arms it afresh, and must not expire
	// it before the snapshot: its ttl is long against a reload.
	if err := PSetEx(ctx, cli, "hb:a", time.Hour, []byte("1")); err != nil {
		t.Fatalf("PSetEx: %v", err)
	}
	if ok, err := PExpire(ctx, cli, "hb:a", time.Hour); err != nil || !ok {
		t.Fatalf("PExpire = %v, %v", ok, err)
	}
	if err := PSetEx(ctx, cli, "hb:b", time.Second, []byte("2")); err != nil {
		t.Fatalf("PSetEx: %v", err)
	}
	waitFor(t, "hb:b's expiry", func() bool {
		n, err := Exists(ctx, cli, "hb:b")
		return err == nil && n == 0
	})
	if err := cli.Do(ctx, "FLUSHALL").Err(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if err := Set(ctx, cli, "after", []byte("flush")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(aof)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return raw
}

// TestAOFTorture truncates the log at every byte boundary and asserts
// the loader recovers exactly the complete-record prefix state — never a
// divergent one — and cuts the file back to the record boundary so the
// tear can never end up mid-log once appends resume.
func TestAOFTorture(t *testing.T) {
	dir := t.TempDir()
	raw := writeAOFRun(t, filepath.Join(dir, "run.aof"))
	if len(raw) == 0 {
		t.Fatal("empty AOF run")
	}
	// Record boundaries, for asserting post-load truncation.
	recs, span, err := splitAOFRecords(raw)
	if err != nil || span != len(raw) {
		t.Fatalf("run log not record-aligned: span=%d len=%d err=%v", span, len(raw), err)
	}
	ops, expired := map[byte]bool{}, false
	for _, rec := range recs {
		ops[rec.op] = true
		expired = expired || rec.op == aofDel && string(rec.key) == "hb:b"
		if rec.op == aofMulti {
			nested, _ := multiRecords(rec.val)
			for _, r := range nested {
				ops[r.op] = true
			}
		}
	}
	for op := aofSet; op <= aofExpire; op++ {
		if !ops[op] {
			t.Fatalf("run log holds no record of op %d", op)
		}
	}
	if !expired {
		t.Fatal("run log holds no expiry DEL of hb:b")
	}
	boundary := map[int]bool{0: true}
	at := 0
	for _, rec := range recs {
		at += rec.encodedLen()
		boundary[at] = true
	}

	for cut := 0; cut <= len(raw); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.aof", cut))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		srv, err := NewServer("127.0.0.1:0", WithPersistence(path))
		if err != nil {
			t.Fatalf("cut %d: load errored on a pure prefix (crash tails must recover): %v", cut, err)
		}
		want := aofStateAfter(t, raw[:cut])
		got := snapshotData(srv)
		if !sameState(want, got) {
			srv.Close()
			t.Fatalf("cut %d: divergent state: want %q got %q", cut, want, got)
		}
		srv.Close()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("Stat: %v", err)
		}
		if !boundary[int(fi.Size())] {
			t.Fatalf("cut %d: file left at %d bytes, not a record boundary", cut, fi.Size())
		}
	}
}

// TestAOFTornMiddleRefused: a tear that is NOT the file's final bytes is
// corruption, not a crash tail — load must error loudly instead of
// silently dropping every record after it.
func TestAOFTornMiddleRefused(t *testing.T) {
	dir := t.TempDir()
	raw := writeAOFRun(t, filepath.Join(dir, "run.aof"))
	recs, _, err := splitAOFRecords(raw)
	if err != nil || len(recs) < 3 {
		t.Fatalf("need ≥3 records, got %d (err=%v)", len(recs), err)
	}
	first := recs[0].encodedLen()
	second := recs[1].encodedLen()
	// First record intact, second torn mid-body, then the rest of the log.
	torn := append([]byte(nil), raw[:first+second-2]...)
	torn = append(torn, raw[first+second:]...)
	path := filepath.Join(dir, "torn-middle.aof")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	srv, err := NewServer("127.0.0.1:0", WithPersistence(path))
	if err == nil {
		srv.Close()
		t.Fatal("load accepted a torn mid-file record")
	}
	if !strings.Contains(err.Error(), "torn record") && !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unhelpful error for torn middle: %v", err)
	}
}

// TestAOFCorruptHeaderRefused: an absurd header (bad op) errors rather
// than truncating.
func TestAOFCorruptHeaderRefused(t *testing.T) {
	dir := t.TempDir()
	raw := writeAOFRun(t, filepath.Join(dir, "run.aof"))
	bad := append([]byte(nil), raw...)
	bad[0] = 200
	path := filepath.Join(dir, "bad-op.aof")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	srv, err := NewServer("127.0.0.1:0", WithPersistence(path))
	if err == nil {
		srv.Close()
		t.Fatal("load accepted a corrupt record header")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unhelpful error for corrupt header: %v", err)
	}
}

// TestAOFBrokenLatch: once an append fails, the server stops appending
// (no garbage after a torn middle), surfaces the condition via InfoText
// and AOFBroken, and Close returns the error.
func TestAOFBrokenLatch(t *testing.T) {
	aof := filepath.Join(t.TempDir(), "kv.aof")
	srv, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	cli := NewClient(srv.Addr())
	defer cli.Close()
	ctx := context.Background()
	if err := Set(ctx, cli, "ok", []byte("1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	// Break the file behind the server's back: further writes fail.
	srv.aofMu.Lock()
	srv.aof.Close()
	srv.aofMu.Unlock()
	if err := Set(ctx, cli, "broken", []byte("2")); err != nil {
		t.Fatalf("Set after break (command itself must still succeed): %v", err)
	}
	if !srv.AOFBroken() {
		t.Fatal("AOFBroken = false after failed append")
	}
	if info := srv.InfoText(); !strings.Contains(info, "server.aof_broken 1") {
		t.Fatalf("InfoText missing aof_broken flag:\n%s", info)
	}
	// The latch holds: no further append attempts mutate the size.
	srv.aofMu.Lock()
	size := srv.aofSize
	srv.aofMu.Unlock()
	if err := Set(ctx, cli, "broken2", []byte("3")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	srv.aofMu.Lock()
	size2 := srv.aofSize
	srv.aofMu.Unlock()
	if size2 != size {
		t.Fatalf("aofSize advanced after latch: %d -> %d", size, size2)
	}
	err = srv.Close()
	if err == nil || !strings.Contains(err.Error(), "append-only file broken") {
		t.Fatalf("Close did not surface the broken AOF: %v", err)
	}
	// The file holds only the records appended before the break.
	raw, rerr := os.ReadFile(aof)
	if rerr != nil {
		t.Fatalf("ReadFile: %v", rerr)
	}
	state := aofStateAfter(t, raw)
	if string(state["ok"]) != "1" || state["broken"] != nil {
		t.Fatalf("unexpected file state after latch: %q", state)
	}
}

// TestDelRangeSingleAOFRecord: a DELRANGE sweep persists as ONE range
// record, not one record per key.
func TestDelRangeSingleAOFRecord(t *testing.T) {
	aof := filepath.Join(t.TempDir(), "kv.aof")
	srv, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	cli := NewClient(srv.Addr())
	defer cli.Close()
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if err := Set(ctx, cli, fmt.Sprintf("ps:t:e:%d", i), []byte("x")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	n, err := DelRange(ctx, cli, "ps:t:e:", 0, 32)
	if err != nil || n != 32 {
		t.Fatalf("DelRange = %d, %v", n, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(aof)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	recs, span, err := splitAOFRecords(raw)
	if err != nil || span != len(raw) {
		t.Fatalf("log not record-aligned: %v", err)
	}
	var ranges, dels int
	for _, rec := range recs {
		switch rec.op {
		case aofDelRange:
			ranges++
		case aofDel:
			dels++
		}
	}
	if ranges != 1 || dels != 0 {
		t.Fatalf("DELRANGE persisted as %d range records and %d del records; want 1 and 0", ranges, dels)
	}
	// And the record replays to an empty keyspace.
	if state := aofStateAfter(t, raw); len(state) != 0 {
		t.Fatalf("replayed state not empty: %q", state)
	}
}

// TestMultiKeyWritesAreSingleAOFRecords: an n-value LAPPEND and a
// multi-pair MSET each persist as one record, and a file cut anywhere
// inside one reloads with none of its keys — never a log length without
// its slots, nor half an MSET.
func TestMultiKeyWritesAreSingleAOFRecords(t *testing.T) {
	dir := t.TempDir()
	aof := filepath.Join(dir, "kv.aof")
	srv, err := NewServer("127.0.0.1:0", WithPersistence(aof))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	cli := NewClient(srv.Addr())
	defer cli.Close()
	ctx := context.Background()
	if n := lappend(t, cli, "ps:t:len", "ps:t:e:", "a", "b", "c"); n != 3 {
		t.Fatalf("LAPPEND = %d, want 3", n)
	}
	if err := MSet(ctx, cli, map[string][]byte{"x": []byte("1"), "y": []byte("2")}); err != nil {
		t.Fatalf("MSet: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(aof)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	recs, span, err := splitAOFRecords(raw)
	if err != nil || span != len(raw) || len(recs) != 2 || recs[0].op != aofMulti || recs[1].op != aofMulti {
		t.Fatalf("LAPPEND and MSET persisted as %d records (err %v); want one multi record each", len(recs), err)
	}
	appended := map[string][]byte{"ps:t:len": []byte("3"),
		"ps:t:e:0": []byte("a"), "ps:t:e:1": []byte("b"), "ps:t:e:2": []byte("c")}
	all := map[string][]byte{"x": []byte("1"), "y": []byte("2")}
	for k, v := range appended {
		all[k] = v
	}
	first := recs[0].encodedLen()
	for cut := 0; cut <= len(raw); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.aof", cut))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		srv, err := NewServer("127.0.0.1:0", WithPersistence(path))
		if err != nil {
			t.Fatalf("cut %d: load: %v", cut, err)
		}
		got := snapshotData(srv)
		srv.Close()
		want := map[string][]byte{}
		if cut == len(raw) {
			want = all
		} else if cut >= first {
			want = appended
		}
		if !sameState(want, got) {
			t.Fatalf("cut %d: reloaded %q, want %q", cut, got, want)
		}
	}
}
