package kvstore

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"
)

// expireMargin bounds how long past its deadline the expiry loop may
// take to delete a key on a loaded machine.
const expireMargin = 500 * time.Millisecond

// TestExpirePSetExKeyIsGone: a PSETEX key is readable until its deadline
// and then gone from GET, KEYS and DBSIZE with no client action.
func TestExpirePSetExKeyIsGone(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	const ttl = 100 * time.Millisecond
	set := time.Now()
	if err := PSetEx(ctx, cli, "hb:a", ttl, []byte("1")); err != nil {
		t.Fatalf("PSetEx: %v", err)
	}
	if v, ok, err := Get(ctx, cli, "hb:a"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get before the deadline = %q %v %v", v, ok, err)
	}
	for {
		_, ok, err := Get(ctx, cli, "hb:a")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !ok {
			break
		}
		if time.Since(set) > ttl+expireMargin {
			t.Fatalf("key still present %v after a %v PSETEX", time.Since(set), ttl)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if took := time.Since(set); took < ttl {
		t.Fatalf("key gone after %v, before its %v deadline", took, ttl)
	}
	keys, err := Keys(ctx, cli, "hb:")
	if err != nil || len(keys) != 0 {
		t.Fatalf("KEYS after expiry = %v, %v; want none", keys, err)
	}
	if n, err := cli.DBSize(ctx); err != nil || n != 0 {
		t.Fatalf("DBSIZE after expiry = %d, %v; want 0", n, err)
	}
}

// TestExpirePExpireRefreshesOnlyALiveKey: PEXPIRE replies 1 and moves
// the deadline of a present key, and replies 0 on an absent key and on a
// key past its deadline that the loop has not deleted yet.
func TestExpirePExpireRefreshesOnlyALiveKey(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	if ok, err := PExpire(ctx, cli, "absent", time.Second); err != nil || ok {
		t.Fatalf("PEXPIRE on an absent key = %v, %v; want false", ok, err)
	}
	const ttl = 150 * time.Millisecond
	if err := PSetEx(ctx, cli, "hb:a", ttl, []byte("1")); err != nil {
		t.Fatalf("PSetEx: %v", err)
	}
	if ok, err := PExpire(ctx, cli, "hb:a", 4*ttl); err != nil || !ok {
		t.Fatalf("PEXPIRE on a live key = %v, %v; want true", ok, err)
	}
	time.Sleep(2 * ttl)
	if _, ok, err := Get(ctx, cli, "hb:a"); err != nil || !ok {
		t.Fatalf("key extended to %v gone after %v: %v %v", 4*ttl, 2*ttl, ok, err)
	}

	// Past its deadline but not yet deleted: a server without its expiry
	// loop holds the key there.
	s := &Server{data: make(map[string][]byte), notify: newNotifier()}
	if r := s.execute(command{name: "PSETEX", args: [][]byte{[]byte("k"), []byte("1000"), []byte("v")}}); r.kind == respError {
		t.Fatalf("PSETEX: %s", r.str)
	}
	s.expires["k"] = expiry{ttl: time.Second, at: time.Now().Add(-time.Millisecond)}
	if r := s.execute(command{name: "PEXPIRE", args: [][]byte{[]byte("k"), []byte("1000")}}); r.kind != respInteger || r.num != 0 {
		t.Fatalf("PEXPIRE past the deadline = %+v, want 0", r)
	}
	if !s.expires["k"].at.Before(time.Now()) {
		t.Fatal("PEXPIRE past the deadline moved it")
	}
	for _, bad := range []string{"0", "-5", "x"} {
		if r := s.execute(command{name: "PSETEX", args: [][]byte{[]byte("k"), []byte(bad), []byte("v")}}); r.kind != respError {
			t.Errorf("PSETEX with ttl %q = %+v, want an error", bad, r)
		}
	}
}

// TestExpireDroppedByOtherWrites: every other write or delete of a key
// drops its deadline, so the key (or the one written after a delete)
// outlives it.
func TestExpireDroppedByOtherWrites(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	const ttl = 100 * time.Millisecond
	writes := map[string][][]byte{
		"SET":      {[]byte("SET"), nil, []byte("2")},
		"MSET":     {[]byte("MSET"), nil, []byte("2")},
		"CAS":      {[]byte("CAS"), nil, []byte("1"), []byte("2")},
		"INCR":     {[]byte("INCR"), nil},
		"DEL":      {[]byte("DEL"), nil},
		"DELRANGE": {[]byte("DELRANGE"), []byte("x:DELRANGE:"), []byte("0"), []byte("1")},
	}
	for name, cmd := range writes {
		key := "x:" + name + ":0"
		if err := PSetEx(ctx, cli, key, ttl, []byte("1")); err != nil {
			t.Fatalf("PSetEx: %v", err)
		}
		if cmd[1] == nil {
			cmd[1] = []byte(key)
		}
		if err := cli.Do(ctx, string(cmd[0]), cmd[1:]...).Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "DEL" || name == "DELRANGE" {
			if err := Set(ctx, cli, key, []byte("2")); err != nil {
				t.Fatalf("Set: %v", err)
			}
		}
	}
	time.Sleep(ttl + expireMargin/2)
	for name := range writes {
		if v, ok, err := Get(ctx, cli, "x:"+name+":0"); err != nil || !ok || string(v) != "2" {
			t.Errorf("key after PSETEX then %s = %q %v %v; want \"2\", kept", name, v, ok, err)
		}
	}
}

// TestExpireWakesPrefixWaiter: an expiry is a DEL to the wait protocol,
// so a TWAITPREFIX over the key wakes on it.
func TestExpireWakesPrefixWaiter(t *testing.T) {
	_, cli := newPair(t, nil, nil)
	ctx := context.Background()
	const ttl = 100 * time.Millisecond
	if err := PSetEx(ctx, cli, "m:h:a", ttl, []byte("1")); err != nil {
		t.Fatalf("PSetEx: %v", err)
	}
	seq, err := cli.WaitPrefix(ctx, "m:h:", 0, time.Second)
	if err != nil {
		t.Fatalf("seed WaitPrefix: %v", err)
	}
	start := time.Now()
	if _, err := cli.WaitPrefix(ctx, "m:h:", seq, 10*time.Second); err != nil {
		t.Fatalf("WaitPrefix: %v", err)
	}
	if took := time.Since(start); took > ttl+expireMargin {
		t.Fatalf("WaitPrefix woke after %v, not on the %v expiry", took, ttl)
	}
	if n, err := Exists(ctx, cli, "m:h:a"); err != nil || n != 0 {
		t.Fatalf("key after the wake: exists=%d %v; want gone", n, err)
	}
}

// lastRecord returns the final record of the log at path.
func lastRecord(t *testing.T, path string) aofRecord {
	t.Helper()
	recs, _, err := splitAOFRecords(readAll(t, path))
	if err != nil || len(recs) == 0 {
		t.Fatalf("log %s: %d records, %v", path, len(recs), err)
	}
	return recs[len(recs)-1]
}

// TestExpireReplicaAppliesPrimaryDel: a following replica never expires a
// key on its own clock, even when its deadline has passed there; the key
// goes with the primary's DEL, at the primary's log offset. Once promoted,
// the replica arms the deadline afresh and expires the key itself.
func TestExpireReplicaAppliesPrimaryDel(t *testing.T) {
	prim, repl, pc, rc := newPrimaryReplica(t)
	ctx := context.Background()
	const ttl = 300 * time.Millisecond
	if err := PSetEx(ctx, pc, "hb:a", ttl, []byte("1")); err != nil {
		t.Fatalf("PSetEx: %v", err)
	}
	waitFor(t, "replica sync", func() bool {
		_, ok, _ := Get(ctx, rc, "hb:a")
		return ok
	})
	// The replica's own deadline is due at once; only the primary's may
	// remove the key.
	repl.mu.Lock()
	repl.expires["hb:a"] = expiry{ttl: ttl, at: time.Now().Add(-time.Millisecond)}
	repl.mu.Unlock()
	repl.expiryWake <- struct{}{}
	time.Sleep(50 * time.Millisecond)
	if _, ok, err := Get(ctx, rc, "hb:a"); err != nil || !ok {
		t.Fatalf("replica expired a key on its own clock: %v %v", ok, err)
	}
	waitFor(t, "the primary's expiry on the replica", func() bool {
		_, ok, _ := Get(ctx, rc, "hb:a")
		return !ok
	})
	dir := filepath.Dir(prim.aofPath)
	waitFor(t, "replica offset", func() bool {
		return bytes.Equal(readAll(t, filepath.Join(dir, "replica.aof")), readAll(t, filepath.Join(dir, "primary.aof")))
	})
	if rec := lastRecord(t, filepath.Join(dir, "replica.aof")); rec.op != aofDel || string(rec.key) != "hb:a" {
		t.Fatalf("replica log ends with op %d key %q, want the primary's DEL of hb:a", rec.op, rec.key)
	}

	if err := PSetEx(ctx, pc, "hb:b", ttl, []byte("1")); err != nil {
		t.Fatalf("PSetEx: %v", err)
	}
	waitFor(t, "replica sync", func() bool {
		_, ok, _ := Get(ctx, rc, "hb:b")
		return ok
	})
	pc.Close()
	if err := prim.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rc.Do(ctx, "PROMOTE").Err(); err != nil {
		t.Fatalf("PROMOTE: %v", err)
	}
	promoted := time.Now()
	if _, ok, err := Get(ctx, rc, "hb:b"); err != nil || !ok {
		t.Fatalf("promoted replica lost hb:b at once: %v %v", ok, err)
	}
	waitFor(t, "the promoted replica's own expiry", func() bool {
		_, ok, _ := Get(ctx, rc, "hb:b")
		return !ok
	})
	if took := time.Since(promoted); took > ttl+expireMargin {
		t.Fatalf("promoted replica expired hb:b after %v, want within %v", took, ttl+expireMargin)
	}
	if rec := lastRecord(t, filepath.Join(dir, "replica.aof")); rec.op != aofDel || string(rec.key) != "hb:b" {
		t.Fatalf("promoted replica's log ends with op %d key %q, want its DEL of hb:b", rec.op, rec.key)
	}
}

// TestExpireArmedAfreshOnReload: a restarted server arms a persisted
// deadline ttl from its reload, then expires the key itself.
func TestExpireArmedAfreshOnReload(t *testing.T) {
	aof := filepath.Join(t.TempDir(), "hb.aof")
	srv, cli := newPair(t, []ServerOption{WithPersistence(aof)}, nil)
	ctx := context.Background()
	const ttl = 200 * time.Millisecond
	if err := PSetEx(ctx, cli, "hb:a", ttl, []byte("1")); err != nil {
		t.Fatalf("PSetEx: %v", err)
	}
	cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	time.Sleep(ttl)
	_, cli2 := newPair(t, []ServerOption{WithPersistence(aof)}, nil)
	reloaded := time.Now()
	if _, ok, err := Get(ctx, cli2, "hb:a"); err != nil || !ok {
		t.Fatalf("reloaded key gone at once: %v %v", ok, err)
	}
	waitFor(t, "expiry after reload", func() bool {
		_, ok, _ := Get(ctx, cli2, "hb:a")
		return !ok
	})
	if took := time.Since(reloaded); took > ttl+expireMargin {
		t.Fatalf("reloaded key expired after %v, want within %v", took, ttl+expireMargin)
	}
}
