package kvstore

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Expiring keys: see the package doc.

// expiry is one key's deadline on this server's clock, and the ttl that
// set it, kept so a reload or promotion can arm it afresh.
type expiry struct {
	ttl time.Duration
	at  time.Time
}

// parseTTL reads the millisecond ttl of PSETEX, PEXPIRE and an aofExpire
// record, which holds the argument as sent.
func parseTTL(arg []byte) (time.Duration, error) {
	ms, err := strconv.ParseInt(string(arg), 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, fmt.Errorf("invalid expire time %q", arg)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// cmdPSetEx is PSETEX key ms value: SET with a deadline ms from now,
// persisted with it as one aofMulti record.
func (s *Server) cmdPSetEx(a [][]byte) value {
	ttl, err := parseTTL(a[1])
	if err != nil {
		return errorValue("ERR " + err.Error())
	}
	key := string(a[0])
	s.mu.Lock()
	s.data[key] = a[2]
	s.expireLocked(key, ttl)
	if s.aof != nil {
		rec := appendAOFRecord(nil, aofSet, key, a[2])
		s.appendAOF(aofMulti, "", appendAOFRecord(rec, aofExpire, key, a[1]))
	}
	s.mu.Unlock()
	s.notify.published(key)
	return simpleString("OK")
}

// cmdPExpire is PEXPIRE key ms: it moves the deadline of a present key to
// ms from now and replies 1, or replies 0 when the key is absent or past
// its deadline. It wakes no waiters: no value changed.
func (s *Server) cmdPExpire(a [][]byte) value {
	ttl, err := parseTTL(a[1])
	if err != nil {
		return errorValue("ERR " + err.Error())
	}
	key := string(a[0])
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.data[key]
	if e, has := s.expires[key]; !ok || has && !time.Now().Before(e.at) {
		return integerValue(0)
	}
	s.expireLocked(key, ttl)
	s.appendAOF(aofExpire, key, a[1])
	return integerValue(1)
}

// expireLocked gives key a deadline ttl from now, waking the expiry loop
// when it is earlier than the deadline the loop is timed for. Callers
// hold s.mu.
func (s *Server) expireLocked(key string, ttl time.Duration) {
	at := time.Now().Add(ttl)
	if s.expires == nil {
		s.expires = make(map[string]expiry)
	}
	s.expires[key] = expiry{ttl: ttl, at: at}
	if s.nextExpiry.IsZero() || at.Before(s.nextExpiry) {
		s.nextExpiry = at
		select {
		case s.expiryWake <- struct{}{}:
		default:
		}
	}
}

// persistLocked drops key's deadline, if it has one. Callers hold s.mu.
func (s *Server) persistLocked(key string) {
	if len(s.expires) > 0 {
		delete(s.expires, key)
	}
}

// rearmExpiries arms every deadline afresh, ttl from now, for a promoted
// replica.
func (s *Server) rearmExpiries() {
	s.mu.Lock()
	s.nextExpiry = time.Time{} // a replica's loop was timed for nothing
	for key, e := range s.expires {
		s.expireLocked(key, e.ttl)
	}
	s.mu.Unlock()
}

// expireLoop deletes due keys until the server closes, waking at the
// earliest deadline or from expireLocked. A following replica deletes
// nothing on its own clock: it applies its primary's DELs.
func (s *Server) expireLoop() {
	defer s.connWG.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		var fire <-chan time.Time
		if !s.isReadonlyReplica() {
			if next := s.expireDue(); !next.IsZero() {
				timer.Reset(time.Until(next))
				fire = timer.C
			}
		}
		select {
		case <-fire:
		case <-s.expiryWake:
		case <-s.notify.done:
			return
		}
	}
}

// expireDue deletes every key past its deadline as DEL does, and returns
// the earliest deadline left (zero when none is).
func (s *Server) expireDue() time.Time {
	now := time.Now()
	var due []string
	var next time.Time
	s.mu.Lock()
	for key, e := range s.expires {
		if now.Before(e.at) {
			if next.IsZero() || e.at.Before(next) {
				next = e.at
			}
			continue
		}
		delete(s.expires, key)
		delete(s.data, key)
		s.appendAOF(aofDel, key, nil)
		due = append(due, key)
	}
	s.nextExpiry = next
	s.mu.Unlock()
	if len(due) > 0 {
		s.notify.published(due...)
	}
	return next
}
