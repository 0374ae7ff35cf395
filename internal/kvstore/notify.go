package kvstore

import (
	"strings"
	"sync"
)

// notifyRingCap bounds the recent-writes ring the notifier keeps so a
// TWAITPREFIX can prove "nothing under this prefix changed since seq N"
// without scanning the keyspace. A caller whose N is older than the ring's
// reach gets a conservative immediate wake (it rescans and comes back with
// a fresh sequence), so the ring trades memory for spurious wakes, never
// for missed ones.
const notifyRingCap = 4096

// ringEntry is one recorded mutation.
type ringEntry struct {
	seq uint64
	key string
	// isPrefix marks a ranged mutation (DELRANGE): key holds the range's
	// prefix and the entry matches any overlapping prefix watch.
	isPrefix bool
	// all marks a whole-keyspace mutation (FLUSHALL).
	all bool
}

// match reports whether the entry is relevant to a watch on prefix.
func (e ringEntry) match(prefix string) bool {
	if e.all {
		return true
	}
	if e.isPrefix {
		// Two prefixes overlap iff one extends the other.
		return strings.HasPrefix(e.key, prefix) || strings.HasPrefix(prefix, e.key)
	}
	return strings.HasPrefix(e.key, prefix)
}

// keyWaiter is one blocked TWAITGET. Its channel is closed exactly once, on
// wake; the waiter re-registers for further rounds.
type keyWaiter struct {
	ch chan struct{}
}

// prefixWaiter is one blocked TWAITPREFIX.
type prefixWaiter struct {
	prefix string
	ch     chan struct{}
}

// notifier is the server's wait/notify registry: blocked TWAITGET/TWAITPREFIX
// handlers park here and every mutation wakes the watchers it affects. The
// registry has its own mutex, so a parked waiter never holds (or contends
// for) the data mutex, and writers notify after releasing it — the
// register-then-check discipline on the wait side makes that ordering
// lossless.
type notifier struct {
	mu  sync.Mutex
	seq uint64
	// ring is a circular recent-writes log; count is how many entries are
	// populated, next the slot the following entry lands in.
	ring  [notifyRingCap]ringEntry
	count int
	next  int

	byKey    map[string][]*keyWaiter
	byPrefix map[*prefixWaiter]struct{}

	closed bool
	// done is closed by close(); parked handlers select on it so
	// Server.Close never waits out a blocked TWAITGET.
	done chan struct{}
}

func newNotifier() *notifier {
	return &notifier{
		byKey:    make(map[string][]*keyWaiter),
		byPrefix: make(map[*prefixWaiter]struct{}),
		done:     make(chan struct{}),
	}
}

// record appends a mutation to the ring. Callers hold n.mu.
func (n *notifier) record(e ringEntry) {
	n.seq++
	e.seq = n.seq
	n.ring[n.next] = e
	n.next = (n.next + 1) % notifyRingCap
	if n.count < notifyRingCap {
		n.count++
	}
}

// wakeKey wakes every waiter parked on exactly key. Callers hold n.mu.
func (n *notifier) wakeKey(key string) {
	if ws, ok := n.byKey[key]; ok {
		for _, w := range ws {
			close(w.ch)
		}
		delete(n.byKey, key)
	}
}

// wakePrefixes wakes every prefix waiter whose watch matches e. Callers
// hold n.mu.
func (n *notifier) wakePrefixes(e ringEntry) {
	for w := range n.byPrefix {
		if e.match(w.prefix) {
			close(w.ch)
			delete(n.byPrefix, w)
		}
	}
}

// published records mutations of the given keys and wakes affected
// waiters. Call after the data mutation is visible, without holding the
// data mutex.
func (n *notifier) published(keys ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	for _, key := range keys {
		e := ringEntry{key: key}
		n.record(e)
		n.wakeKey(key)
		n.wakePrefixes(e)
	}
}

// publishedRange records a ranged mutation under prefix (DELRANGE) and
// wakes overlapping watchers — including exact-key waiters whose key falls
// under the prefix.
func (n *notifier) publishedRange(prefix string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	e := ringEntry{key: prefix, isPrefix: true}
	n.record(e)
	for key := range n.byKey {
		if strings.HasPrefix(key, prefix) {
			n.wakeKey(key)
		}
	}
	n.wakePrefixes(e)
}

// publishedAll records a whole-keyspace mutation (FLUSHALL) and wakes
// everyone.
func (n *notifier) publishedAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.record(ringEntry{all: true})
	for key := range n.byKey {
		n.wakeKey(key)
	}
	for w := range n.byPrefix {
		close(w.ch)
		delete(n.byPrefix, w)
	}
}

// registerKey parks a waiter on key. Returns nil when the notifier is
// closed. The caller must check the data map AFTER registering: a write
// landing between its last check and registration is then caught either by
// the re-check or by the wake that follows the write.
func (n *notifier) registerKey(key string) *keyWaiter {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	w := &keyWaiter{ch: make(chan struct{})}
	n.byKey[key] = append(n.byKey[key], w)
	return w
}

// cancelKey removes a still-parked waiter (timeout, shutdown paths). A
// waiter already woken is gone from the registry and this is a no-op.
func (n *notifier) cancelKey(key string, w *keyWaiter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ws := n.byKey[key]
	for i, cand := range ws {
		if cand == w {
			ws[i] = ws[len(ws)-1]
			ws = ws[:len(ws)-1]
			if len(ws) == 0 {
				delete(n.byKey, key)
			} else {
				n.byKey[key] = ws
			}
			return
		}
	}
}

// registerPrefix parks a waiter on prefix unless a matching mutation with
// sequence > after already happened, in which case it fires immediately
// (fired=true, no waiter registered). cur is the current sequence either
// way. Four immediate-fire cases keep the primitive lossless, seedable
// and restart-safe: after=0 (by definition a seed — the caller wants the
// current sequence, not a wait); a recorded matching entry newer than
// after; an `after` older than the ring's reach (cannot prove silence —
// conservative wake); and an `after` from a previous server incarnation
// (after > seq).
func (n *notifier) registerPrefix(prefix string, after uint64) (w *prefixWaiter, cur uint64, fired bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, n.seq, false
	}
	if after == 0 || after > n.seq || after < n.seq-uint64(n.count) {
		return nil, n.seq, true
	}
	for i := 0; i < int(n.seq-after); i++ {
		idx := (n.next - 1 - i + notifyRingCap) % notifyRingCap
		e := n.ring[idx]
		if e.seq <= after {
			break
		}
		if e.match(prefix) {
			return nil, n.seq, true
		}
	}
	w = &prefixWaiter{prefix: prefix, ch: make(chan struct{})}
	n.byPrefix[w] = struct{}{}
	return w, n.seq, false
}

// cancelPrefix removes a still-parked prefix waiter.
func (n *notifier) cancelPrefix(w *prefixWaiter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.byPrefix, w)
}

// currentSeq returns the mutation sequence number.
func (n *notifier) currentSeq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seq
}

// close wakes every parked waiter and rejects future registrations, so a
// server shutdown hangs up blocked waits exactly like idle connections.
func (n *notifier) close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	close(n.done)
	for key := range n.byKey {
		n.wakeKey(key)
	}
	for w := range n.byPrefix {
		close(w.ch)
		delete(n.byPrefix, w)
	}
}
