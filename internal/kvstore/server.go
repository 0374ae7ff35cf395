package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/telemetry"
)

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithPersistence makes the server append every write to path and replay it
// at startup — the hybrid memory/disk storage of the paper's Redis channel.
func WithPersistence(path string) ServerOption {
	return func(s *Server) { s.aofPath = path }
}

// WithAOFSync makes the server fsync the persistence file after every
// append: a write is acknowledged only once it is durable on disk. This
// turns each shard's append-only log into a true commit point — and makes
// the log, not the CPU, the throughput bound, which is exactly the regime
// where adding shards buys aggregate write throughput. No-op without
// WithPersistence.
func WithAOFSync() ServerOption {
	return func(s *Server) { s.aofSync = true }
}

// WithTelemetry makes the server record its metrics into reg instead of
// a private registry — so a daemon can serve one merged /metrics view.
func WithTelemetry(reg *telemetry.Registry) ServerOption {
	return func(s *Server) { s.reg = reg }
}

// Server is a RESP2 key-value server.
type Server struct {
	ln      net.Listener
	aofPath string
	aofSync bool

	// notify parks blocked TWAITGET/TWAITPREFIX handlers and is poked by
	// every mutation. It has its own lock: waiters never hold (or block
	// behind) the data mutex, and Close wakes them like it hangs up idle
	// connections.
	notify *notifier

	mu   sync.RWMutex
	data map[string][]byte

	// aofMu guards the persistence file, its size (which doubles as the
	// replication offset), and the latched append error. aofCond is
	// broadcast on every append (and on close) to wake replication feeds
	// tailing the log. Lock order: s.mu may be held when taking aofMu
	// (mutations append while applying); never the reverse.
	aofMu   sync.Mutex
	aofCond *sync.Cond
	aof     *os.File
	aofSize int64
	aofErr  error

	// replicaOf, when set, makes the server start as a read-only replica
	// pulling the AOF record stream from the named primary; standalone
	// latches (PROMOTE command, or the stream breaking after a successful
	// sync) when the replica is promoted to serve writes itself.
	replicaOf  string
	standalone atomic.Bool
	synced     atomic.Bool
	upMu       sync.Mutex
	upstream   net.Conn

	// feeds tracks attached downstream replicas (their acked offsets), so
	// Close can drain the feed before hanging up — a gracefully stopped
	// primary never strands an acked write.
	feedMu sync.Mutex
	feeds  map[*replFeed]struct{}

	// connMu guards conns, the set of open client connections (value:
	// whether the connection is a replication feed), so Close can hang up
	// on idle clients instead of waiting for them to leave — and drain
	// replica feeds before cutting them.
	connMu sync.Mutex
	conns  map[net.Conn]bool

	closed   atomic.Bool
	connWG   sync.WaitGroup
	commands atomic.Uint64

	// reg collects the server's metrics (metric names in the package
	// doc); cmdMetrics caches per-command metric handles so the hot path
	// pays one sync.Map load instead of three registry lookups plus a
	// name concatenation per command.
	reg        *telemetry.Registry
	cmdMetrics sync.Map // command name -> *cmdMetrics
	started    time.Time

	// Server-wide metric handles, resolved once in NewServer so the hot
	// path never takes the registry lock.
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
	connGauge *telemetry.Gauge
	waiters   *telemetry.Gauge
}

// cmdMetrics is the per-command instrument bundle: how many times the
// command ran, its server-side latency (for blocking waits this is park
// time), and the approximate request+reply bytes it moved.
type cmdMetrics struct {
	count *telemetry.Counter
	ns    *telemetry.Histogram
	bytes *telemetry.Counter
}

func (s *Server) metricsFor(name string) *cmdMetrics {
	if m, ok := s.cmdMetrics.Load(name); ok {
		return m.(*cmdMetrics)
	}
	m := &cmdMetrics{
		count: s.reg.Counter("kv.cmd." + name + ".count"),
		ns:    s.reg.Histogram("kv.cmd." + name + ".ns"),
		bytes: s.reg.Counter("kv.cmd." + name + ".bytes"),
	}
	actual, _ := s.cmdMetrics.LoadOrStore(name, m)
	return actual.(*cmdMetrics)
}

// observe records one served command: count, latency, and bytes (request
// payload plus encoded reply size).
func (s *Server) observe(cmd command, start time.Time, reply value) {
	m := s.metricsFor(cmd.name)
	m.count.Inc()
	m.ns.Since(start)
	n := len(cmd.name)
	for _, a := range cmd.args {
		n += len(a)
	}
	r := reply.encodedSize()
	m.bytes.Add(uint64(n + r))
	s.bytesIn.Add(uint64(n))
	s.bytesOut.Add(uint64(r))
}

// NewServer starts a server listening on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, opts ...ServerOption) (*Server, error) {
	s := &Server{
		data:    make(map[string][]byte),
		conns:   make(map[net.Conn]bool),
		feeds:   make(map[*replFeed]struct{}),
		notify:  newNotifier(),
		started: time.Now(),
	}
	s.aofCond = sync.NewCond(&s.aofMu)
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.bytesIn = s.reg.Counter("kv.bytes_in")
	s.bytesOut = s.reg.Counter("kv.bytes_out")
	s.connGauge = s.reg.Gauge("kv.conns")
	s.waiters = s.reg.Gauge("kv.waiters")
	if s.aofPath != "" {
		if err := s.loadAOF(); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(s.aofPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("kvstore: opening persistence file: %w", err)
		}
		s.aof = f
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if s.aof != nil {
			s.aof.Close()
		}
		return nil, fmt.Errorf("kvstore: listen: %w", err)
	}
	s.ln = ln
	go s.acceptLoop()
	if s.replicaOf != "" {
		s.connWG.Add(1)
		go s.replicateLoop()
	}
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Commands returns the number of commands served.
func (s *Server) Commands() uint64 { return s.commands.Load() }

// Telemetry returns the server's metrics registry (per-command
// count/latency/bytes, live and peak waiters, open connections).
func (s *Server) Telemetry() *telemetry.Registry { return s.reg }

// InfoText renders the INFO command's reply: a few server-level lines
// (uptime, key count, connections, total commands) followed by the full
// registry snapshot in /metrics text format.
func (s *Server) InfoText() string {
	s.mu.RLock()
	keys := len(s.data)
	s.mu.RUnlock()
	s.connMu.Lock()
	conns := len(s.conns)
	s.connMu.Unlock()
	s.aofMu.Lock()
	broken := 0
	if s.aofErr != nil {
		broken = 1
	}
	offset := s.aofSize
	s.aofMu.Unlock()
	s.feedMu.Lock()
	replicas := len(s.feeds)
	s.feedMu.Unlock()
	role := "primary"
	if s.isReadonlyReplica() {
		role = "replica"
	}
	return fmt.Sprintf("server.uptime_ns %d\nserver.keys %d\nserver.conns %d\nserver.commands %d\nserver.role %s\nserver.repl_offset %d\nserver.replicas %d\nserver.aof_broken %d\n%s",
		time.Since(s.started).Nanoseconds(), keys, conns, s.commands.Load(),
		role, offset, replicas, broken,
		s.reg.Snapshot().Text())
}

// isReadonlyReplica reports whether the server is still a following
// replica: configured with WithReplicaOf and not yet promoted. Write
// commands are rejected in this state — the primary's record stream is
// the only writer, so replica state can never diverge from the log.
func (s *Server) isReadonlyReplica() bool {
	return s.replicaOf != "" && !s.standalone.Load()
}

// Close stops accepting connections, hangs up on connected clients (idle
// pooled clients would otherwise pin the server open forever), and waits
// for handlers to finish. Attached replica feeds are drained first —
// client connections are cut, then the remaining log is streamed and
// acked — so a graceful stop never strands a write that was acknowledged
// to a client. A latched AOF append error surfaces in the returned error.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.ln.Close()
	s.severUpstream()
	// Wake parked TWAITGET/TWAITPREFIX handlers before waiting on them:
	// their connections are about to be closed, and a blocked wait must
	// not pin Close for its full timeout.
	s.notify.close()
	// Cut client connections first: no further writes can land, so the
	// drain target below is final.
	s.connMu.Lock()
	for conn, isFeed := range s.conns {
		if !isFeed {
			conn.Close()
		}
	}
	s.connMu.Unlock()
	// Feeds keep streaming the tail; wait for their acks before hanging up,
	// which is what ends them.
	s.drainFeeds(replDrainTimeout)
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	var aofErr error
	if s.aof != nil {
		s.aofMu.Lock()
		aofErr = s.aofErr
		s.aof.Close()
		s.aofMu.Unlock()
	}
	if aofErr != nil {
		return errors.Join(err, fmt.Errorf("kvstore: append-only file broken (appends were dropped): %w", aofErr))
	}
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		s.conns[conn] = false
		s.connMu.Unlock()
		s.connGauge.Inc()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				s.connGauge.Dec()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	// Tagged waits (TWAITGET/TWAITPREFIX) park in their own goroutines and
	// write [tag, reply] arrays through write whenever they resolve, out of
	// order with the synchronous reply stream. The write mutex keeps frames
	// whole; connDone unparks every tagged waiter when the read loop exits,
	// so a client hangup (or Close) never waits out a full wait timeout.
	//
	// A synchronous reply is flushed only once the read buffer holds no
	// further command: the replies to a pipelined batch leave in one write
	// rather than one per command. Tagged-wait and replication frames go
	// through write, which always flushes (and so also carries out any
	// synchronous replies still buffered ahead of it).
	var wmu sync.Mutex
	writeReply := func(v value, flush bool) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := writeValue(w, v); err != nil {
			return err
		}
		if !flush {
			return nil
		}
		return w.Flush()
	}
	write := func(v value) error { return writeReply(v, true) }
	connDone := make(chan struct{})
	var waitWG sync.WaitGroup
	var inflight atomic.Int64
	defer func() {
		close(connDone)
		waitWG.Wait()
	}()
	for {
		v, err := readValue(r)
		if err != nil {
			return
		}
		cmd, err := parseCommand(v)
		var reply value
		if err != nil {
			reply = errorValue("ERR " + err.Error())
		} else if cmd.name == "REPLICATE" {
			// The feed takes the connection over: from here on it carries
			// only streamed record chunks downstream and ACK frames back.
			s.commands.Add(1)
			s.serveReplication(cmd, conn, r, write)
			return
		} else if handled, sync := s.startTaggedWait(cmd, write, connDone, &waitWG, &inflight); handled {
			s.commands.Add(1)
			if sync != nil {
				if err := write(*sync); err != nil {
					return
				}
			}
			continue
		} else {
			start := time.Now()
			reply = s.execute(cmd)
			s.observe(cmd, start, reply)
		}
		s.commands.Add(1)
		if err := writeReply(reply, r.Buffered() == 0); err != nil {
			return
		}
	}
}

// maxConnTaggedWaits bounds how many tagged waits one connection may have
// parked at once, so a misbehaving client cannot grow goroutines without
// limit. Rejections are tagged error replies, visible to the one wait that
// overflowed rather than the whole connection.
const maxConnTaggedWaits = 4096

// taggedReply frames a tagged wait's resolution as [tag, reply].
func taggedReply(tag []byte, v value) value {
	return arrayValue([]value{bulkValue(tag), v})
}

// startTaggedWait handles TWAITGET/TWAITPREFIX. It reports whether cmd was
// a tagged wait it accepted responsibility for; when the wait could not
// even start (bad arguments, overload), sync carries the immediate tagged
// error reply for the caller to write in-line.
func (s *Server) startTaggedWait(cmd command, write func(value) error, cancel <-chan struct{}, wg *sync.WaitGroup, inflight *atomic.Int64) (handled bool, sync *value) {
	if cmd.name != "TWAITGET" && cmd.name != "TWAITPREFIX" {
		return false, nil
	}
	if len(cmd.args) < 1 {
		v := errorValue("ERR wrong number of arguments for '" + cmd.name + "'")
		return true, &v
	}
	tag := cmd.args[0]
	fail := func(msg string) (bool, *value) {
		v := taggedReply(tag, errorValue(msg))
		return true, &v
	}
	if inflight.Load() >= maxConnTaggedWaits {
		return fail("ERR too many in-flight tagged waits")
	}
	switch cmd.name {
	case "TWAITGET":
		if len(cmd.args) != 3 {
			return fail("ERR wrong number of arguments for 'twaitget'")
		}
		ms, err := strconv.ParseInt(string(cmd.args[2]), 10, 64)
		if err != nil || ms <= 0 {
			return fail("ERR timeout is not a positive integer")
		}
		key := string(cmd.args[1])
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			start := time.Now()
			rep := taggedReply(tag, s.waitGet(key, clampWait(ms), cancel))
			s.observe(cmd, start, rep)
			write(rep)
		}()
		return true, nil
	default: // TWAITPREFIX
		if len(cmd.args) != 4 {
			return fail("ERR wrong number of arguments for 'twaitprefix'")
		}
		after, err1 := strconv.ParseUint(string(cmd.args[2]), 10, 64)
		ms, err2 := strconv.ParseInt(string(cmd.args[3]), 10, 64)
		if err1 != nil || err2 != nil || ms <= 0 {
			return fail("ERR value is not an integer or out of range")
		}
		prefix := string(cmd.args[1])
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			start := time.Now()
			rep := taggedReply(tag, s.waitPrefix(prefix, after, clampWait(ms), cancel))
			s.observe(cmd, start, rep)
			write(rep)
		}()
		return true, nil
	}
}

func (s *Server) execute(cmd command) value {
	switch cmd.name {
	case "SET", "MSET", "DEL", "INCR", "CAS", "DELRANGE", "LAPPEND", "FLUSHALL":
		if s.isReadonlyReplica() {
			// A following replica's only writer is the primary's record
			// stream; direct writes would fork its state from the log.
			return errorValue("ERR readonly replica")
		}
	}
	switch cmd.name {
	case "PING":
		if len(cmd.args) == 1 {
			return bulkValue(cmd.args[0])
		}
		return simpleString("PONG")
	case "SET":
		if len(cmd.args) != 2 {
			return errorValue("ERR wrong number of arguments for 'set'")
		}
		key := string(cmd.args[0])
		s.set(key, cmd.args[1])
		s.notify.published(key)
		return simpleString("OK")
	case "GET":
		if len(cmd.args) != 1 {
			return errorValue("ERR wrong number of arguments for 'get'")
		}
		data, ok := s.get(string(cmd.args[0]))
		if !ok {
			return nullBulk()
		}
		return bulkValue(data)
	case "DEL":
		var n int64
		for _, a := range cmd.args {
			key := string(a)
			if s.del(key) {
				n++
				s.notify.published(key)
			}
		}
		return integerValue(n)
	case "EXISTS":
		var n int64
		for _, a := range cmd.args {
			if _, ok := s.get(string(a)); ok {
				n++
			}
		}
		return integerValue(n)
	case "MGET":
		out := make([]value, len(cmd.args))
		s.mu.RLock()
		for i, a := range cmd.args {
			out[i] = s.bulkLocked(string(a))
		}
		s.mu.RUnlock()
		return arrayValue(out)
	case "MSET":
		if len(cmd.args) == 0 || len(cmd.args)%2 != 0 {
			return errorValue("ERR wrong number of arguments for 'mset'")
		}
		s.mu.Lock()
		keys, err := s.setAllLocked(cmd.args)
		s.mu.Unlock()
		if err != nil {
			return errorValue("ERR " + err.Error())
		}
		s.notify.published(keys...)
		return simpleString("OK")
	case "LAPPEND":
		if len(cmd.args) < 3 {
			return errorValue("ERR wrong number of arguments for 'lappend'")
		}
		n, keys, err := s.lappend(cmd.args)
		if err != nil {
			return errorValue("ERR " + err.Error())
		}
		s.notify.published(keys...)
		return integerValue(n)
	case "LREAD":
		return s.lread(cmd.args)
	case "INCR":
		if len(cmd.args) != 1 {
			return errorValue("ERR wrong number of arguments for 'incr'")
		}
		key := string(cmd.args[0])
		n, err := s.incr(key)
		if err != nil {
			return errorValue("ERR " + err.Error())
		}
		s.notify.published(key)
		return integerValue(n)
	case "CAS":
		if len(cmd.args) != 3 {
			return errorValue("ERR wrong number of arguments for 'cas'")
		}
		key := string(cmd.args[0])
		if s.cas(key, cmd.args[1], cmd.args[2]) {
			s.notify.published(key)
			return integerValue(1)
		}
		return integerValue(0)
	case "DELRANGE":
		if len(cmd.args) != 3 {
			return errorValue("ERR wrong number of arguments for 'delrange'")
		}
		start, err1 := strconv.ParseUint(string(cmd.args[1]), 10, 64)
		end, err2 := strconv.ParseUint(string(cmd.args[2]), 10, 64)
		if err1 != nil || err2 != nil {
			return errorValue("ERR value is not an integer or out of range")
		}
		prefix := string(cmd.args[0])
		n, err := s.delRange(prefix, start, end)
		if err != nil {
			return errorValue("ERR " + err.Error())
		}
		if n > 0 {
			s.notify.publishedRange(prefix)
		}
		return integerValue(n)
	case "DBSIZE":
		s.mu.RLock()
		n := int64(len(s.data))
		s.mu.RUnlock()
		return integerValue(n)
	case "INFO":
		if len(cmd.args) != 0 {
			return errorValue("ERR wrong number of arguments for 'info'")
		}
		return bulkValue([]byte(s.InfoText()))
	case "FLUSHALL":
		s.mu.Lock()
		s.data = make(map[string][]byte)
		s.appendAOF(aofFlush, "", nil)
		s.mu.Unlock()
		s.notify.publishedAll()
		return simpleString("OK")
	case "PROMOTE":
		// Stop following the primary (if any) and serve writes. Idempotent,
		// and a harmless no-op on a server that never replicated — so a
		// failover client can send it unconditionally.
		s.promote()
		return simpleString("OK")
	}
	return errorValue(fmt.Sprintf("ERR unknown command '%s'", cmd.name))
}

// maxWaitMS caps a server-side blocking wait at one minute: clients
// re-issue waits in rounds, and an unbounded wait would pin its handler
// goroutine and its client-side tag arbitrarily long.
const maxWaitMS = 60_000

// clampWait converts a client-supplied timeout to a bounded duration.
func clampWait(ms int64) time.Duration {
	if ms > maxWaitMS {
		ms = maxWaitMS
	}
	return time.Duration(ms) * time.Millisecond
}

// waitGet blocks until key holds a value (returned as a bulk string) or
// the timeout lapses (null bulk). The handler registers a waiter BEFORE
// checking the data map, so a write landing between check and park is
// never missed; wakes caused by deletes simply re-park. A server shutdown
// wakes the waiter with an error reply, and a close of cancel (the owning
// connection went away) unparks it too.
func (s *Server) waitGet(key string, timeout time.Duration, cancel <-chan struct{}) value {
	s.waiters.Inc()
	defer s.waiters.Dec()
	deadline := time.Now().Add(timeout)
	for {
		w := s.notify.registerKey(key)
		if w == nil {
			return errorValue("ERR server closed")
		}
		if v, ok := s.get(key); ok {
			s.notify.cancelKey(key, w)
			return bulkValue(v)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			s.notify.cancelKey(key, w)
			return nullBulk()
		}
		timer := time.NewTimer(remain)
		select {
		case <-w.ch:
			timer.Stop()
			// Woken by a mutation of key: loop to re-read it. A delete wake
			// finds nothing and parks again.
		case <-timer.C:
			s.notify.cancelKey(key, w)
			// A write may have raced the timer; prefer the value.
			if v, ok := s.get(key); ok {
				return bulkValue(v)
			}
			return nullBulk()
		case <-cancel:
			timer.Stop()
			s.notify.cancelKey(key, w)
			return errorValue("ERR connection closed")
		case <-s.notify.done:
			timer.Stop()
			s.notify.cancelKey(key, w)
			return errorValue("ERR server closed")
		}
	}
}

// waitPrefix blocks until any key under prefix is mutated with sequence
// number > after, then returns the current mutation sequence (an integer
// reply). The timeout path also returns the current sequence — callers
// rescan either way and carry the returned sequence into their next wait,
// so the wake itself carries no payload and can afford to be conservative
// (ring overflow, server restart) without ever being lossy.
func (s *Server) waitPrefix(prefix string, after uint64, timeout time.Duration, cancel <-chan struct{}) value {
	s.waiters.Inc()
	defer s.waiters.Dec()
	w, cur, fired := s.notify.registerPrefix(prefix, after)
	if fired {
		return integerValue(int64(cur))
	}
	if w == nil {
		return errorValue("ERR server closed")
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ch:
	case <-timer.C:
		s.notify.cancelPrefix(w)
	case <-cancel:
		s.notify.cancelPrefix(w)
		return errorValue("ERR connection closed")
	case <-s.notify.done:
		s.notify.cancelPrefix(w)
		return errorValue("ERR server closed")
	}
	return integerValue(int64(s.notify.currentSeq()))
}

// set stores the value and appends its AOF record while still holding the
// data mutex: releasing first would let two writes of one key persist in
// reversed order, replaying (or replicating) to the older value. val is
// kept as is: readValue gives every bulk argument its own allocation.
func (s *Server) set(key string, val []byte) {
	s.mu.Lock()
	s.data[key] = val
	s.appendAOF(aofSet, key, val)
	s.mu.Unlock()
}

func (s *Server) get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
}

// incr atomically adds one to the integer stored at key (missing keys
// count as 0) and returns the new value. The read-modify-write happens
// under the store lock, so concurrent INCRs of one key never lose
// updates. The AOF record is appended while still holding the store lock:
// releasing first would let two increments persist in reversed order,
// replaying to a lower counter after restart.
func (s *Server) incr(key string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.intLocked(key)
	if err != nil {
		return 0, err
	}
	cur++
	buf := []byte(strconv.FormatInt(cur, 10))
	s.data[key] = buf
	s.appendAOF(aofSet, key, buf)
	return cur, nil
}

// intLocked reads the integer stored at key, a missing key reading as 0.
// Callers hold s.mu.
func (s *Server) intLocked(key string) (int64, error) {
	v, ok := s.data[key]
	if !ok {
		return 0, nil
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("value is not an integer or out of range")
	}
	return n, nil
}

// setAllLocked stores every key/value pair of pairs (k1 v1 k2 v2 ...) and
// persists them as one aofMulti record, so no reader, restart or replica
// sees part of the write. It returns the keys. Callers hold s.mu.
func (s *Server) setAllLocked(pairs [][]byte) ([]string, error) {
	keys := make([]string, len(pairs)/2)
	size := 0
	for i := range keys {
		keys[i] = string(pairs[2*i])
		size += aofHeaderLen + len(keys[i]) + len(pairs[2*i+1])
	}
	if size > maxBulkLen {
		return nil, fmt.Errorf("write of %d bytes exceeds limit %d", size, maxBulkLen)
	}
	var rec []byte
	for i, k := range keys {
		s.data[k] = pairs[2*i+1]
		if s.aof != nil {
			rec = appendAOFRecord(rec, aofSet, k, pairs[2*i+1])
		}
	}
	s.appendAOF(aofMulti, "", rec)
	return keys, nil
}

// lappend is LAPPEND lenKey prefix val...: the log whose length lives at
// lenKey grows by the number of values, each landing at prefix+i for the
// slot i it takes. Length and slots change in one setAllLocked, so no slot
// is ever taken without its value — the append pstream's KVBroker
// publishes with. It returns the new length and every key it wrote.
func (s *Server) lappend(args [][]byte) (int64, []string, error) {
	prefix, vals := string(args[1]), args[2:]
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.intLocked(string(args[0]))
	if err != nil {
		return 0, nil, err
	}
	pairs := make([][]byte, 0, 2*len(vals)+2)
	for i, v := range vals {
		pairs = append(pairs, []byte(prefix+strconv.FormatInt(n+int64(i), 10)), v)
	}
	n += int64(len(vals))
	keys, err := s.setAllLocked(append(pairs, args[0], []byte(strconv.FormatInt(n, 10))))
	return n, keys, err
}

// lread is LREAD lenKey start count nprefix prefix... key...: under one
// read lock, the log length at lenKey, then each key's value, then per
// prefix an array of the values at prefix+i for i in [start, min(start+
// count, length)) — a log window, the counters that bound it, and the
// records kept beside each slot, as one snapshot.
func (s *Server) lread(args [][]byte) value {
	if len(args) < 4 {
		return errorValue("ERR wrong number of arguments for 'lread'")
	}
	start, err1 := strconv.ParseUint(string(args[1]), 10, 64)
	count, err2 := strconv.ParseUint(string(args[2]), 10, 64)
	nprefix, err3 := strconv.Atoi(string(args[3]))
	if err1 != nil || err2 != nil || err3 != nil || nprefix < 0 || nprefix > len(args)-4 {
		return errorValue("ERR value is not an integer or out of range")
	}
	prefixes, keys := args[4:4+nprefix], args[4+nprefix:]
	s.mu.RLock()
	defer s.mu.RUnlock()
	length, err := s.intLocked(string(args[0]))
	if err != nil {
		return errorValue("ERR " + err.Error())
	}
	out := append(make([]value, 0, 1+len(keys)+len(prefixes)), integerValue(length))
	for _, k := range keys {
		out = append(out, s.bulkLocked(string(k)))
	}
	end := max(start, min(start+count, uint64(length)))
	for _, p := range prefixes {
		vals := make([]value, 0, end-start)
		for i := start; i < end; i++ {
			vals = append(vals, s.bulkLocked(string(p)+strconv.FormatUint(i, 10)))
		}
		out = append(out, arrayValue(vals))
	}
	return arrayValue(out)
}

// bulkLocked returns key's value as a bulk reply, null when missing.
// Callers hold s.mu.
func (s *Server) bulkLocked(key string) value {
	if v, ok := s.data[key]; ok {
		return bulkValue(v)
	}
	return nullBulk()
}

// cas atomically swaps key from old to new, reporting whether the swap
// happened. An empty old means "key must not exist", so CAS doubles as
// SETNX — the primitive pstream's consumer groups build claim leases on:
// claim (absent → claim record), reclaim an expired lease (old record →
// new record), and settle (claim record → acked marker) are all single
// server-side CAS commands that can never hand one event to two members.
func (s *Server) cas(key string, old, new []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.data[key]
	if len(old) == 0 {
		if ok {
			return false
		}
	} else if !ok || !bytes.Equal(cur, old) {
		return false
	}
	s.data[key] = new // its own allocation, as in set
	s.appendAOF(aofSet, key, new)
	return true
}

// delRangeMax bounds one DELRANGE sweep so a corrupt range argument cannot
// pin the server in a near-endless delete loop.
const delRangeMax = 1 << 20

// delRange deletes the keys prefix+i for start <= i < end (decimal i) and
// returns how many existed — the ranged DEL behind pstream's log
// truncation, which reclaims a fully-acked log prefix and its ack counters
// with one round trip instead of one DEL per slot.
func (s *Server) delRange(prefix string, start, end uint64) (int64, error) {
	if end < start {
		return 0, nil
	}
	if end-start > delRangeMax {
		return 0, fmt.Errorf("range of %d keys exceeds limit %d", end-start, delRangeMax)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for i := start; i < end; i++ {
		key := prefix + strconv.FormatUint(i, 10)
		if _, ok := s.data[key]; ok {
			delete(s.data, key)
			n++
		}
	}
	// One range record for the whole sweep instead of one DEL record per
	// key: the sweep holds the data mutex, and a thousand-key truncation
	// must not pay a thousand file writes under it. Replaying the full
	// range is equivalent — deleting an absent key is a no-op.
	if n > 0 {
		s.appendAOF(aofDelRange, prefix, delRangeVal(start, end))
	}
	return n, nil
}

// del removes the key, appending the AOF record inside the data mutex for
// the same reason as set: a DEL racing a SET of the same key must persist
// in the order it applied, or a restart resurrects (or loses) the key.
func (s *Server) del(key string) bool {
	s.mu.Lock()
	_, ok := s.data[key]
	delete(s.data, key)
	if ok {
		s.appendAOF(aofDel, key, nil)
	}
	s.mu.Unlock()
	return ok
}

// AOFBroken reports whether a failed append latched the persistence file
// broken (appends stopped, replication stalled at the last good offset).
func (s *Server) AOFBroken() bool {
	s.aofMu.Lock()
	defer s.aofMu.Unlock()
	return s.aofErr != nil
}
