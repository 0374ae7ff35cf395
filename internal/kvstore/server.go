package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
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
// turns the append-only log into a true commit point, and makes the log,
// not the CPU, the throughput bound. No-op without WithPersistence.
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
	// logs maps the slot prefix of every log an LAPPEND grew on this
	// server to its length key, so a wait on a slot can tell a collected
	// slot from an unfilled one (see collectedLocked).
	logs map[string]string

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
	// doc); cmdMetrics holds per-command metric handles, resolved once in
	// NewServer and read-only after, so the hot path pays one map read
	// instead of three registry lookups plus a name concatenation per
	// command.
	reg        *telemetry.Registry
	cmdMetrics map[string]*cmdMetrics
	started    time.Time

	// Server-wide metric handles, resolved once in NewServer so the hot
	// path never takes the registry lock.
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
	connGauge *telemetry.Gauge
	waiters   *telemetry.Gauge

	// expires holds the deadline of every key PSETEX or PEXPIRE gave one
	// (see expire.go), and nextExpiry the deadline the expiry loop is
	// timed for; both are guarded by mu. An earlier deadline wakes the
	// loop through expiryWake.
	expires    map[string]expiry
	nextExpiry time.Time
	expiryWake chan struct{}
}

// cmdMetrics is the per-command instrument bundle: how many times the
// command ran, its server-side latency (for blocking waits this is park
// time), and the approximate request+reply bytes it moved.
type cmdMetrics struct {
	count *telemetry.Counter
	ns    *telemetry.Histogram
	bytes *telemetry.Counter
}

// unknownCommand is the metrics name every command outside the command
// table and the tagged waits counts under, so the names a client sends
// cannot grow the registry.
const unknownCommand = "unknown"

// registerCmdMetrics resolves the handles of every command the server
// answers, the tagged waits and unknownCommand.
func (s *Server) registerCmdMetrics() {
	names := []string{"TWAITGET", "TWAITPREFIX", unknownCommand}
	for _, c := range commandTable {
		names = append(names, c.Name)
	}
	s.cmdMetrics = make(map[string]*cmdMetrics, len(names))
	for _, name := range names {
		s.cmdMetrics[name] = &cmdMetrics{
			count: s.reg.Counter("kv.cmd." + name + ".count"),
			ns:    s.reg.Histogram("kv.cmd." + name + ".ns"),
			bytes: s.reg.Counter("kv.cmd." + name + ".bytes"),
		}
	}
}

// observe records one served command: count, latency, and bytes (request
// payload plus encoded reply size).
func (s *Server) observe(cmd command, start time.Time, reply value) {
	m, ok := s.cmdMetrics[cmd.name]
	if !ok {
		m = s.cmdMetrics[unknownCommand]
	}
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
		data:       make(map[string][]byte),
		conns:      make(map[net.Conn]bool),
		feeds:      make(map[*replFeed]struct{}),
		notify:     newNotifier(),
		expiryWake: make(chan struct{}, 1),
		started:    time.Now(),
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
	s.registerCmdMetrics()
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
	s.connWG.Add(1)
	go s.expireLoop()
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

// execute runs one synchronous command from the command table.
func (s *Server) execute(cmd command) value {
	c, ok := commandIndex[cmd.name]
	if !ok {
		return errorValue(fmt.Sprintf("ERR unknown command '%s'", cmd.name))
	}
	if c.Writes && s.isReadonlyReplica() {
		// A following replica's only writer is the primary's record
		// stream; direct writes would fork its state from the log.
		return errorValue("ERR readonly replica")
	}
	if err := c.CheckArgs(cmd.args); err != nil {
		return errorValue("ERR " + err.Error())
	}
	return c.run(s, cmd.args)
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
// never missed; wakes caused by deletes simply re-park. A wait on a log
// slot that was filled and has since been deleted returns a null bulk at
// once: no append fills it again. A server shutdown wakes the waiter with
// an error reply, and a close of cancel (the owning connection went away)
// unparks it too.
func (s *Server) waitGet(key string, timeout time.Duration, cancel <-chan struct{}) value {
	s.waiters.Inc()
	defer s.waiters.Dec()
	deadline := time.Now().Add(timeout)
	for {
		w := s.notify.registerKey(key)
		if w == nil {
			return errorValue("ERR server closed")
		}
		v, ok, collected := s.getSlot(key)
		if ok {
			s.notify.cancelKey(key, w)
			return bulkValue(v)
		}
		remain := time.Until(deadline)
		if remain <= 0 || collected {
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

// getSlot reads key like get; collected reports a missing key that is a
// slot of a log this server appended to, below that log's length: the
// slot was filled and then deleted.
func (s *Server) getSlot(key string) (v []byte, ok, collected bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v, ok = s.data[key]; ok {
		return v, true, false
	}
	digits := strings.TrimRight(key, "0123456789")
	lenKey, isLog := s.logs[digits]
	if !isLog || len(digits) == len(key) {
		return nil, false, false
	}
	i, err1 := strconv.ParseInt(key[len(digits):], 10, 64)
	n, err2 := s.intLocked(lenKey)
	return nil, false, err1 == nil && err2 == nil && i < n
}

func (s *Server) get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
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
		s.persistLocked(k)
		if s.aof != nil {
			rec = appendAOFRecord(rec, aofSet, k, pairs[2*i+1])
		}
	}
	s.appendAOF(aofMulti, "", rec)
	return keys, nil
}

// bulkLocked returns key's value as a bulk reply, null when missing.
// Callers hold s.mu.
func (s *Server) bulkLocked(key string) value {
	if v, ok := s.data[key]; ok {
		return bulkValue(v)
	}
	return nullBulk()
}

// AOFBroken reports whether a failed append latched the persistence file
// broken (appends stopped, replication stalled at the last good offset).
func (s *Server) AOFBroken() bool {
	s.aofMu.Lock()
	defer s.aofMu.Unlock()
	return s.aofErr != nil
}
