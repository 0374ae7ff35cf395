package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"time"
)

// --- Primary/replica replication ------------------------------------------
//
// Replication ships the AOF byte stream over the RESP wire. A replica
// dials its primary, sends
//
//	REPLICATE <offset>
//
// (offset = how many log bytes it already has — its own AOF size, so a
// restarted replica resumes instead of resyncing), reads one +OK, and the
// connection then becomes a feed: the primary pushes record-aligned
// chunks as bulk strings, from the requested offset through the live tail
// of the log, and the replica answers each applied chunk with an
//
//	ACK <offset>
//
// frame on the same connection. Because mutations append to the AOF in
// apply order while holding the data mutex, a replica that has applied N
// bytes has exactly the state the primary had after its first N log
// bytes — the AOF is the replication log, byte for byte, and a replica's
// own AOF is a prefix-identical copy (which also lets replicas chain).
//
// A following replica is read-only (write commands answer "ERR readonly
// replica"); it serves reads and parks waits. It stops following — and
// starts accepting writes — when PROMOTEd explicitly, or automatically
// when an established stream breaks (the primary died). A gracefully
// closed primary drains its feeds before hanging up, so no write that was
// acknowledged to a client is missing on the survivor.

// replChunkMax bounds one feed chunk; a single record larger than this is
// shipped whole.
const replChunkMax = 256 << 10

// replDrainTimeout bounds how long Close waits for attached replicas to
// ack the final log offset before hanging up on them anyway.
const replDrainTimeout = 5 * time.Second

// WithReplicaOf makes the server start as a read-only replica pulling the
// AOF record stream from the primary at addr. It retries the initial
// connection (the primary may start later); once a stream has been
// established, a break promotes the replica to standalone — the failover
// model is that a primary that drops its replicas is dead.
func WithReplicaOf(addr string) ServerOption {
	return func(s *Server) { s.replicaOf = addr }
}

// replFeed is one attached downstream replica, tracked so Close can drain
// the feed (acked = the offset the replica has confirmed applied).
type replFeed struct {
	acked int64 // guarded by Server.feedMu
	dead  chan struct{}
}

func (f *replFeed) die() {
	select {
	case <-f.dead:
	default:
		close(f.dead)
	}
}

func (f *replFeed) isDead() bool {
	select {
	case <-f.dead:
		return true
	default:
		return false
	}
}

// serveReplication handles a REPLICATE command, taking the connection
// over as a replication feed until the replica hangs up or the server
// closes (after draining).
func (s *Server) serveReplication(cmd command, conn net.Conn, r *bufio.Reader, write func(value) error) {
	if len(cmd.args) != 1 {
		write(errorValue("ERR wrong number of arguments for 'replicate'"))
		return
	}
	offset, err := strconv.ParseInt(string(cmd.args[0]), 10, 64)
	if err != nil || offset < 0 {
		write(errorValue("ERR offset is not a non-negative integer"))
		return
	}
	if s.aofPath == "" {
		write(errorValue("ERR replication requires persistence (start the primary with an AOF)"))
		return
	}
	s.aofMu.Lock()
	size := s.aofSize
	s.aofMu.Unlock()
	if offset > size {
		write(errorValue(fmt.Sprintf("ERR replication offset %d beyond log size %d (mismatched log lineage?)", offset, size)))
		return
	}
	f, err := os.Open(s.aofPath)
	if err != nil {
		write(errorValue("ERR opening log: " + err.Error()))
		return
	}
	defer f.Close()
	if write(simpleString("OK")) != nil {
		return
	}

	// Mark the connection as a feed: Close cuts client connections first,
	// drains feeds, and only then hangs up on them.
	s.connMu.Lock()
	if _, ok := s.conns[conn]; ok {
		s.conns[conn] = true
	}
	s.connMu.Unlock()

	feed := &replFeed{acked: offset, dead: make(chan struct{})}
	s.feedMu.Lock()
	s.feeds[feed] = struct{}{}
	s.feedMu.Unlock()
	s.reg.Gauge("kv.replicas").Inc()
	defer func() {
		s.feedMu.Lock()
		delete(s.feeds, feed)
		s.feedMu.Unlock()
		s.reg.Gauge("kv.replicas").Dec()
	}()

	// Ack reader: ACK frames arrive on the same connection, interleaved
	// with nothing else. A read error means the replica hung up.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		defer func() {
			feed.die()
			// Wake the sender if it is parked at the log head.
			s.aofMu.Lock()
			s.aofCond.Broadcast()
			s.aofMu.Unlock()
		}()
		for {
			v, err := readValue(r)
			if err != nil {
				return
			}
			ack, err := parseCommand(v)
			if err != nil || ack.name != "ACK" || len(ack.args) != 1 {
				return
			}
			n, err := strconv.ParseInt(string(ack.args[0]), 10, 64)
			if err != nil {
				return
			}
			s.feedMu.Lock()
			if n > feed.acked {
				feed.acked = n
			}
			s.feedMu.Unlock()
		}
	}()
	defer func() {
		// Unblock the ack reader (reads share conn with the feed) and join
		// it before the caller tears the connection down.
		conn.SetReadDeadline(time.Now())
		<-ackDone
	}()

	shipped := s.reg.Counter("kv.repl.bytes_out")
	for {
		// A closing server does not end the feed here: shipped is not
		// applied, so the feed stays registered until the replica has acked
		// the tail (drainFeeds) and Close hangs up, which kills it.
		s.aofMu.Lock()
		for offset >= s.aofSize && s.aofErr == nil && !feed.isDead() {
			s.aofCond.Wait()
		}
		size := s.aofSize
		s.aofMu.Unlock()
		if offset >= size || feed.isDead() {
			// The log broke, or the replica hung up: the feed is done.
			return
		}
		chunk, err := readAOFChunk(f, offset, size)
		if err != nil {
			return
		}
		// Counted before the write: once the replica has applied a chunk,
		// kv.repl.bytes_out already includes it.
		shipped.Add(uint64(len(chunk)))
		if write(bulkValue(chunk)) != nil {
			return
		}
		offset += int64(len(chunk))
	}
}

// readAOFChunk reads a record-aligned chunk from the log: whole records
// only, starting at offset, at most replChunkMax bytes (more when a
// single record is larger), never past size. size only ever counts whole
// records, so alignment is a parse, not a guess.
func readAOFChunk(f *os.File, offset, size int64) ([]byte, error) {
	n := size - offset
	if n > replChunkMax {
		n = replChunkMax
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, offset, n), buf); err != nil {
		return nil, err
	}
	_, aligned, err := splitAOFRecords(buf)
	if aligned > 0 {
		return buf[:aligned], nil
	}
	if err != nil {
		return nil, err
	}
	// The next record alone exceeds the chunk budget: ship it whole.
	keyLen := binary.LittleEndian.Uint32(buf[1:5])
	valLen := binary.LittleEndian.Uint32(buf[5:9])
	recLen := int64(aofHeaderLen) + int64(keyLen) + int64(valLen)
	if offset+recLen > size {
		return nil, fmt.Errorf("kvstore: replication log: record at %d overruns log size %d", offset, size)
	}
	big := make([]byte, recLen)
	if _, err := io.ReadFull(io.NewSectionReader(f, offset, recLen), big); err != nil {
		return nil, err
	}
	return big, nil
}

// drainFeeds waits (bounded) until every live attached replica has acked
// the log head as of Close, so a graceful stop hands the complete log to
// its survivors. Client connections are already cut, so the target is
// final.
func (s *Server) drainFeeds(timeout time.Duration) {
	s.aofMu.Lock()
	target := s.aofSize
	s.aofMu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		behind := false
		s.feedMu.Lock()
		for feed := range s.feeds {
			if !feed.isDead() && feed.acked < target {
				behind = true
			}
		}
		s.feedMu.Unlock()
		if !behind || time.Now().After(deadline) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// promote latches the server standalone: it stops following its primary
// (severing the pull connection), starts accepting writes, and arms its
// key deadlines afresh for its own expiry loop.
func (s *Server) promote() {
	if s.standalone.CompareAndSwap(false, true) && s.replicaOf != "" {
		s.severUpstream()
		s.rearmExpiries()
	}
}

// severUpstream closes the replica's pull connection, if one is live.
func (s *Server) severUpstream() {
	s.upMu.Lock()
	if s.upstream != nil {
		s.upstream.Close()
		s.upstream = nil
	}
	s.upMu.Unlock()
}

// replFatalError marks a replication error retrying cannot fix: the
// primary rejected the handshake (no persistence, mismatched lineage) or
// shipped a corrupt stream.
type replFatalError struct{ msg string }

func (e *replFatalError) Error() string { return e.msg }

// replicateLoop is the replica's pull loop: (re)connect to the primary,
// stream and apply until the stream ends, and decide what the ending
// means. Before any successful handshake, errors are retried with backoff
// (the primary may simply not be up yet). After an established stream
// breaks, the replica promotes itself: its primary is gone, and the
// failover client's retried writes must land somewhere.
func (s *Server) replicateLoop() {
	defer s.connWG.Done()
	backoff := 25 * time.Millisecond
	for {
		if s.closed.Load() || s.standalone.Load() {
			return
		}
		err := s.syncOnce()
		if s.closed.Load() || s.standalone.Load() {
			return
		}
		if s.synced.Load() {
			s.promote()
			return
		}
		var fatal *replFatalError
		if errors.As(err, &fatal) {
			s.promote()
			return
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// syncOnce runs one replication session against the primary: handshake
// from the local log size, then apply-and-ack chunks until the stream
// ends. Returns the error that ended the session.
func (s *Server) syncOnce() error {
	conn, err := net.DialTimeout("tcp", s.replicaOf, 5*time.Second)
	if err != nil {
		return err
	}
	s.upMu.Lock()
	if s.closed.Load() || s.standalone.Load() {
		s.upMu.Unlock()
		conn.Close()
		return nil
	}
	s.upstream = conn
	s.upMu.Unlock()
	defer func() {
		s.upMu.Lock()
		if s.upstream == conn {
			s.upstream = nil
		}
		s.upMu.Unlock()
		conn.Close()
	}()

	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	s.aofMu.Lock()
	offset := s.aofSize
	s.aofMu.Unlock()
	if err := encodeCommand(w, "REPLICATE", []byte(strconv.FormatInt(offset, 10))); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	v, err := readValue(r)
	if err != nil {
		return err
	}
	if v.kind == respError {
		return &replFatalError{msg: v.str}
	}
	if v.kind != respSimpleString || v.str != "OK" {
		return &replFatalError{msg: fmt.Sprintf("unexpected REPLICATE reply kind %q", v.kind)}
	}
	s.synced.Store(true)

	applied := s.reg.Counter("kv.repl.bytes_in")
	for {
		v, err := readValue(r)
		if err != nil {
			return err
		}
		if v.kind != respBulkString || v.null {
			return &replFatalError{msg: fmt.Sprintf("malformed replication chunk kind %q", v.kind)}
		}
		if err := s.applyReplChunk(v.bulk); err != nil {
			return &replFatalError{msg: err.Error()}
		}
		applied.Add(uint64(len(v.bulk)))
		offset += int64(len(v.bulk))
		if err := encodeCommand(w, "ACK", []byte(strconv.FormatInt(offset, 10))); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
}

// applyReplChunk applies one record-aligned chunk from the primary:
// append to the local log first (durability before ack — a replica crash
// between the two replays the log), then apply to memory in record order,
// then wake any parked waits.
func (s *Server) applyReplChunk(chunk []byte) error {
	recs, n, err := splitAOFRecords(chunk)
	if err != nil {
		return err
	}
	if n != len(chunk) {
		return fmt.Errorf("kvstore: replication chunk ends mid-record (%d of %d bytes)", n, len(chunk))
	}
	s.appendReplicated(chunk)
	s.mu.Lock()
	for _, rec := range recs {
		if err := s.applyRecordLocked(rec); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.mu.Unlock()
	for _, rec := range recs {
		s.notifyRecord(rec)
	}
	return nil
}
