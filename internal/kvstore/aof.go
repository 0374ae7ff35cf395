package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
)

// --- Append-only persistence (and the replication log) --------------------
//
// The AOF is a flat sequence of records, each
//
//	op(1) keyLen(4 LE) valLen(4 LE) key val
//
// with ops aofSet (key gains val), aofDel (key removed, by DEL or by
// expiry), aofDelRange (key holds the prefix, val holds two LE uint64s
// [start,end) — one record for a whole DELRANGE sweep), aofFlush (keyspace
// cleared; empty key and val), aofExpire (PEXPIRE: val holds the ttl in
// decimal ms, armed from the applier's clock) and aofMulti (empty
// key; val is itself a sequence of aofSet and aofExpire records, applied
// together — one record for a whole MSET, LAPPEND or PSETEX, so neither a
// torn tail nor a replication chunk boundary can persist or ship part of
// one). Records are appended in APPLY order — every mutation appends
// while still holding the data mutex — so replaying a prefix of the file
// always reconstructs a state the server actually passed through. That
// property is what lets the same byte stream double as the replication
// feed: a replica at byte offset N has exactly the primary's state after
// the first N bytes of mutations.

const (
	aofSet      byte = 1
	aofDel      byte = 2
	aofDelRange byte = 3
	aofFlush    byte = 4
	aofMulti    byte = 5
	aofExpire   byte = 6
)

const aofHeaderLen = 9

// errTornRecord marks a record cut short by the end of input — tolerable
// only when the tear is the file's final bytes (a crash mid-append).
var errTornRecord = errors.New("kvstore: torn persistence record")

// aofRecord is one decoded AOF record. key and val may alias the buffer
// they were parsed from; neither is ever mutated after apply.
type aofRecord struct {
	op  byte
	key []byte
	val []byte
}

// encodedLen returns the record's on-disk size.
func (rec aofRecord) encodedLen() int { return aofHeaderLen + len(rec.key) + len(rec.val) }

// checkAOFHeader validates a record header's lengths, distinguishing
// corruption (absurd lengths) from a merely torn record.
func checkAOFHeader(op byte, keyLen, valLen uint32) error {
	if op < aofSet || op > aofExpire {
		return fmt.Errorf("kvstore: corrupt persistence record op=%d", op)
	}
	if keyLen > maxBulkLen || valLen > maxBulkLen {
		return fmt.Errorf("kvstore: corrupt persistence record: lengths %d/%d exceed limit", keyLen, valLen)
	}
	return nil
}

// readAOFRecord reads one record from r. io.EOF at a record boundary is
// returned as-is; a record cut short mid-way yields errTornRecord.
func readAOFRecord(r *bufio.Reader) (aofRecord, error) {
	var hdr [aofHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return aofRecord{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return aofRecord{}, errTornRecord
		}
		return aofRecord{}, fmt.Errorf("kvstore: reading persistence file: %w", err)
	}
	keyLen := binary.LittleEndian.Uint32(hdr[1:5])
	valLen := binary.LittleEndian.Uint32(hdr[5:9])
	if err := checkAOFHeader(hdr[0], keyLen, valLen); err != nil {
		return aofRecord{}, err
	}
	body := make([]byte, int(keyLen)+int(valLen))
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return aofRecord{}, errTornRecord
		}
		return aofRecord{}, fmt.Errorf("kvstore: reading persistence file: %w", err)
	}
	return aofRecord{op: hdr[0], key: body[:keyLen], val: body[keyLen:]}, nil
}

// splitAOFRecords parses the complete records at the start of raw,
// returning them and the byte count they span; a trailing partial record
// is left unconsumed. Corrupt headers error. Returned records alias raw.
func splitAOFRecords(raw []byte) ([]aofRecord, int, error) {
	var recs []aofRecord
	off := 0
	for off+aofHeaderLen <= len(raw) {
		op := raw[off]
		keyLen := binary.LittleEndian.Uint32(raw[off+1 : off+5])
		valLen := binary.LittleEndian.Uint32(raw[off+5 : off+9])
		if err := checkAOFHeader(op, keyLen, valLen); err != nil {
			return recs, off, err
		}
		end := off + aofHeaderLen + int(keyLen) + int(valLen)
		if end > len(raw) {
			break
		}
		body := raw[off+aofHeaderLen : end]
		recs = append(recs, aofRecord{op: op, key: body[:keyLen], val: body[keyLen:]})
		off = end
	}
	return recs, off, nil
}

// encodeAOFRecord assembles one record as a single buffer, so the append
// is one write syscall: either the whole record lands or the write errors
// and the server latches the file broken — a torn middle is never written
// by a live server (only a crash can tear the final record).
func encodeAOFRecord(op byte, key string, val []byte) []byte {
	return appendAOFRecord(make([]byte, 0, aofHeaderLen+len(key)+len(val)), op, key, val)
}

// appendAOFRecord appends one encoded record to buf.
func appendAOFRecord(buf []byte, op byte, key string, val []byte) []byte {
	buf = append(buf, op)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
	return append(append(buf, key...), val...)
}

// multiRecords decodes an aofMulti record value into its aofSet and
// aofExpire records.
func multiRecords(val []byte) ([]aofRecord, error) {
	recs, span, err := splitAOFRecords(val)
	if err == nil && span != len(val) {
		err = fmt.Errorf("kvstore: corrupt persistence multi record: %d trailing bytes", len(val)-span)
	}
	for _, rec := range recs {
		if err == nil && rec.op != aofSet && rec.op != aofExpire {
			err = fmt.Errorf("kvstore: corrupt persistence multi record: nested op=%d", rec.op)
		}
	}
	return recs, err
}

// delRangeVal encodes a DELRANGE's [start,end) bounds as an aofDelRange
// record value.
func delRangeVal(start, end uint64) []byte {
	var v [16]byte
	binary.LittleEndian.PutUint64(v[:8], start)
	binary.LittleEndian.PutUint64(v[8:], end)
	return v[:]
}

// applyRecordLocked applies one record to the data map. Callers hold s.mu
// (or own the server exclusively, as during load).
func (s *Server) applyRecordLocked(rec aofRecord) error {
	switch rec.op {
	case aofSet:
		// Records parsed from a shared buffer are never mutated afterwards,
		// so adopting the alias is safe; copy anyway when the buffer is the
		// load path's per-record allocation — it already is a fresh slice.
		s.data[string(rec.key)] = rec.val
		s.persistLocked(string(rec.key))
	case aofDel:
		delete(s.data, string(rec.key))
		s.persistLocked(string(rec.key))
	case aofDelRange:
		if len(rec.val) != 16 {
			return fmt.Errorf("kvstore: corrupt persistence range record: %d-byte bounds", len(rec.val))
		}
		start := binary.LittleEndian.Uint64(rec.val[:8])
		end := binary.LittleEndian.Uint64(rec.val[8:])
		if end < start || end-start > delRangeMax {
			return fmt.Errorf("kvstore: corrupt persistence range record: bounds [%d,%d)", start, end)
		}
		prefix := string(rec.key)
		for i := start; i < end; i++ {
			key := prefix + strconv.FormatUint(i, 10)
			delete(s.data, key)
			s.persistLocked(key)
		}
	case aofFlush:
		s.data = make(map[string][]byte)
		s.expires = nil
	case aofExpire:
		ttl, err := parseTTL(rec.val)
		if err != nil {
			return fmt.Errorf("kvstore: corrupt persistence expire record: %w", err)
		}
		if _, ok := s.data[string(rec.key)]; ok {
			s.expireLocked(string(rec.key), ttl)
		}
	case aofMulti:
		recs, err := multiRecords(rec.val)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := s.applyRecordLocked(r); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("kvstore: corrupt persistence record op=%d", rec.op)
	}
	return nil
}

// notifyRecord wakes waiters affected by one applied record. Called by the
// replica apply path after releasing the data mutex.
func (s *Server) notifyRecord(rec aofRecord) {
	switch rec.op {
	case aofSet, aofDel:
		s.notify.published(string(rec.key))
	case aofDelRange:
		s.notify.publishedRange(string(rec.key))
	case aofFlush:
		s.notify.publishedAll()
	case aofMulti:
		recs, _ := multiRecords(rec.val) // validated by the apply
		for _, r := range recs {
			if r.op == aofSet {
				s.notify.published(string(r.key))
			}
		}
	}
}

// appendAOF persists one already-applied mutation. Callers hold s.mu, so
// the file's record order always matches apply order — the invariant
// replication and restart replay both depend on. A write error latches
// the file broken: nothing further is appended (a partial record followed
// by more records would corrupt every later replay), the condition
// surfaces through InfoText (server.aof_broken) and the Close error, and
// replication stalls at the last good offset.
func (s *Server) appendAOF(op byte, key string, val []byte) {
	if s.aof == nil {
		return
	}
	buf := encodeAOFRecord(op, key, val)
	s.aofMu.Lock()
	defer s.aofMu.Unlock()
	if s.aofErr != nil {
		return
	}
	n, err := s.aof.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err == nil && s.aofSync {
		err = s.aof.Sync()
	}
	if err != nil {
		s.aofErr = err
		// Wake replication feeds so they notice the log will not advance.
		s.aofCond.Broadcast()
		return
	}
	s.aofSize += int64(len(buf))
	s.aofCond.Broadcast()
}

// appendReplicated appends raw already-validated records received
// from the primary to the replica's own AOF, keeping the replica's file a
// byte-identical prefix of the primary's — which is exactly what makes
// the replica's aofSize a valid resume offset (and lets replicas chain).
// The offset advances even when no file is configured (or the file is
// broken): it is the replication cursor first, durability second.
// Callers do NOT hold s.mu.
func (s *Server) appendReplicated(raw []byte) {
	s.aofMu.Lock()
	defer s.aofMu.Unlock()
	if s.aof != nil && s.aofErr == nil {
		n, err := s.aof.Write(raw)
		if err == nil && n < len(raw) {
			err = io.ErrShortWrite
		}
		if err == nil && s.aofSync {
			err = s.aof.Sync()
		}
		if err != nil {
			s.aofErr = err
		}
	}
	s.aofSize += int64(len(raw))
	s.aofCond.Broadcast()
}

// loadAOF replays the persistence file into memory at startup. A torn
// FINAL record — the signature of a crash mid-append — is dropped and the
// file truncated back to the last record boundary, so later appends can
// never land after garbage. A tear (or corruption) anywhere else errors
// loudly: silently treating it as end-of-log would drop every later
// record and diverge from the state the server actually reached.
func (s *Server) loadAOF() error {
	f, err := os.Open(s.aofPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvstore: opening persistence file: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var good int64
	for {
		rec, err := readAOFRecord(r)
		if errors.Is(err, io.EOF) {
			break // clean end at a record boundary
		}
		if errors.Is(err, errTornRecord) {
			if _, perr := r.ReadByte(); perr == io.EOF {
				// Torn final record: a crash mid-append. Drop it and cut the
				// file back to the boundary so the tear cannot end up in the
				// middle of the log once appends resume.
				if terr := os.Truncate(s.aofPath, good); terr != nil {
					return fmt.Errorf("kvstore: truncating torn persistence tail: %w", terr)
				}
				break
			}
			return fmt.Errorf("kvstore: persistence file corrupt: torn record at offset %d is followed by %s",
				good, "more data (not a crash tail) — refusing to silently drop records")
		}
		if err != nil {
			return err
		}
		if err := s.applyRecordLocked(rec); err != nil {
			return err
		}
		good += int64(rec.encodedLen())
	}
	s.aofSize = good
	return nil
}
