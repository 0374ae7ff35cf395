// Package kvstore implements a miniature Redis: a RESP2-protocol key-value
// server and client over TCP. It stands in for the Redis/KeyDB servers the
// paper uses as hybrid intra-site mediated channels (§4.1.2). An optional
// append-only persistence file provides the "hybrid memory/disk" property.
//
// The synchronous commands are the rows of one table, commandTable in
// commands.go: each row gives the command's arity, whether it writes,
// which arguments are keys, and its handler. Beside the Redis basics it
// holds CAS, DELRANGE and two log commands, LAPPEND and LREAD, which
// pstream's KVBroker publishes and scans with, and KEYS prefix, the sorted
// list of keys under a prefix, which pstream's task janitor finds
// orphaned result futures and live members with (it walks the keyspace,
// so it stays off per-item paths). Clients send a command with KV.Do or
// queue it on a Pipeline; the typed calls (Get, Set, CAS, ...) are
// functions over KV.
//
// # Expiring keys
//
// PSETEX key ms value sets key with a deadline ms from now on the server's
// own clock; PEXPIRE key ms moves a present key's deadline (reply 1), or
// replies 0 when the key is absent or past it. One loop, timed for the
// earliest deadline, deletes due keys as DEL does, so an expiry persists,
// replicates and wakes waits like a DEL; reads check no deadline. Any
// other write or delete drops a key's deadline. A following replica never
// expires a key on its own clock, and a reload or promotion arms every
// deadline afresh: a key may outlive its deadline by one ttl, never die
// early. pstream's heartbeats are such keys (expire.go).
//
// # Blocking reads (the wait/notify protocol)
//
// Two tagged commands turn the server into a push-delivery substrate — the
// mechanism behind pstream's KVBroker delivery:
//
//   - TWAITGET tag key timeout_ms blocks until key holds a value (any of
//     SET/PSETEX/MSET/LAPPEND/CAS/INCR filling it) and returns that value in the
//     wait's own reply, so the wake carries the payload and no follow-up
//     GET is needed. A lapsed timeout returns a null bulk; the connection
//     stays clean either way. A wait on a slot of a log the server grew
//     with LAPPEND, below the log's length but deleted, returns a null
//     bulk at once: no append fills such a slot again.
//   - TWAITPREFIX tag prefix after_seq timeout_ms blocks until any key
//     under prefix is mutated with a server mutation-sequence number >
//     after_seq, then returns the current sequence for the caller to
//     carry into its next wait. The server answers "nothing changed" from
//     a bounded recent-writes ring; callers whose after_seq is older than
//     the ring's reach (or predates a restart) get a conservative
//     immediate wake and rescan — spurious wakes are possible, missed
//     wakes are not.
//
// The tag is a client-chosen name for the wait. The server answers each
// wait whenever it resolves — out of order with other traffic on the
// connection — with a two-element array [tag, reply]. Waits park in
// per-wait server goroutines (bounded per connection by
// maxConnTaggedWaits) that are cancelled when the connection drops, and
// replies interleave under a per-connection write lock. Waiters park in a
// notification registry with its own lock (they never hold the data
// mutex), Close hangs up blocked waiters like idle connections, and waits
// append nothing to the AOF.
//
// The client parks ALL its blocking waits on one dedicated multiplexer
// connection carrying only tagged commands, outside the command pool, and
// dispatches replies to waiters by tag: an idle fleet of N consumers holds
// one connection instead of N. A context-cancelled wait is deregistered
// client-side and its late reply dropped; the server side burns out on its
// own (bounded) timeout.
//
// # Pipelining
//
// RESP replies to pipelined commands strictly in submission order, so
// batching needs no protocol extension: Client.Pipeline queues commands
// and Exec flushes them in windows (pipelineWindow commands per flush,
// draining replies between windows so neither side blocks on a full TCP
// buffer). N commands cost ceil(N/window) round trips instead of N.
// Client.RoundTrips exposes the flush count so commands-per-round-trip is
// observable; pstream's broker uses the pipeline for its ack paths.
// Blocking waits never enter a pipeline: they travel on the multiplexer.
//
// Two streamed pipelines move one object as a run of chunk keys without
// queueing anything in memory. Client.SetChunks reads a stream into a
// caller's chunk buffer and writes one SET per chunk as it goes;
// Client.GetTo writes one GET per key and copies each bulk reply from the
// connection's read buffer straight into a writer, in key order. Both
// follow Exec's window rule, so an object of N chunks costs
// ceil(N/window) round trips each way, and both hold one pooled
// connection while the stream runs.
//
// The server flushes a synchronous reply only once its read buffer holds
// no further command, so the replies to a pipelined batch leave in one
// write, not one per command.
//
// # Replication (the AOF as the wire log)
//
// The append-only file doubles as the replication log. Every record is
//
//	op(1) keyLen(4 LE) valLen(4 LE) key val
//
// with ops aofSet (key gains val), aofDel (key removed, by DEL or by
// expiry), aofDelRange (key holds the prefix, val holds two LE uint64s —
// the [start,end) sequence window of one DELRANGE, a single record no
// matter how many keys it covered), aofFlush (FLUSHALL; key and val
// empty), aofExpire (PEXPIRE; val holds the ttl in milliseconds) and
// aofMulti (several set and expire records as one: MSET, LAPPEND,
// PSETEX). Appends
// happen inside the data mutex in apply order, so byte offset N names a
// unique server state: whoever has replayed N bytes of the log IS the
// primary as of that offset.
//
// A replica exploits that invariant over the ordinary RESP wire:
//
//	replica → REPLICATE <offset>       (its own AOF size: resume cursor)
//	primary → +OK                      (or -ERR: no persistence, or the
//	                                    offset outpaces the primary's log
//	                                    — a mismatched lineage; the
//	                                    replica then promotes standalone)
//	primary → $<n>\r\n<records>\r\n    repeated: record-aligned AOF chunks
//	replica → ACK <offset>             same connection, after each apply
//
// The replica appends each chunk to its own AOF verbatim and applies the
// records under its data mutex, which keeps its file a byte-identical
// prefix of the primary's — so its aofSize is always a valid resume
// offset, replicas can chain, and a restarted replica resumes where its
// file ends. ACKs let the primary's graceful Close drain live feeds
// before hanging up, so a clean shutdown loses nothing.
//
// While following, a replica answers writes with "-ERR readonly replica"
// (reads, waits and INFO work; INFO reports server.role, the offset and
// feed counts). PROMOTE — or the feed breaking after a completed sync, or
// a fatal handshake rejection — flips it standalone and writable. Clients
// (the cluster package's failover, or any caller) treat that reply as the
// cue to retry against the promoted side.
//
// # Introspection (INFO)
//
// INFO (no arguments) returns a bulk string of "name value" lines: a few
// server-level facts (server.uptime_ns, server.keys, server.conns,
// server.commands) followed by the server's full telemetry snapshot —
// per-command counters/latency histograms (kv.cmd.<NAME>.count/.ns/.bytes,
// every name the server does not answer counted as kv.cmd.unknown), byte
// totals (kv.bytes_in/out), live and peak parked waiters
// (kv.waiters/.peak), and open connections (kv.conns) — the same text
// format the -metrics-addr HTTP endpoint serves at /metrics. Clients send
// it with Do; cmd/kvserver prints it as its shutdown summary.
package kvstore

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// RESP2 value kinds. See https://redis.io/docs/reference/protocol-spec/.
const (
	respSimpleString = '+'
	respError        = '-'
	respInteger      = ':'
	respBulkString   = '$'
	respArray        = '*'
)

// value is a decoded RESP value.
type value struct {
	kind byte
	str  string  // simple string or error text
	num  int64   // integer
	bulk []byte  // bulk string payload; nil means null bulk
	arr  []value // array elements
	null bool    // null bulk string or null array
}

func simpleString(s string) value { return value{kind: respSimpleString, str: s} }
func errorValue(msg string) value { return value{kind: respError, str: msg} }
func integerValue(n int64) value  { return value{kind: respInteger, num: n} }
func bulkValue(b []byte) value    { return value{kind: respBulkString, bulk: b} }
func nullBulk() value             { return value{kind: respBulkString, null: true} }
func arrayValue(vs []value) value { return value{kind: respArray, arr: vs} }

// encodedSize returns the RESP-encoded size of v in bytes — cheap
// arithmetic (no encoding) used by the server's per-command byte
// accounting.
func (v value) encodedSize() int {
	switch v.kind {
	case respSimpleString, respError:
		return len(v.str) + 3 // marker + CRLF
	case respInteger:
		return len(strconv.FormatInt(v.num, 10)) + 3
	case respBulkString:
		if v.null {
			return 5 // $-1\r\n
		}
		return len(strconv.Itoa(len(v.bulk))) + len(v.bulk) + 5
	case respArray:
		if v.null {
			return 5
		}
		n := len(strconv.Itoa(len(v.arr))) + 3
		for _, el := range v.arr {
			n += el.encodedSize()
		}
		return n
	}
	return 0
}

// writeValue encodes v in RESP2 framing.
func writeValue(w *bufio.Writer, v value) error {
	switch v.kind {
	case respSimpleString, respError:
		w.WriteByte(v.kind)
		w.WriteString(v.str)
		w.WriteString("\r\n")
	case respInteger:
		writeHeader(w, respInteger, v.num)
	case respBulkString:
		if v.null {
			w.WriteString("$-1\r\n")
			break
		}
		writeBulk(w, v.bulk)
	case respArray:
		if v.null {
			w.WriteString("*-1\r\n")
			break
		}
		writeHeader(w, respArray, int64(len(v.arr)))
		for _, el := range v.arr {
			if err := writeValue(w, el); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("kvstore: unknown RESP kind %q", v.kind)
	}
	return writeErr(w)
}

// writeHeader writes a RESP line "<kind><n>\r\n" through w's free buffer
// space, so framing a reply or command allocates nothing while w has room.
func writeHeader(w *bufio.Writer, kind byte, n int64) {
	b := append(w.AvailableBuffer(), kind)
	b = strconv.AppendInt(b, n, 10)
	w.Write(append(b, '\r', '\n'))
}

// writeBulk writes p as a bulk string.
func writeBulk(w *bufio.Writer, p []byte) {
	writeHeader(w, respBulkString, int64(len(p)))
	w.Write(p)
	w.WriteString("\r\n")
}

// writeErr returns w's first write error. A bufio.Writer's errors are
// sticky and a zero-length Write reports them, so a frame's writes need
// no per-call checks.
func writeErr(w *bufio.Writer) error {
	_, err := w.Write(nil)
	return err
}

// maxBulkLen bounds a single bulk string (512 MB, Redis' limit).
const maxBulkLen = 512 << 20

// readValue decodes one RESP2 value.
func readValue(r *bufio.Reader) (value, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return value{}, err
	}
	line, err := readLine(r)
	if err != nil {
		return value{}, err
	}
	switch kind {
	case respSimpleString:
		return simpleString(line), nil
	case respError:
		return errorValue(line), nil
	case respInteger:
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return value{}, fmt.Errorf("kvstore: bad integer %q: %w", line, err)
		}
		return integerValue(n), nil
	case respBulkString:
		n, err := strconv.Atoi(line)
		if err != nil {
			return value{}, fmt.Errorf("kvstore: bad bulk length %q: %w", line, err)
		}
		if n < 0 {
			return nullBulk(), nil
		}
		if n > maxBulkLen {
			return value{}, fmt.Errorf("kvstore: bulk length %d exceeds limit", n)
		}
		buf := make([]byte, n+2) // payload + CRLF
		if _, err := io.ReadFull(r, buf); err != nil {
			return value{}, err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return value{}, fmt.Errorf("kvstore: bulk string missing CRLF terminator")
		}
		return bulkValue(buf[:n]), nil
	case respArray:
		n, err := strconv.Atoi(line)
		if err != nil {
			return value{}, fmt.Errorf("kvstore: bad array length %q: %w", line, err)
		}
		if n < 0 {
			return value{kind: respArray, null: true}, nil
		}
		els := make([]value, n)
		for i := 0; i < n; i++ {
			el, err := readValue(r)
			if err != nil {
				return value{}, err
			}
			els[i] = el
		}
		return arrayValue(els), nil
	default:
		return value{}, fmt.Errorf("kvstore: unknown RESP type byte %q", kind)
	}
}

// readLine reads up to CRLF, returning the line without the terminator.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return "", fmt.Errorf("kvstore: protocol line missing CRLF")
	}
	return line[:len(line)-2], nil
}

// command is a client request: a RESP array of bulk strings.
type command struct {
	name string
	args [][]byte
}

// parseCommand interprets a decoded value as a command.
func parseCommand(v value) (command, error) {
	if v.kind != respArray || v.null || len(v.arr) == 0 {
		return command{}, fmt.Errorf("kvstore: command must be a non-empty array")
	}
	var cmd command
	for i, el := range v.arr {
		if el.kind != respBulkString || el.null {
			return command{}, fmt.Errorf("kvstore: command element %d is not a bulk string", i)
		}
		if i == 0 {
			cmd.name = upperASCII(string(el.bulk))
		} else {
			cmd.args = append(cmd.args, el.bulk)
		}
	}
	return cmd, nil
}

func upperASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// encodeCommand frames a command for the wire: a RESP array of bulk
// strings, written straight into w.
func encodeCommand(w *bufio.Writer, name string, args ...[]byte) error {
	writeHeader(w, respArray, int64(len(args)+1))
	writeHeader(w, respBulkString, int64(len(name)))
	w.WriteString(name)
	w.WriteString("\r\n")
	for _, a := range args {
		writeBulk(w, a)
	}
	return writeErr(w)
}
