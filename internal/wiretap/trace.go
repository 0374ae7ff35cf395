// Package wiretap records broker and store wire traffic at the client
// boundary and replays it deterministically — the record/replay harness
// the ROADMAP names after keploy's design. A Recorder taps kvstore
// clients (kvstore.TapKV) and writes every operation — name, arguments,
// normalized reply, error, timestamps, logical connection ID, and the
// cross-connection happens-before edges observed at send time — into a
// length-prefixed trace built on the serial binary codec. A Replayer drives a recorded trace against a
// fresh server in two modes:
//
//   - 1× deterministic: operations issue in recorded global start order,
//     each gated on its recorded happens-before dependencies (every
//     operation that completed before it was sent must complete first),
//     with blocking waits dispatched asynchronously. A recorded race — a
//     lease-expiry steal, a claim stranded by a dying context — becomes
//     an exact-repro regression test: two replays of one trace issue
//     identical command sequences and leave identical server state.
//
//   - time-compressed (10–100×): operations issue on their recorded
//     per-connection schedule with inter-arrival gaps (and wait
//     timeouts) divided by the speedup — a trace-driven load generator,
//     so benches replay production-shaped traffic instead of synthetic
//     uniform load.
//
// Trace files open with the "PSWT1\n" magic; every record after it is one
// self-delimiting binary-codec bulk frame, so truncation or corruption
// fails loudly at a record boundary (never a silently shortened trace).
package wiretap

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"proxystore/internal/kvstore"
	"proxystore/internal/serial"
)

// PlaneKV is the plane of kvstore client commands, the only plane a
// Replayer drives.
const PlaneKV = "kv"

// traceMagic opens every trace file; the trailing digit is the format
// version.
const traceMagic = "PSWT1\n"

// Record kinds (first field of every record frame).
const (
	recMeta = "meta"
	recOp   = "op"
)

// OpRef names one operation: per-connection index idx on connection conn.
type OpRef struct {
	Conn uint64
	Idx  uint64
}

// Op is one recorded client operation.
type Op struct {
	// Conn is the logical connection (tap instance) the operation rode;
	// Idx is its position in that connection's recorded order.
	Conn uint64
	Idx  uint64
	// Plane routes replay: PlaneKV ops re-issue as kvstore client calls;
	// Run refuses a trace holding any other plane.
	Plane string
	Name  string
	Args  [][]byte
	// Reply is the normalized reply (see kvstore's TapKV reply grammar);
	// Err is the client-observed error text, "" on success.
	Reply [][]byte
	Err   string
	// Blocking marks server-side waits, whose replies depend on
	// operations recorded after them: a deterministic replayer must
	// dispatch them asynchronously or deadlock.
	Blocking bool
	// Start and End are nanosecond offsets from the trace origin —
	// Start taken when the operation was issued, End when its reply
	// landed. The compressed replayer reproduces the Start schedule.
	Start, End int64
	// Dep encodes the happens-before edges observed at issue time: the
	// recorder appends operations in completion order under one lock, so
	// "every reply that had landed when this operation was sent" is
	// exactly the first Dep entries of Trace.Ops. Replaying an op only
	// after those Dep ops complete preserves every recorded
	// reply-before-next-command edge, across connections included.
	Dep uint64
}

// Ref returns the operation's (conn, idx) name.
func (o *Op) Ref() OpRef { return OpRef{Conn: o.Conn, Idx: o.Idx} }

// Trace is a decoded trace: metadata stamped by the recorder and the
// operations in recorded completion order.
type Trace struct {
	Meta map[string]string
	Ops  []Op
}

// OpsByStart returns the operations sorted by recorded issue order — the
// order the deterministic replayer dispatches them in.
func (t *Trace) OpsByStart() []*Op {
	out := make([]*Op, len(t.Ops))
	for i := range t.Ops {
		out[i] = &t.Ops[i]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// KVKeys returns every kvstore key the trace touches, sorted — the probe
// set for comparing final server state across replays. DELRANGE windows
// and the slots an LAPPEND took (read off its reply) are expanded, so
// swept and appended slot keys are probed too.
func (t *Trace) KVKeys() []string {
	set := make(map[string]struct{})
	for i := range t.Ops {
		op := &t.Ops[i]
		if op.Plane != PlaneKV {
			continue
		}
		collectKeys(set, op.Name, op.Args, op.Reply)
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// collectKeys adds the keys an op names, as its command table row gives
// them, plus the two expansions a row cannot give: the slots a DELRANGE
// window swept and the slots an LAPPEND took.
func collectKeys(set map[string]struct{}, name string, args, reply [][]byte) {
	switch name {
	case "WAITGET":
		if len(args) > 0 {
			set[string(args[0])] = struct{}{}
		}
		return
	case "PIPELINE":
		cmds, err := parsePipeArgs(args)
		if err != nil {
			return
		}
		for _, c := range cmds {
			next := min(skipReply(reply, 0), len(reply))
			collectKeys(set, c.name, c.args, reply[:next])
			reply = reply[next:]
		}
		return
	}
	cmd, ok := kvstore.LookupCommand(name)
	if !ok || cmd.CheckArgs(args) != nil {
		return
	}
	for _, k := range cmd.Keys(args) {
		set[string(k)] = struct{}{}
	}
	switch name {
	case "DELRANGE":
		start, err1 := strconv.ParseUint(string(args[1]), 10, 64)
		end, err2 := strconv.ParseUint(string(args[2]), 10, 64)
		// Cap the expansion: a corrupt window must not allocate the moon.
		if err1 == nil && err2 == nil && end >= start && end-start <= 1<<16 {
			for i := start; i < end; i++ {
				set[string(args[0])+strconv.FormatUint(i, 10)] = struct{}{}
			}
		}
	case "LAPPEND":
		// The reply is the new length; the values took the slots below it.
		if len(reply) > 0 {
			n, err := strconv.ParseUint(string(bytes.TrimPrefix(reply[0], []byte("i"))), 10, 64)
			for i := n - min(n, uint64(len(args)-2)); err == nil && i < n; i++ {
				set[string(args[1])+strconv.FormatUint(i, 10)] = struct{}{}
			}
		}
	}
}

// skipReply returns the index just past the normalized reply value that
// starts at reply[i] (see kvstore's reply grammar): a "b" tag is followed
// by its payload, an "a<n>" tag by n values.
func skipReply(reply [][]byte, i int) int {
	if i < len(reply) && len(reply[i]) > 0 {
		switch reply[i][0] {
		case 'b':
			return i + 2
		case 'a':
			n, _ := strconv.Atoi(string(reply[i][1:]))
			for i++; n > 0; n-- {
				i = skipReply(reply, i)
			}
			return i
		}
	}
	return i + 1
}

// pipeSubCmd is one command inside a recorded PIPELINE op.
type pipeSubCmd struct {
	name string
	args [][]byte
}

// parsePipeArgs decodes the flattened sub-command list a TapKV records
// for a pipeline Exec: ["<ncmds>", then per command: name, "<nargs>",
// args...].
func parsePipeArgs(args [][]byte) ([]pipeSubCmd, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("wiretap: empty PIPELINE args")
	}
	n, err := strconv.Atoi(string(args[0]))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("wiretap: bad PIPELINE count %q", args[0])
	}
	cmds := make([]pipeSubCmd, 0, n)
	i := 1
	for len(cmds) < n {
		if i+1 >= len(args) {
			return nil, fmt.Errorf("wiretap: truncated PIPELINE args")
		}
		name := string(args[i])
		argc, err := strconv.Atoi(string(args[i+1]))
		if err != nil || argc < 0 || i+2+argc > len(args) {
			return nil, fmt.Errorf("wiretap: bad PIPELINE arg count %q", args[i+1])
		}
		cmds = append(cmds, pipeSubCmd{name: name, args: args[i+2 : i+2+argc]})
		i += 2 + argc
	}
	return cmds, nil
}

// --- encoding ---
//
// Every record is one binary-codec bulk frame (type byte + uvarint length
// + payload), so the outer framing is length-prefixed and
// self-delimiting; the payload is a sequence of binary-codec frames for
// the record's fields. A reader therefore always knows where record N+1
// begins, and a torn or corrupt record fails loudly with the index of the
// last good record.

var (
	binEnc = serial.Binary().(serial.StreamEncoder)
	binDec = serial.Binary().(serial.StreamDecoder)
)

// fieldWriter accumulates one record's field frames. Encoding into a
// bytes.Buffer cannot fail, so the write helpers drop the error.
type fieldWriter struct{ buf bytes.Buffer }

func (f *fieldWriter) str(s string)   { binEnc.EncodeTo(&f.buf, s) }
func (f *fieldWriter) bytes(b []byte) { binEnc.EncodeTo(&f.buf, b) }
func (f *fieldWriter) u64(n uint64)   { binEnc.EncodeTo(&f.buf, n) }
func (f *fieldWriter) i64(n int64)    { binEnc.EncodeTo(&f.buf, n) }
func (f *fieldWriter) boolean(b bool) { binEnc.EncodeTo(&f.buf, b) }
func (f *fieldWriter) bytess(b [][]byte) {
	f.u64(uint64(len(b)))
	for _, el := range b {
		f.bytes(el)
	}
}

// fieldReader decodes one record's field frames, remembering the first
// error so call sites stay linear.
type fieldReader struct {
	r   io.Reader
	err error
}

func (f *fieldReader) next() (any, bool) {
	if f.err != nil {
		return nil, false
	}
	v, err := binDec.DecodeFrom(f.r)
	if err != nil {
		f.err = err
		return nil, false
	}
	return v, true
}

func (f *fieldReader) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf(format, args...)
	}
}

func (f *fieldReader) str() string {
	v, ok := f.next()
	if !ok {
		return ""
	}
	s, ok := v.(string)
	if !ok {
		f.fail("wiretap: field is %T, want string", v)
	}
	return s
}

func (f *fieldReader) bytes() []byte {
	v, ok := f.next()
	if !ok {
		return nil
	}
	b, ok := v.([]byte)
	if !ok {
		f.fail("wiretap: field is %T, want []byte", v)
	}
	return b
}

func (f *fieldReader) u64() uint64 {
	v, ok := f.next()
	if !ok {
		return 0
	}
	n, ok := v.(uint64)
	if !ok {
		f.fail("wiretap: field is %T, want uint64", v)
	}
	return n
}

func (f *fieldReader) i64() int64 {
	v, ok := f.next()
	if !ok {
		return 0
	}
	n, ok := v.(int64)
	if !ok {
		f.fail("wiretap: field is %T, want int64", v)
	}
	return n
}

func (f *fieldReader) boolean() bool {
	v, ok := f.next()
	if !ok {
		return false
	}
	b, ok := v.(bool)
	if !ok {
		f.fail("wiretap: field is %T, want bool", v)
	}
	return b
}

// bytessCap bounds a declared slice count so a corrupt record cannot
// trigger an absurd allocation before its payload frames fail to decode.
const bytessCap = 1 << 20

func (f *fieldReader) bytess() [][]byte {
	n := f.u64()
	if f.err != nil {
		return nil
	}
	if n > bytessCap {
		f.fail("wiretap: %d elements exceeds the %d cap", n, bytessCap)
		return nil
	}
	out := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, f.bytes())
		if f.err != nil {
			return nil
		}
	}
	return out
}

func encodeOp(op *Op) []byte {
	var f fieldWriter
	f.str(recOp)
	f.u64(op.Conn)
	f.u64(op.Idx)
	f.str(op.Plane)
	f.str(op.Name)
	f.boolean(op.Blocking)
	f.i64(op.Start)
	f.i64(op.End)
	f.str(op.Err)
	f.bytess(op.Args)
	f.bytess(op.Reply)
	f.u64(op.Dep)
	return f.buf.Bytes()
}

func decodeOp(f *fieldReader) (Op, error) {
	var op Op
	op.Conn = f.u64()
	op.Idx = f.u64()
	op.Plane = f.str()
	op.Name = f.str()
	op.Blocking = f.boolean()
	op.Start = f.i64()
	op.End = f.i64()
	op.Err = f.str()
	op.Args = f.bytess()
	op.Reply = f.bytess()
	op.Dep = f.u64()
	return op, f.err
}

func encodeMeta(meta map[string]string) []byte {
	var f fieldWriter
	f.str(recMeta)
	f.u64(uint64(len(meta)))
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f.str(k)
		f.str(meta[k])
	}
	return f.buf.Bytes()
}

func decodeMeta(f *fieldReader) (map[string]string, error) {
	n := f.u64()
	if f.err != nil {
		return nil, f.err
	}
	if n > bytessCap {
		return nil, fmt.Errorf("wiretap: %d meta entries exceeds the %d cap", n, bytessCap)
	}
	meta := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := f.str()
		meta[k] = f.str()
	}
	return meta, f.err
}

// Encode writes the trace: magic, one meta record, then the ops in
// slice order.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	if err := binEnc.EncodeTo(bw, encodeMeta(t.Meta)); err != nil {
		return err
	}
	for i := range t.Ops {
		if err := binEnc.EncodeTo(bw, encodeOp(&t.Ops[i])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Save writes the trace to path.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTrace decodes a trace. A truncated or corrupt file fails loudly
// with the boundary of the last whole record — a trace is evidence, and a
// silently shortened one would "reproduce" an interleaving that never
// happened. (Contrast the AOF loader, which tolerates exactly one torn
// final record because a crash mid-append is an expected way for that
// file to end.)
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("wiretap: reading trace magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("wiretap: bad trace magic %q", magic)
	}
	tr := &Trace{}
	for n := 0; ; n++ {
		// A clean trace ends exactly on a record boundary; EOF anywhere
		// inside a record is truncation and fails below.
		if _, err := br.Peek(1); err == io.EOF {
			break
		}
		v, err := binDec.DecodeFrom(br)
		if err != nil {
			return nil, fmt.Errorf("wiretap: trace record %d (after %d whole records): %w", n, n, err)
		}
		payload, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("wiretap: trace record %d is a %T frame, want bulk", n, v)
		}
		f := &fieldReader{r: bytes.NewReader(payload)}
		switch kind := f.str(); kind {
		case recMeta:
			meta, err := decodeMeta(f)
			if err != nil {
				return nil, fmt.Errorf("wiretap: trace record %d (meta): %w", n, err)
			}
			if tr.Meta == nil {
				tr.Meta = meta
			} else {
				for k, v := range meta {
					tr.Meta[k] = v
				}
			}
		case recOp:
			op, err := decodeOp(f)
			if err != nil {
				return nil, fmt.Errorf("wiretap: trace record %d (op): %w", n, err)
			}
			tr.Ops = append(tr.Ops, op)
		default:
			return nil, fmt.Errorf("wiretap: trace record %d has unknown kind %q", n, kind)
		}
		if f.err != nil {
			return nil, fmt.Errorf("wiretap: trace record %d: %w", n, f.err)
		}
	}
	if tr.Meta == nil {
		tr.Meta = map[string]string{}
	}
	return tr, nil
}

// Load reads the trace at path.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}
