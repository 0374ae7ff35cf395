package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Times are nanoseconds since the recorder's epoch.
type span struct {
	Name string
	// Op is the operation the call served, or -1 when the caller's context
	// carried none (worker-side and kv-client calls the benchmark did not
	// issue itself).
	Op int
	// ID is unique within a run; Parent is the ID of the span whose call
	// caused this one, 0 for none. The root span of operation i has ID i+1.
	ID, Parent int
	Start, End int64
	// Flow joins a publish to the delivery of the same event (a hash of
	// topic and event identity, 0 for none). It is not written to the span
	// file.
	Flow uint64
}

func (s span) dur() int64 { return s.End - s.Start }

// storedSpan is a span as the recorder keeps it during a run: fixed size
// and free of pointers, so that it can live outside the Go heap.
type storedSpan struct {
	start, end     int64
	flow           uint64
	op, id, parent int32
	name           uint32
}

// spansPerOp sizes the recorder's buffer; the busiest workload records
// about 40 spans per operation.
const spansPerOp = 64

// recorder keeps spans in memory until the run ends. Its buffer is mapped
// outside the Go heap: the collector paces itself by the size of the live
// heap, so a few tens of megabytes of spans on the heap would make the
// traced run collect far less often than the run it is meant to explain.
//
// A nil *recorder is the untraced run: start and end do nothing, so
// workload code calls them unconditionally and pays two nil checks when
// tracing is off.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64

	mem     []byte       // the mapping behind buf, nil if buf is on the heap
	buf     []storedSpan // written at index used, each slot once
	used    atomic.Int64
	dropped atomic.Int64

	namesMu sync.RWMutex
	names   []string
	nameIdx map[string]uint32
}

// newRecorder reserves span IDs 1..ops for the operations' root spans, so
// a goroutine that learns an operation's number from a delivered event can
// parent its spans under that operation without a lookup. Call close when
// the spans have been read.
func newRecorder(ops int) *recorder {
	r := &recorder{epoch: time.Now(), nameIdx: make(map[string]uint32)}
	r.nextID.Store(int64(ops))
	n := ops * spansPerOp
	size := n * int(unsafe.Sizeof(storedSpan{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		r.buf = make([]storedSpan, n) // on the heap after all; the run is still valid, only less faithful
		return r
	}
	r.mem = mem
	r.buf = unsafe.Slice((*storedSpan)(unsafe.Pointer(&mem[0])), n)
	return r
}

func (r *recorder) close() {
	if r.mem != nil {
		syscall.Munmap(r.mem)
		r.mem, r.buf = nil, nil
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) intern(name string) uint32 {
	r.namesMu.RLock()
	i, ok := r.nameIdx[name]
	r.namesMu.RUnlock()
	if ok {
		return i
	}
	r.namesMu.Lock()
	defer r.namesMu.Unlock()
	if i, ok := r.nameIdx[name]; ok {
		return i
	}
	i = uint32(len(r.names))
	r.names = append(r.names, name)
	r.nameIdx[name] = i
	return i
}

type spanKey struct{}

// spanRef is what a context carries: the innermost open span.
type spanRef struct{ op, id int }

func rootID(op int) int { return op + 1 }

// opCtx returns a context under which spans become children of operation
// op's root span.
func (r *recorder) opCtx(ctx context.Context, op int) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{op: op, id: rootID(op)})
}

// startOp opens the root span of operation op.
func (r *recorder) startOp(ctx context.Context, op int) (context.Context, *span) {
	if r == nil {
		return ctx, nil
	}
	return r.opCtx(ctx, op), &span{Name: "op", Op: op, ID: rootID(op), Start: r.now()}
}

// start opens a span under the span ctx carries, and returns a context
// carrying the new one for the callee.
func (r *recorder) start(ctx context.Context, name string) (context.Context, *span) {
	if r == nil {
		return ctx, nil
	}
	s := &span{Name: name, Op: -1, ID: int(r.nextID.Add(1))}
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		s.Op, s.Parent = ref.op, ref.id
	}
	s.Start = r.now()
	return context.WithValue(ctx, spanKey{}, spanRef{op: s.Op, id: s.ID}), s
}

// end closes s. With frac > 0 it first busy-spins for frac of the time
// the call took: the injected slowdown of the attribution self-check.
func (r *recorder) end(s *span, frac float64) {
	if r == nil {
		return
	}
	s.End = r.now()
	if frac > 0 {
		until := s.End + int64(frac*float64(s.End-s.Start))
		for r.now() < until {
		}
		s.End = r.now()
	}
	r.add(*s)
}

// add records a finished span.
func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = int(r.nextID.Add(1))
	}
	i := r.used.Add(1) - 1
	if i >= int64(len(r.buf)) {
		r.dropped.Add(1)
		return
	}
	r.buf[i] = storedSpan{start: s.Start, end: s.End, flow: s.Flow,
		op: int32(s.Op), id: int32(s.ID), parent: int32(s.Parent), name: r.intern(s.Name)}
}

// snapshot copies the recorded spans out. Call it once every goroutine
// that records has stopped.
func (r *recorder) snapshot() ([]span, error) {
	if d := r.dropped.Load(); d > 0 {
		return nil, fmt.Errorf("span buffer full: %d spans dropped", d)
	}
	out := make([]span, r.used.Load())
	for i := range out {
		st := r.buf[i]
		out[i] = span{Name: r.names[st.name], Op: int(st.op), ID: int(st.id), Parent: int(st.parent),
			Start: st.start, End: st.end, Flow: st.flow}
	}
	return out, nil
}

// flowHash names an event across its publish and its delivery.
func flowHash(topic, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(topic))
	h.Write([]byte{0})
	h.Write([]byte(id))
	return h.Sum64() | 1 // never 0, which means no flow
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (pipelined chunk fetches) and may outlive the parent (a goroutine the
// call started); overlaps count once and the excess is clipped.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns how much of [lo, hi] the union of the spans' intervals
// covers.
func covered(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var total int64
	edge := lo
	for _, c := range sorted {
		start, end := max(c.Start, edge), min(c.End, hi)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// traceFile is the on-disk form of a traced run: span names are interned
// and each span is one row [name, op, id, parent, start_ns, end_ns], which
// keeps a few hundred thousand spans to a few megabytes.
type traceFile struct {
	Workload string     `json:"workload"`
	Ops      int        `json:"ops"`
	Columns  []string   `json:"columns"`
	Names    []string   `json:"names"`
	Spans    [][6]int64 `json:"spans"`
}

var traceColumns = []string{"name", "op", "id", "parent", "start_ns", "end_ns"}

func writeTrace(path, workload string, ops int, spans []span) error {
	tf := traceFile{Workload: workload, Ops: ops, Columns: traceColumns, Spans: make([][6]int64, len(spans))}
	index := make(map[string]int64)
	for i, s := range spans {
		n, ok := index[s.Name]
		if !ok {
			n = int64(len(tf.Names))
			index[s.Name] = n
			tf.Names = append(tf.Names, s.Name)
		}
		tf.Spans[i] = [6]int64{n, int64(s.Op), int64(s.ID), int64(s.Parent), s.Start, s.End}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readTrace(path string) (workload string, ops int, spans []span, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", 0, nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return "", 0, nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	spans = make([]span, len(tf.Spans))
	for i, row := range tf.Spans {
		if row[0] < 0 || row[0] >= int64(len(tf.Names)) {
			return "", 0, nil, fmt.Errorf("%s: span %d names entry %d of %d", path, i, row[0], len(tf.Names))
		}
		spans[i] = span{Name: tf.Names[row[0]], Op: int(row[1]), ID: int(row[2]), Parent: int(row[3]), Start: row[4], End: row[5]}
	}
	return tf.Workload, tf.Ops, spans, nil
}
