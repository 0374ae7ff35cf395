package wiretap_test

// Codec torture battery, mirroring the AOF tests' stance with one
// deliberate inversion: an AOF tolerates a torn FINAL record (crash
// tails must recover), but a trace is evidence — truncation anywhere,
// tail included, must fail loudly at the last whole-record boundary,
// never load as a silently shorter trace.

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"proxystore/internal/wiretap"
)

// encodeTrace encodes tr to bytes, failing the test on error.
func encodeTrace(t testing.TB, tr *wiretap.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// traceBoundaries maps every valid record boundary offset of raw (the
// encoding of tr) to the number of whole ops a prefix cut there holds.
// Encoding is deterministic and append-only — magic, meta record, then
// ops in order — so the encoding of the first k ops is a byte prefix of
// the full encoding; the prefix lengths ARE the boundaries.
func traceBoundaries(t *testing.T, tr *wiretap.Trace, raw []byte) map[int]int {
	t.Helper()
	boundary := map[int]int{}
	for k := 0; k <= len(tr.Ops); k++ {
		prefix := encodeTrace(t, &wiretap.Trace{Meta: tr.Meta, Ops: tr.Ops[:k]})
		if !bytes.HasPrefix(raw, prefix) {
			t.Fatalf("encoding is not append-only: %d-op prefix diverges", k)
		}
		boundary[len(prefix)] = k
	}
	return boundary
}

// TestTraceTortureTruncation cuts an encoded trace at every byte offset.
// Cuts on a record boundary must load exactly the whole records before
// the cut; every other cut must fail loudly, naming how many whole
// records survived — never silently shortening the trace.
func TestTraceTortureTruncation(t *testing.T) {
	tr := sampleTrace()
	raw := encodeTrace(t, tr)
	boundary := traceBoundaries(t, tr, raw)
	// The magic alone is the degenerate zero-record trace.
	boundary[len(traceMagicLen())] = 0

	for cut := 0; cut <= len(raw); cut++ {
		got, err := wiretap.ReadTrace(bytes.NewReader(raw[:cut]))
		if wantOps, ok := boundary[cut]; ok {
			if err != nil {
				t.Fatalf("cut %d is a record boundary, load errored: %v", cut, err)
			}
			if len(got.Ops) != wantOps {
				t.Fatalf("cut %d: loaded %d ops, boundary holds %d", cut, len(got.Ops), wantOps)
			}
			continue
		}
		if err == nil {
			t.Fatalf("cut %d is mid-record, load accepted %d ops silently", cut, len(got.Ops))
		}
		if cut >= len(traceMagicLen()) && !strings.Contains(err.Error(), "record") {
			t.Fatalf("cut %d: unhelpful truncation error: %v", cut, err)
		}
	}
}

// traceMagicLen returns a slice whose length is the trace magic's,
// derived from the public API (the shortest valid trace is magic alone).
func traceMagicLen() []byte {
	var buf bytes.Buffer
	_ = (&wiretap.Trace{}).Encode(&buf)
	// magic + empty meta record; the magic is the part before the first
	// record, which ReadTrace accepts on its own.
	for cut := 0; cut <= buf.Len(); cut++ {
		if _, err := wiretap.ReadTrace(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			return buf.Bytes()[:cut]
		}
	}
	return nil
}

// TestTraceCorruptRecordRefused flips the frame-type byte of a mid-trace
// record: the load must error naming the record, not skip or misread it.
func TestTraceCorruptRecordRefused(t *testing.T) {
	tr := sampleTrace()
	raw := encodeTrace(t, tr)
	boundary := traceBoundaries(t, tr, raw)
	for off, ops := range boundary {
		if off == len(raw) {
			continue // nothing after the final boundary to corrupt
		}
		bad := append([]byte(nil), raw...)
		bad[off] = 0xFF
		if _, err := wiretap.ReadTrace(bytes.NewReader(bad)); err == nil {
			t.Fatalf("load accepted a corrupt frame type at offset %d (record %d)", off, ops+1)
		} else if !strings.Contains(err.Error(), "record") {
			t.Fatalf("unhelpful corruption error at offset %d: %v", off, err)
		}
	}
}

// TestTraceBadMagicRefused: wrong magic errors before any record decode.
func TestTraceBadMagicRefused(t *testing.T) {
	raw := encodeTrace(t, sampleTrace())
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := wiretap.ReadTrace(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
}

// FuzzTraceRead feeds arbitrary bytes to the trace reader. Whatever it
// accepts must re-encode and re-read to an equivalent trace: the codec
// never loads a trace it cannot faithfully write back.
func FuzzTraceRead(f *testing.F) {
	f.Add(encodeTrace(f, sampleTrace()))
	f.Add(encodeTrace(f, &wiretap.Trace{}))
	raw := encodeTrace(f, sampleTrace())
	f.Add(raw[:len(raw)-3]) // torn tail
	f.Add(raw[:7])          // torn meta record
	for _, fixture := range []string{claimRaceFixture, churnFixture, failoverFixture} {
		if data, err := os.ReadFile(fixturePath(fixture)); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := wiretap.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return // rejected input; only accepted traces must round-trip
		}
		again, err := wiretap.ReadTrace(bytes.NewReader(encodeTrace(t, tr)))
		if err != nil {
			t.Fatalf("re-reading re-encoded trace: %v", err)
		}
		tracesEquivalent(t, tr, again)
	})
}

// FuzzTraceOpRoundTrip builds a trace from arbitrary fuzzed fields and
// round-trips it: every representable op must encode and decode exactly.
func FuzzTraceOpRoundTrip(f *testing.F) {
	f.Add(uint64(0), "GET", []byte("key"), []byte("n"), "", false, int64(10), int64(20))
	f.Add(uint64(3), "CAS", []byte("ps:t:g:g:c:0"), []byte("i1"), "", false, int64(-5), int64(1<<40))
	f.Add(uint64(1), "WAITGET", []byte("k"), []byte(nil), "kvstore: server closed", true, int64(0), int64(0))
	f.Add(uint64(9), "", []byte{}, []byte{0, 1, 2, 255}, "ctx canceled", true, int64(7), int64(7))
	f.Fuzz(func(t *testing.T, conn uint64, name string, arg, reply []byte, errText string, blocking bool, start, end int64) {
		tr := &wiretap.Trace{
			Meta: map[string]string{"k": errText, name: "v"},
			Ops: []wiretap.Op{
				{Conn: conn, Idx: 0, Plane: wiretap.PlaneKV, Name: name,
					Args: [][]byte{arg}, Reply: [][]byte{reply}, Err: errText,
					Blocking: blocking, Start: start, End: end, Dep: 0},
				{Conn: conn, Idx: 1, Plane: "msg", Name: "REQUEST",
					Args: [][]byte{arg, reply}, Reply: nil, Err: "",
					Start: end, End: start, Dep: 1},
			},
		}
		got, err := wiretap.ReadTrace(bytes.NewReader(encodeTrace(t, tr)))
		if err != nil {
			t.Fatalf("decoding encoded trace: %v", err)
		}
		tracesEquivalent(t, tr, got)
	})
}
