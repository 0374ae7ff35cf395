package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/local"
	"proxystore/internal/connectors/redisc"
)

func TestPercentileIsNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 8, 6, 4, 2, 1, 3, 5, 7, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("three values: got %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestSelfTimeCountsOverlapsOnceAndClipsToParent(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		// Two overlapping children (a pipelined window): cover [10,50].
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 50},
		// One child contained in another's interval adds nothing.
		{Name: "c", ID: 4, Parent: 1, Start: 15, End: 20},
		// A child that outlives the parent is clipped: covers [90,100].
		{Name: "d", ID: 5, Parent: 1, Start: 90, End: 130},
		// A grandchild reduces its own parent only.
		{Name: "e", ID: 6, Parent: 2, Start: 12, End: 22},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 5, 5: 40, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestDeliveryLagPrefersConsumerLevelDelivery(t *testing.T) {
	spans := []span{
		{Name: "broker.publish", Op: 3, ID: 10, Flow: 7, Start: 0, End: 100},
		{Name: "broker.next", Op: -1, ID: 11, Flow: 7, Start: 0, End: 150},
		{Name: "pstream.item_next", Op: -1, ID: 12, Flow: 7, Start: 0, End: 400},
		{Name: "broker.publish", Op: -1, ID: 13, Flow: 9, Start: 0, End: 500},
		{Name: "broker.next", Op: -1, ID: 14, Flow: 9, Start: 0, End: 450}, // beat the publish's return
	}
	lags, asSpans := deliveryLags(spans)
	if len(lags) != 2 || lags[0] != 0.3 || lags[1] != 0 {
		t.Errorf("lags = %v, want [0.3 0]", lags)
	}
	if len(asSpans) != 1 || asSpans[0].Parent != rootID(3) || asSpans[0].Start != 100 || asSpans[0].End != 400 {
		t.Errorf("lag spans = %+v", asSpans)
	}
}

func TestKVTapCountsInsidePipelines(t *testing.T) {
	rec := newRecorder(1)
	defer rec.close()
	tap := &kvTap{rec: rec}
	b := func(s ...string) [][]byte {
		out := make([][]byte, len(s))
		for i := range s {
			out[i] = []byte(s[i])
		}
		return out
	}
	tap.tap("CAS", b("k", "old", "new"), false)(b("i1"), nil)
	tap.tap("CAS", b("k", "old", "new"), false)(b("i0"), nil)
	// GET (bulk reply), MGET (array of bulk and null), CAS won, INCR.
	tap.tap("PIPELINE", b("4", "GET", "1", "k", "MGET", "2", "a", "b", "CAS", "3", "k", "o", "n", "INCR", "1", "c"), false)(
		b("b", "value", "a2", "b", "x", "n", "i1", "i7"), nil)
	if got := tap.cmds.Load(); got != 6 {
		t.Errorf("commands = %d, want 6", got)
	}
	if issued, won := tap.casIssued.Load(), tap.casWon.Load(); issued != 3 || won != 2 {
		t.Errorf("CAS issued/won = %d/%d, want 3/2", issued, won)
	}
}

// Store chooses its put and get paths by asserting these interfaces on its
// connector, so the traced wrapper must expose exactly what it wraps.
func TestTracedConnectorHasSameOptionalInterfaces(t *testing.T) {
	rec := newRecorder(1)
	defer rec.close()
	for _, inner := range []connector.Connector{redisc.New("127.0.0.1:1"), local.New("parity-test")} {
		wrapped, err := traceConnector(inner, rec, 0)
		if err != nil {
			t.Fatalf("%s: %v", inner.Type(), err)
		}
		if got, want := optionalSurface(wrapped), optionalSurface(inner); got != want {
			t.Errorf("%s: wrapper implements %v, connector implements %v (StreamPutter, StreamGetter, BatchPutter, BatchGetter, TaggedPutter, TaggedStreamPutter)",
				inner.Type(), got, want)
		}
		_, innerNative := connector.Stream(inner).(*connector.StreamAdapter)
		_, wrappedNative := connector.Stream(wrapped).(*connector.StreamAdapter)
		if innerNative != wrappedNative {
			t.Errorf("%s: connector.Stream adapts the wrapper differently from the connector", inner.Type())
		}
		inner.Close()
	}
}

// Every workload and metric the harness emits is listed in BENCHMARK.json
// with the same unit and direction, and the file keeps to the limits of the
// benchmark contract.
func TestManifestMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Fatalf("%d workloads listed, harness has %d (2 to 8 allowed)", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in the manifest, %q in the harness (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad or repeated name, or a reason over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, listed []manifestMetric, defs []metricDef, limit int, bounded bool) {
		if len(listed) != len(defs) || len(listed) > limit {
			t.Fatalf("%s: %d listed, harness emits %d, limit %d", kind, len(listed), len(defs), limit)
		}
		for i, l := range listed {
			d := defs[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if l.Name != d.name || l.Unit != d.unit || l.Better != better {
				t.Errorf("%s %d: manifest has %s [%s] better=%s, harness has %s [%s] better=%s",
					kind, i, l.Name, l.Unit, l.Better, d.name, d.unit, better)
			}
			if !name.MatchString(l.Name) || !unit.MatchString(l.Unit) || seen[l.Name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, l.Name, l.Unit)
			}
			seen[l.Name] = true
			if bounded != (l.Bound != nil) {
				t.Errorf("%s %q: bound present = %v, want %v", kind, l.Name, l.Bound != nil, bounded)
			}
			if l.Bound != nil && (*l.Bound <= 0 || *l.Bound > 0.25) {
				t.Errorf("%s %q: bound %v outside (0, 0.25]", kind, l.Name, *l.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16, true)
	check("per_layer", m.PerLayer, perLayer, 128, false)
	var setup *manifestMetric
	for i := range m.EndToEnd {
		if m.EndToEnd[i].Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("end_to_end must have setup_s in s, lower is better")
	}
}

// smokeOps is how many operations the smoke runs time per pass.
const smokeOps = 200

// A short untraced and traced run of every workload: all outputs verify,
// every per-layer metric is reported, the phases account for the
// operations' time, tracing issues the same kv commands per operation as
// no tracing, and the span file reads back.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runTracedOps(w, 1, smokeOps, injection{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*smokeOps {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range perLayer {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: reported as %+v (present %v)", d.name, m, ok)
				}
			}
			if c := res.Metrics["trace.coverage_frac"].Value; c < 0.9 || c > 1.0001 {
				t.Errorf("trace.coverage_frac = %v, want 0.9 to 1", c)
			}
			// The data-plane workloads issue a fixed command sequence; the
			// broker's claim races make the others vary a little by timing.
			tolerance := 0.0
			if w.name == "stream_group" || w.name == "task_rtt" {
				tolerance = 0.1
			}
			if d := res.Metrics["trace.kv_cmds_delta_frac"].Value; math.Abs(d) > tolerance {
				t.Errorf("traced run issued %+.1f%% kv commands per op against the untraced run, tolerance %.0f%%", 100*d, 100*tolerance)
			}

			name, ops, spans, err := readTrace(filepath.Join(dir, "trace_"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if name != w.name || ops != smokeOps {
				t.Errorf("span file is of %q with %d ops", name, ops)
			}
			ids := map[int]bool{}
			roots := 0
			for _, s := range spans {
				ids[s.ID] = true
				if s.Name == "op" {
					roots++
				}
			}
			if roots != smokeOps {
				t.Errorf("span file has %d operation roots, want %d", roots, smokeOps)
			}
			for _, s := range spans {
				if s.End < s.Start || (s.Parent != 0 && !ids[s.Parent]) {
					t.Fatalf("span %+v ends before it starts or has no parent in the file", s)
				}
			}
		})
	}
}

func TestEndToEndRunReportsEveryMetric(t *testing.T) {
	w, _ := findWorkload("obj_small")
	w.opsPerSecond = smokeOps
	res, err := runEndToEnd(w, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != smokeOps || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) {
			t.Errorf("%s: reported as %+v (present %v), want a positive value", d.name, m, ok)
		}
	}
	if got := res.Metrics["kv_cmds_per_op"].Value; got != 3 {
		t.Errorf("obj_small issues %v kv commands per op, want exactly 3 (set, get, del)", got)
	}
}

// A payload that comes back altered, truncated or belonging to another
// operation is a failed operation.
func TestPayloadCheckRejectsWrongBytes(t *testing.T) {
	w, _ := findWorkload("stream_group")
	pool := newPayloadPool(1, w)
	buf := pool.take(1, 42)
	if err := pool.check(42, append([]byte(nil), buf...)); err != nil {
		t.Errorf("intact payload rejected: %v", err)
	}
	if pool.check(43, buf) == nil {
		t.Error("payload of op 42 accepted for op 43")
	}
	altered := append([]byte(nil), buf...)
	altered[len(altered)-1] ^= 1
	if pool.check(42, altered) == nil {
		t.Error("payload with a flipped bit accepted")
	}
	if pool.check(42, buf[:len(buf)-1]) == nil {
		t.Error("truncated payload accepted")
	}
}

// The attribution self-check: slowing one wrapper must show up as a rise in
// that layer's self time and in no other layer's. The slowdown is 100 %
// here, not the -inject example's 20 %, so that a few hundred operations on
// a shared machine separate it from noise. stream_group has all three
// wrappers in play, and its connector is in-memory, so no layer's time
// there depends on how the collector happens to be paced.
func TestInjectedSlowdownIsAttributedToItsLayer(t *testing.T) {
	const ops = 800
	w, _ := findWorkload("stream_group")
	layers := func(t *testing.T, ops int, inj injection) map[string]float64 {
		rec := newRecorder(ops + ops/10)
		defer rec.close()
		values, _, _, err := tracedPass(w, newPayloadPool(1, w), rec, ops/10, ops, inj)
		if err != nil {
			t.Fatal(err)
		}
		return values
	}
	layers(t, ops/4, injection{}) // takes the process's cold start on itself
	base := layers(t, ops, injection{})
	selfTimes := []string{"connector.self_us_per_op", "kvclient.call_us_per_op", "pstream.self_us_per_op"}
	for i, inj := range []injection{{connector: 1}, {kv: 1}, {broker: 1}} {
		slowed := selfTimes[i]
		t.Run(slowed, func(t *testing.T) {
			slow := layers(t, ops, inj)
			for _, name := range selfTimes {
				rise := slow[name]/base[name] - 1
				t.Logf("%s: %.1f → %.1f us per op (%+.0f%%)", name, base[name], slow[name], 100*rise)
				if name == slowed && rise < 0.5 {
					t.Errorf("%s rose %+.0f%% under a 100%% injected slowdown, want at least +50%%", name, 100*rise)
				}
				if name != slowed && rise > 0.45 {
					t.Errorf("%s rose %+.0f%% though only %s was slowed", name, 100*rise, slowed)
				}
			}
		})
	}
}
