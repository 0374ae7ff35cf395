package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"proxystore/internal/kvstore"
	"proxystore/internal/telemetry"
)

// counters are the cumulative public counters of the handles an env built;
// a pass reports their growth. The kv server's own registry starts empty
// with each env, and is read directly.
type counters struct {
	storePuts, storeGets, storeHits, storeBytesPut uint64
	roundTrips, dials                              uint64
	rttNs                                          uint64 // kvc.rtt.ns: request flush to last reply, all kv clients
	server                                         telemetry.Snapshot
}

func (e *env) sample() counters {
	var c counters
	if e.st != nil {
		m := e.st.Metrics()
		c.storePuts, c.storeGets, c.storeHits, c.storeBytesPut = m.Puts, m.Gets, m.CacheHits, m.BytesPut
	}
	if e.redis != nil {
		c.roundTrips += e.redis.RoundTrips()
		c.dials += e.redis.Dials()
		c.rttNs += e.redis.Telemetry().Snapshot().Histograms["kvc.rtt.ns"].Sum
	}
	for _, b := range e.brokers {
		c.roundTrips += b.RoundTrips()
		c.dials += b.Dials()
		c.rttNs += b.Telemetry().Snapshot().Histograms["kvc.rtt.ns"].Sum
	}
	if e.rec != nil {
		c.server = e.srv.Telemetry().Snapshot()
	}
	return c
}

func (c counters) minus(o counters) counters {
	d := counters{
		storePuts: c.storePuts - o.storePuts, storeGets: c.storeGets - o.storeGets,
		storeHits: c.storeHits - o.storeHits, storeBytesPut: c.storeBytesPut - o.storeBytesPut,
		roundTrips: c.roundTrips - o.roundTrips, dials: c.dials - o.dials, rttNs: c.rttNs - o.rttNs,
		server: telemetry.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]telemetry.HistSnapshot{}},
	}
	for name, v := range c.server.Counters {
		d.server.Counters[name] = v - o.server.Counters[name]
	}
	for name, h := range c.server.Histograms {
		was := o.server.Histograms[name]
		d.server.Histograms[name] = telemetry.HistSnapshot{Count: h.Count - was.Count, Sum: h.Sum - was.Sum}
	}
	return d
}

// traceShare is the part of an untraced run's operation count a traced run
// performs: enough for stable medians, few enough to keep spans in memory.
const traceShare = 5

// runTraced is the -trace run. It times a short untraced pass and then a
// traced pass of the same length in the same process, and derives every
// per-layer metric from the traced pass's spans and counters. End-to-end
// metrics are never taken from here.
func runTraced(w workload, seed int64, seconds int, inj injection, outDir string) (result, error) {
	return runTracedOps(w, seed, w.opsPerSecond*seconds/traceShare, inj, outDir)
}

func runTracedOps(w workload, seed int64, n int, inj injection, outDir string) (result, error) {
	warm := n / 10
	pool := newPayloadPool(seed, w)
	rec := newRecorder(warm + n)
	defer rec.close()

	in, err := setUp(w, pool, warm, n, nil, injection{})
	if err != nil {
		return result{}, fmt.Errorf("untraced reference: %w", err)
	}
	ref := runPass(in.e, in.r, warm, n)
	refFailed := ref.failed() + in.e.violations()
	in.close()
	if refFailed > 0 {
		return result{Attempted: n, Failed: refFailed}, fmt.Errorf("untraced reference: %d of %d operations failed: %w", refFailed, n, errOrUnknown(ref.firstErr))
	}

	values, p, spans, err := tracedPass(w, pool, rec, warm, n, inj)
	res := result{Correct: err == nil, Attempted: 2 * n, Failed: p.failed(), Metrics: map[string]metric{}}
	if err != nil {
		return res, err
	}
	values["trace.overhead_frac"] = 1 - p.opsPerSecond()/ref.opsPerSecond()
	// Tracing must not change what the system does: same commands per op.
	values["trace.kv_cmds_delta_frac"] = (float64(p.kvCmds)/float64(p.correct))/(float64(ref.kvCmds)/float64(ref.correct)) - 1
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	if outDir != "" {
		path := filepath.Join(outDir, "trace_"+w.name+".json")
		if err := writeTrace(path, w.name, n, spans); err != nil {
			return res, err
		}
		fmt.Fprintf(os.Stderr, "%s: %d spans of %d operations written to %s\n", w.name, len(spans), n, path)
	}
	return res, nil
}

// tracedPass sets the workload up with the benchmark's wrappers installed,
// runs n timed operations, and returns the per-layer values (all but the
// two that compare with an untraced pass) and the timed part's spans.
func tracedPass(w workload, pool *payloadPool, rec *recorder, warm, n int, inj injection) (map[string]float64, pass, []span, error) {
	in, err := setUp(w, pool, warm, n, rec, inj)
	if err != nil {
		return nil, pass{attempted: n}, nil, fmt.Errorf("traced run: %w", err)
	}
	runtime.GC()
	p := runPass(in.e, in.r, warm, n)
	failed := p.failed() + in.e.violations()
	keysEnd := dbSize(in.e.srv.Addr())
	dials := in.e.sample().dials
	codec := timeCodec(in.e)
	in.close()
	time.Sleep(50 * time.Millisecond) // let closed connections' goroutines exit before counting them
	goroutines := runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if failed > 0 {
		p.correct = n - failed
		return nil, p, nil, fmt.Errorf("traced run: %d of %d operations failed: %w", failed, n, errOrUnknown(p.firstErr))
	}

	all, err := rec.snapshot()
	if err != nil {
		return nil, p, nil, err
	}
	spans := timedSpans(all, warm)
	lags, lagSpans := deliveryLags(spans)
	spans = append(spans, lagSpans...)
	values := layerValues(in.e, p, spans, lags)
	for name, v := range codec {
		values[name] = v
	}
	values["kvserver.keys_end"] = float64(keysEnd)
	values["kvclient.dials"] = float64(dials) // since set-up: connections are dialled once, before the timed part
	values["runtime.live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	values["runtime.goroutines_end"] = float64(goroutines)
	return values, p, spans, nil
}

func dbSize(addr string) int64 {
	c := kvstore.NewClient(addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n, err := c.DBSize(ctx)
	if err != nil {
		return -1
	}
	return n
}

// timeCodec times the store's serializer on the workload's payload, alone:
// inside a put or a get the codec runs concurrently with the transfer it
// feeds, so its cost cannot be read off the spans.
func timeCodec(e *env) map[string]float64 {
	const rounds = 200
	ser := e.st.Serializer()
	v := e.serial()
	var enc, dec []float64
	var encoded []byte
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		data, err := ser.Encode(v)
		t1 := time.Now()
		if err != nil {
			return nil
		}
		if _, err := ser.Decode(data); err != nil {
			return nil
		}
		enc = append(enc, float64(t1.Sub(t0))/1e3)
		dec = append(dec, float64(time.Since(t1))/1e3)
		encoded = data
	}
	raw := e.w.payloadBytes
	return map[string]float64{
		"serial.encode_us": median(enc),
		"serial.decode_us": median(dec),
		"serial.expansion": float64(len(encoded)) / float64(raw),
	}
}

// timedSpans drops the warm-up: spans of warm-up operations, and spans
// with no operation that ended before the first timed operation began.
func timedSpans(all []span, warm int) []span {
	begin := int64(-1)
	for _, s := range all {
		if s.Name == "op" && s.Op >= warm && (begin < 0 || s.Start < begin) {
			begin = s.Start
		}
	}
	out := all[:0]
	for _, s := range all {
		if s.Op >= warm || (s.Op < 0 && s.End >= begin) {
			out = append(out, s)
		}
	}
	return out
}

// deliveryLags measures, per delivered event, the time from its publish
// returning to its delivery, in µs: to Consumer.Next returning it where the
// benchmark drives the consumer itself ("pstream.item_next"), else to the
// subscription's Next or Poll. A delivery that beats the publish's own
// return has no lag. For events the benchmark itself published it also
// returns that interval as a span under the operation, so the operation's
// time budget has no hole there.
func deliveryLags(spans []span) (lags []float64, asSpans []span) {
	delivered := make(map[uint64]int64) // flow → end of the delivering call
	byItem := make(map[uint64]bool)
	for _, s := range spans {
		switch {
		case s.Flow == 0:
		case s.Name == "pstream.item_next":
			delivered[s.Flow], byItem[s.Flow] = s.End, true
		case (s.Name == "broker.next" || s.Name == "broker.poll") && !byItem[s.Flow]:
			delivered[s.Flow] = s.End
		}
	}
	for _, pub := range spans {
		end, ok := delivered[pub.Flow]
		if pub.Name != "broker.publish" || pub.Flow == 0 || !ok {
			continue
		}
		lag := max(end-pub.End, 0)
		lags = append(lags, float64(lag)/1e3)
		if pub.Op >= 0 && lag > 0 {
			asSpans = append(asSpans, span{Name: "pstream.deliver_lag", Op: pub.Op, ID: -len(asSpans) - 1,
				Parent: rootID(pub.Op), Start: pub.End, End: end})
		}
	}
	return lags, asSpans
}

// layerValues computes the per-layer metrics that come from spans and
// counters of the traced pass.
func layerValues(e *env, p pass, spans []span, lags []float64) map[string]float64 {
	ops := float64(p.correct)
	self := selfTimes(spans)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	durs := make(map[string][]float64) // span name → durations, µs
	selfs := make(map[string][]float64)
	count := make(map[string]float64)
	children := make(map[int][]span)
	var roots []span
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], us(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], us(self[s.ID]))
		layer, _, _ := strings.Cut(s.Name, ".")
		count[layer]++
		if s.Name == "op" {
			roots = append(roots, s)
		} else if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	med := func(name string) float64 { return median(durs[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v := map[string]float64{
		"proxy.new_us":          med("proxy.new"),
		"proxy.marshal_us":      med("proxy.marshal"),
		"proxy.unmarshal_us":    med("proxy.unmarshal"),
		"proxy.resolve_miss_us": med("proxy.resolve_miss"),
		"proxy.resolve_hit_us":  med("proxy.resolve_hit"),
		// Descriptor sizes are summed over the warm-up too.
		"proxy.descriptor_bytes": ratio(float64(e.descBytes.Load()), float64(e.ops)),

		"store.put_self_us":      median(selfs["proxy.new"]),
		"store.get_self_us":      median(selfs["proxy.resolve_miss"]),
		"store.evict_us":         med("store.evict"),
		"store.cache_hit_frac":   ratio(float64(p.counters.storeHits), float64(p.counters.storeHits+p.counters.storeGets)),
		"store.bytes_put_per_op": float64(p.counters.storeBytesPut) / ops,

		"connector.put_us":       med("connector.put"),
		"connector.get_us":       med("connector.get"),
		"connector.evict_us":     med("connector.evict"),
		"connector.calls_per_op": count["connector"] / ops,

		"kvclient.round_trips_per_op":  float64(p.counters.roundTrips) / ops,
		"kvclient.cmds_per_round_trip": ratio(float64(p.kvCmds), float64(p.counters.roundTrips)),
		"kvclient.busy_us_per_op":      float64(p.counters.rttNs) / 1e3 / ops,

		"pstream.send_us":    med("pstream.send"),
		"pstream.publish_us": med("broker.publish"),
		"pstream.value_us":   med("pstream.value"),
		"pstream.ack_us":     med("broker.ack"),
		// The lag of every delivery, the task plane's worker-side
		// publishes included.
		"pstream.deliver_lag_us": median(lags),

		"faas.submit_us": med("faas.submit"),

		"runtime.mallocs_per_op":    float64(p.mallocs) / ops,
		"runtime.gc_pause_ms_per_s": float64(p.gcPause) / float64(time.Millisecond) / p.wall.Seconds(),
	}
	// Time per operation inside each wrapper layer. Connector and kv calls
	// are leaves: each kind's median times how often it is made, so that one
	// stalled call among thousands does not set the figure the way it sets
	// a mean. The broker's own time is a difference, which only sums give
	// exactly: every kv call under the broker happens inside exactly one
	// broker call, so it is the broker calls' total less the kv client's.
	var connectorTime, kvTypical, kvBusy, kvBlocked, brokerCalls float64
	for name, d := range durs {
		var total float64
		for _, x := range d {
			total += x
		}
		switch {
		case strings.HasPrefix(name, "connector."):
			connectorTime += median(d) * float64(len(d))
		case strings.HasPrefix(name, "kvwait."):
			kvBlocked += total
		case strings.HasPrefix(name, "kv."):
			kvBusy += total
			kvTypical += median(d) * float64(len(d))
		case strings.HasPrefix(name, "broker."):
			brokerCalls += total
		}
	}
	v["connector.self_us_per_op"] = connectorTime / ops
	v["kvclient.call_us_per_op"] = kvTypical / ops
	v["kvclient.blocked_us_per_op"] = kvBlocked / ops
	v["pstream.self_us_per_op"] = (brokerCalls - kvBusy - kvBlocked) / ops
	if t := e.traced; t != nil {
		// These count from the handles' first command, warm-up included;
		// numerator and denominator cover the same span of time.
		v["pstream.kv_cmds_per_publish"] = ratio(float64(t.pubTap.cmds.Load()), float64(t.publishes.Load()))
		v["pstream.kv_cmds_per_deliver"] = ratio(float64(t.subTap.cmds.Load()), float64(t.delivered.Load()))
		issued := t.pubTap.casIssued.Load() + t.subTap.casIssued.Load()
		v["pstream.cas_win_frac"] = ratio(float64(t.pubTap.casWon.Load()+t.subTap.casWon.Load()), float64(issued))
		v["pstream.event_bytes"] = ratio(float64(t.eventBytes.Load()), float64(min(t.eventsSeen.Load(), eventSamples)))
	}

	// Task plane: where the round trip goes around the function body.
	if bodies := durs["faas.body"]; len(bodies) > 0 {
		var queue, ret []float64
		for _, root := range roots {
			var submit, body *span
			for i, c := range children[root.ID] {
				switch c.Name {
				case "faas.submit":
					submit = &children[root.ID][i]
				case "faas.body":
					body = &children[root.ID][i]
				}
			}
			if submit != nil && body != nil {
				queue = append(queue, us(body.Start-submit.End))
				ret = append(ret, us(root.End-body.End))
			}
		}
		v["faas.queue_us"] = median(queue)
		v["faas.return_us"] = median(ret)
		v["faas.store_puts_per_task"] = float64(p.counters.storePuts) / ops
		v["faas.store_gets_per_task"] = float64(p.counters.storeGets) / ops
	}

	// kv server, from its own registry: execution time excludes the waits,
	// whose "latency" is how long they were parked.
	var execNs, waits uint64
	for name, h := range p.counters.server.Histograms {
		cmd, ok := strings.CutPrefix(name, "kv.cmd.")
		if !ok || !strings.HasSuffix(cmd, ".ns") {
			continue
		}
		if strings.Contains(cmd, "WAIT") {
			waits += h.Count
		} else {
			execNs += h.Sum
		}
	}
	v["kvserver.exec_us_per_op"] = float64(execNs) / 1e3 / ops
	v["kvserver.wait_cmds_per_op"] = float64(waits) / ops
	v["kvserver.cas_cmds_per_op"] = float64(p.counters.server.Counters["kv.cmd.CAS.count"]) / ops
	v["kvserver.bytes_in_per_op"] = float64(p.counters.server.Counters["kv.bytes_in"]) / ops
	v["kvserver.bytes_out_per_op"] = float64(p.counters.server.Counters["kv.bytes_out"]) / ops

	// Coverage: how much of the operations' time their phases account for.
	var opTime, phaseTime int64
	for _, root := range roots {
		opTime += root.dur()
		phaseTime += covered(children[root.ID], root.Start, root.End)
	}
	v["trace.coverage_frac"] = ratio(float64(phaseTime), float64(opTime))
	return v
}
