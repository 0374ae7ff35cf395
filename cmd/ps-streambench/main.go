// Command ps-streambench measures the pstream planes under three
// profiles, selected with -profile:
//
//	stream (default) — one producer fanning a stream of objects out to N
//	consumers, across the delivery modes below
//	tasks            — the task plane: a stream-backed faas executor
//	                   submits paced tasks to an endpoint worker pool
//	                   (consumer-group claims over the broker), reporting
//	                   submit→execute→result latency per task and
//	                   kv-cmds/task
//	multi            — the stream profile's batched mode over a
//	                   multi-connector store: small payloads route to an
//	                   in-memory child, large ones to a file child, the
//	                   broker carrying the same O(100 B) events either way
//	pipeline         — the client-transport profile (kv broker only): the
//	                   same streaming workloads with the data plane moved
//	                   off the kv server (local store), so the kv-cmds,
//	                   round-trip and connection columns isolate the
//	                   broker's own transport. pipe-fanout measures
//	                   cmds-per-round-trip (>1 ⇔ the pipelined ack/publish
//	                   paths amortize flushes); pipe-group parks ≥16 group
//	                   members and measures conns-per-consumer (≤1 ⇔ the
//	                   wait multiplexer shares one blocking-wait
//	                   connection instead of pinning one per member)
//	churn            — the fleet-lifecycle profile (kv broker only):
//	                   -gens generations of ephemeral executors churn
//	                   against one long-lived endpoint over a
//	                   heartbeat-enabled broker. Even generations await
//	                   every result and Close cleanly; odd generations
//	                   crash (Kill) with results still in flight, stranding
//	                   them on the shared per-endpoint result topic
//	                   addressed to clients that no longer exist. The
//	                   endpoint's heartbeat-driven sweeps must reclaim
//	                   those orphans: the profile reports the server's
//	                   settled key count and orphans swept alongside the
//	                   usual submit→result latency columns
//	replay           — trace-driven load (kv broker only): -trace replays a
//	                   wire trace recorded with -record against a fresh
//	                   in-process kv server. -speed 1 is the deterministic
//	                   mode (ops issue in recorded dependency order; service
//	                   times should match the recording); -speed N > 1
//	                   compresses the recorded schedule N× into a load
//	                   generator. The row reports replayed kv-cmds/item
//	                   (which must land within ±10% of the recorded run
//	                   under -strict) and replayed op latencies; the JSON
//	                   report takes the recorded run's profile and row name
//	                   so ps-benchdiff can diff replay against live.
//	shard            — the sharded-tier profile: -topics concurrent
//	                   producers publish metadata-only events against a
//	                   durable in-process kv tier, once with 1 shard and
//	                   once with -shards, and the rows' aggregate publish
//	                   rates show what consistent-hash sharding buys when
//	                   every publish must reach a shard's commit log
//	                   before it is acknowledged. The commit device is
//	                   modeled per shard (-commit, netsim style — real
//	                   appends, modeled flush time) since co-located
//	                   shards sharing one local disk would serialize on
//	                   its journal and hide the scaling; -fsync swaps in
//	                   real fsyncs for multi-disk hardware
//
// -kv pstream.NewKV's address — a single server or a cluster spec
// ("host:port|replica,host:port" — shards by ",", replicas by "|") — runs
// the kv-broker profiles against an external tier instead of an
// in-process server, with the data plane on a local store. This is how CI
// drives a publish/consume workload through a primary→replica failover:
// point -kv at a primary|replica pair and kill the primary mid-run.
//
// The stream profile's delivery modes:
//
//	inline     — eager blob fan-out: every payload travels through the broker
//	             itself, once per consumer (the classic message-queue baseline)
//	eager      — proxy streaming, window 1: events cross the broker, every
//	             consumer resolves each payload with its own blob get
//	batched    — proxy streaming, prefetch window: pending events drain
//	             together and payloads arrive in batched store gets
//	batchpub   — batched on both halves: the producer's SendBatch reserves a
//	             whole offset range with one broker operation (KVBroker: one
//	             INCRBY + one MSET instead of 2 round trips per event)
//	event      — the delivery-latency profile: paced single-event sends
//	             (-gap apart), consumers parked in blocking waits between
//	             arrivals — push delivery's home turf.
//	group      — with -groups: consumers form one consumer group, so the
//	             stream is a work queue where each item is claimed by exactly
//	             one member (total work = items, not items × consumers).
//	             Paced like event.
//
// It reports items/sec, bytes over the broker vs bytes over the store, kv
// server commands per item, and p50/p95/p99 publish→deliver latency —
// making all three ProxyStream trades visible: the metadata plane stays
// O(KB) per item while the data plane carries the bulk, batching collapses
// the publish path's round trips, and push delivery keeps an idle
// consumer at O(1) kv commands per delivered item with sub-millisecond
// wakes.
//
// -json writes the full result table as machine-readable JSON
// (BENCH_pstream.json in CI) so runs can be tracked over time. -strict
// exits non-zero in the pipeline profile if pipelining fails to amortize round trips (cmds/rtt ≤ 1.02) or parked
// group members fail to share the wait connection (conns/consumer > 1);
// in the shard profile, if the sharded row's aggregate publish throughput
// falls below 1.3× the single-shard row (a floor set well under the ~2×
// a quiet machine shows, for loaded CI runners); in the churn profile, if
// the server fails to settle at ≤ 64 keys after the storm (orphan GC
// leaked) or p95 submit→result exceeds 1 s (churn stalled the task plane).
//
// Usage:
//
//	ps-streambench [-profile stream|tasks|multi|pipeline|shard|churn|replay] [-items N] [-size BYTES]
//	               [-consumers N] [-window N] [-batch N] [-gap DUR]
//	               [-broker mem|kv] [-kv ADDR|SPEC] [-groups] [-wan] [-json PATH] [-strict]
//	               [-shards N] [-topics N] [-commit DUR] [-fsync] [-gens N]
//	               [-mode ROW] [-record FILE] [-trace FILE] [-speed N]
//
// -record (with -mode selecting exactly one row) taps the kv broker's
// client and writes every command, reply and timestamp to a wiretap trace;
// the data plane moves to a local store so the trace accounts for every
// server command. The trace file is written atomically (.partial, then
// rename) and partial files are removed on fatal exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/file"
	"proxystore/internal/connectors/local"
	"proxystore/internal/connectors/multi"
	"proxystore/internal/connectors/redisc"
	"proxystore/internal/faas"
	"proxystore/internal/kvstore"
	"proxystore/internal/netsim"
	"proxystore/internal/pstream"
	"proxystore/internal/serial"
	"proxystore/internal/store"
	"proxystore/internal/telemetry"
	"proxystore/internal/wiretap"
)

// attrT0 carries the publish timestamp (UnixNano) so consumers can measure
// publish→deliver latency without shared clocks beyond the process's own.
const attrT0 = "bench.t0"

// Churn-profile timing and gates. The heartbeat TTL is short so crashed
// executors are detected quickly (the settle loop waits it out); the lease
// stays well above it so reclamation is heartbeat-driven, as in
// production. The gates bound the server's settled key count (orphan GC
// actually reclaims dead clients' results) and p95 submit→result latency
// (membership churn does not stall the live task path).
const (
	churnHeartbeat = 150 * time.Millisecond
	churnLease     = 2 * time.Second
	churnKeyGate   = 64
	churnP95GateMS = 1000
)

// profile is one benchmark row, printed as a table line and emitted to the
// JSON report.
type profile struct {
	Name          string   `json:"name"`
	ItemsPerSec   float64  `json:"items_per_sec"`
	MBPerSec      float64  `json:"mb_per_sec"`
	BrokerBytes   uint64   `json:"broker_bytes"`
	StoreBytes    uint64   `json:"store_bytes"`
	KVCmdsPerItem *float64 `json:"kv_cmds_per_item,omitempty"`
	// CmdsPerRTT is kv server commands over client request flushes: >1
	// means pipelining packed multiple commands into one round trip.
	// Reported by the pipeline profile, where the kv server carries only
	// broker traffic.
	CmdsPerRTT *float64 `json:"cmds_per_rtt,omitempty"`
	// ConnsPerConsumer is broker TCP connections (Dials) over consumer
	// count: ≤1 means parked consumers share connections (the wait
	// multiplexer) instead of pinning one each.
	ConnsPerConsumer *float64 `json:"conns_per_consumer,omitempty"`
	// Dials / RoundTrips are the KVBroker's client transport totals for
	// the row (kv broker only): TCP connections opened and request
	// flushes, from the broker's telemetry-backed counters.
	Dials      *uint64 `json:"dials,omitempty"`
	RoundTrips *uint64 `json:"round_trips,omitempty"`
	// FinalKeys is the kv server's key count after the churn profile's
	// settle loop — bounded by the strict gate when orphan GC holds.
	FinalKeys *int64 `json:"final_keys,omitempty"`
	// OrphansSwept counts dead clients' stranded results the endpoint's
	// sweeps reclaimed during the churn profile.
	OrphansSwept *uint64  `json:"orphans_swept,omitempty"`
	P50Ms        *float64 `json:"p50_ms,omitempty"`
	P95Ms        *float64 `json:"p95_ms,omitempty"`
	P99Ms        *float64 `json:"p99_ms,omitempty"`
}

// report is the -json document.
type report struct {
	Profile   string  `json:"profile"`
	Items     int     `json:"items"`
	Size      int     `json:"size_bytes"`
	Consumers int     `json:"consumers"`
	Window    int     `json:"window"`
	Batch     int     `json:"batch"`
	GapMS     float64 `json:"gap_ms"`
	Broker    string  `json:"broker"`
	WAN       bool    `json:"wan"`
	// Shard-profile parameters: topic/shard counts and the commit-device
	// model behind the pub-Nshard rows (commit_ms 0 with fsync true means
	// real fsync per append).
	Topics   int     `json:"topics,omitempty"`
	Shards   int     `json:"shards,omitempty"`
	CommitMS float64 `json:"commit_ms,omitempty"`
	Fsync    bool    `json:"fsync,omitempty"`
	// Gens is the churn profile's executor-generation count.
	Gens     int       `json:"gens,omitempty"`
	Profiles []profile `json:"profiles"`
}

// latencies collects publish→deliver samples across consumer goroutines,
// backed by the telemetry histogram: lock-free nanosecond observations
// instead of the old mutex-guarded sorted-sample percentile math, at
// ≲6% relative quantile error.
type latencies struct {
	h telemetry.Histogram
}

func (l *latencies) record(d time.Duration) {
	l.h.Observe(int64(d))
}

// observe records the event's publish→deliver latency if it carries a
// bench timestamp.
func (l *latencies) observe(ev pstream.Event, now time.Time) {
	raw := ev.Attr(attrT0)
	if raw == "" {
		return
	}
	nanos, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return
	}
	l.record(now.Sub(time.Unix(0, nanos)))
}

// percentiles returns p50/p95/p99 in ms, or nil when no samples landed.
func (l *latencies) percentiles() (p50, p95, p99 *float64) {
	s := l.h.Snapshot()
	if s.Count == 0 {
		return nil, nil, nil
	}
	pct := func(q float64) *float64 {
		v := s.Quantile(q) / float64(time.Millisecond)
		return &v
	}
	return pct(0.50), pct(0.95), pct(0.99)
}

func nowAttr() map[string]string {
	return map[string]string{attrT0: strconv.FormatInt(time.Now().UnixNano(), 10)}
}

func main() {
	profileKind := flag.String("profile", "stream", "benchmark profile: stream | tasks | multi | pipeline | shard | churn")
	items := flag.Int("items", 256, "objects to stream (tasks with -profile tasks)")
	size := flag.Int("size", 256<<10, "object size in bytes (task argument size with -profile tasks)")
	consumers := flag.Int("consumers", 2, "consumer count (group members with -groups, endpoint workers with -profile tasks)")
	window := flag.Int("window", 16, "batched-mode prefetch window")
	batch := flag.Int("batch", 32, "batchpub-mode SendBatch size")
	gap := flag.Duration("gap", 2*time.Millisecond, "inter-send pacing for the event/group/tasks latency profiles")
	brokerKind := flag.String("broker", "kv", "broker: mem | kv")
	kvAddr := flag.String("kv", "", "external kvstore address or cluster spec (\"primary|replica\" / \"shard1,shard2\"; kv broker only — replaces the in-process server, data plane moves to a local store so the run measures the external tier)")
	shards := flag.Int("shards", 2, "shard count for the sharded row of -profile shard")
	topics := flag.Int("topics", 8, "independent topics for -profile shard")
	commit := flag.Duration("commit", 2*time.Millisecond, "modeled per-shard commit-device latency for -profile shard (each shard owns its device, as in a real deployment; 0 disables the model)")
	fsync := flag.Bool("fsync", false, "fsync every append in -profile shard instead of modeling the commit device (honest on multi-disk hardware; on one local disk the shards' flushes share the journal and mostly serialize)")
	gens := flag.Int("gens", 6, "executor generations for -profile churn (odd generations crash with work in flight)")
	groups := flag.Bool("groups", false, "add the consumer-group work-queue profiles (stream profile)")
	wan := flag.Bool("wan", false, "model WAN delays on the redis data plane (kv broker only)")
	jsonPath := flag.String("json", "", "write machine-readable results to this path")
	strict := flag.Bool("strict", false, "exit non-zero when the profile's gates fail (pipeline: cmds/rtt and conns/consumer; shard: sharded speedup; churn: settled keys and p95; replay: replayed-vs-recorded kv-cmds and op p95)")
	modeFilter := flag.String("mode", "", "run only the named benchmark row (e.g. \"group\"; required with -record, which needs exactly one row)")
	recordPath := flag.String("record", "", "record the row's broker wire traffic to this trace file (in-process kv broker only; forces a local data plane so the trace holds every server command)")
	tracePath := flag.String("trace", "", "trace file to drive -profile replay")
	speed := flag.Float64("speed", 1, "replay speedup: 1 = deterministic per-dependency replay, >1 = time-compressed load (gaps and wait timeouts divided by this)")
	flag.Parse()

	recording := *recordPath != ""
	if recording {
		if *profileKind == "replay" {
			fmt.Fprintln(os.Stderr, "-record records a live run; it cannot be combined with -profile replay")
			os.Exit(2)
		}
		if *brokerKind != "kv" || *kvAddr != "" {
			fmt.Fprintln(os.Stderr, "-record requires -broker kv with the in-process server (no -kv): the trace's kv-cmds meta comes from the server's own counter")
			os.Exit(2)
		}
	}
	var rec *wiretap.Recorder
	if recording {
		rec = wiretap.NewRecorder()
	}

	var srv *kvstore.Server
	var mkBroker func() pstream.Broker
	// mkStore builds the run's data-plane store; gobSer selects the
	// default gob serializer (needed for the tasks profile's struct
	// payloads) over the raw []byte serializer.
	var mkStore func(run string, gobSer bool) *store.Store
	switch *brokerKind {
	case "mem":
		mkBroker = func() pstream.Broker { return pstream.NewMem() }
		mkStore = func(run string, _ bool) *store.Store {
			st, err := store.New("sb-"+run, local.New("sb-conn-"+run), store.WithCacheBytes(0))
			if err != nil {
				log.Fatal(err)
			}
			return st
		}
	case "kv":
		if *kvAddr != "" {
			// External tier (possibly sharded/replicated — the spec syntax
			// is the cluster package's): the broker runs against it while
			// the data plane stays in-process, so the run measures the
			// external servers' metadata plane — including through a
			// failover, which is what the CI kill-primary smoke drives.
			mkBroker = func() pstream.Broker { return pstream.NewKV(*kvAddr) }
			mkStore = func(run string, gobSer bool) *store.Store {
				sopts := []store.Option{store.WithCacheBytes(0)}
				if !gobSer {
					sopts = append(sopts, store.WithSerializer(serial.Raw()))
				}
				st, err := store.New("sb-"+run, local.New("sb-conn-"+run), sopts...)
				if err != nil {
					log.Fatal(err)
				}
				return st
			}
			break
		}
		var err error
		srv, err = kvstore.NewServer("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		var opts []redisc.Option
		if *wan {
			redisc.SetNetwork(netsim.Testbed(5000))
			opts = append(opts, redisc.WithSites(netsim.SiteEdge, netsim.SiteCloud))
		}
		mkBroker = func() pstream.Broker {
			var kvOpts []pstream.KVOption
			if rec != nil {
				kvOpts = append(kvOpts, pstream.WithKVWrap(rec.WrapKV))
			}
			return pstream.NewKV(srv.Addr(), kvOpts...)
		}
		mkStore = func(run string, gobSer bool) *store.Store {
			sopts := []store.Option{store.WithCacheBytes(0)}
			if !gobSer {
				sopts = append(sopts, store.WithSerializer(serial.Raw()))
			}
			// Recording forces the data plane off the kv server: the redis
			// connector's commands would land in the server's counter but
			// not in the trace, so a replay could never match the recorded
			// kv-cmds/item.
			conn := connector.Connector(redisc.New(srv.Addr(), opts...))
			if recording {
				conn = local.New("sb-conn-" + run)
			}
			st, err := store.New("sb-"+run, conn, sopts...)
			if err != nil {
				log.Fatal(err)
			}
			return st
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown broker %q\n", *brokerKind)
		os.Exit(2)
	}

	unit, rate := "it", "items/s"
	if *profileKind == "tasks" || *profileKind == "churn" {
		unit, rate = "task", "tasks/s"
	}
	switch *profileKind {
	case "replay":
		fmt.Printf("replay profile: %s at %gx against a fresh in-process kv server\n\n", *tracePath, *speed)
	case "tasks":
		fmt.Printf("%d tasks × %d KiB args to a %d-worker endpoint over %q broker (submit→execute→result)\n\n",
			*items, *size>>10, *consumers, *brokerKind)
	case "churn":
		fmt.Printf("churn profile: %d executor generations × %d tasks (%d KiB args) against a %d-worker endpoint; odd generations crash with results in flight\n\n",
			*gens, *items, *size>>10, *consumers)
	case "multi":
		fmt.Printf("streaming %d × {4 KiB, %d KiB} to %d consumers over %q broker via a multi-connector store\n\n",
			*items, *size>>10, *consumers, *brokerKind)
	case "pipeline":
		fmt.Printf("transport profile: %d × %d KiB items over %q broker, local data plane (kv server carries broker traffic only)\n\n",
			*items, *size>>10, *brokerKind)
	case "shard":
		durability := fmt.Sprintf("modeled %v commit device per shard", *commit)
		if *fsync {
			durability = "fsync per append"
		}
		fmt.Printf("shard profile: %d publishes across %d independent topics, 1 vs %d durable kv shards (%s)\n\n",
			*items, *topics, *shards, durability)
	default:
		fmt.Printf("streaming %d × %d KiB to %d consumers over %q broker\n\n",
			*items, *size>>10, *consumers, *brokerKind)
	}
	hdrExtra := ""
	if *profileKind == "pipeline" {
		hdrExtra = fmt.Sprintf(" %9s %10s", "cmds/rtt", "conns/cons")
	}
	fmt.Printf("%-11s %9s %8s %13s %13s %10s %8s %8s %8s%s\n",
		"mode", rate, "MB/s", "broker-bytes", "store-bytes", "kv-cmds/"+unit, "p50 ms", "p95 ms", "p99 ms", hdrExtra)

	results := make(map[string]profile)
	var order []string
	// reportProfile is the -json document's profile field; the replay
	// profile overrides it with the recorded run's profile so ps-benchdiff
	// can compare the replay report against the live one.
	reportProfile := *profileKind
	replayOK := true
	// The multi profile spools its file-connector child into temp dirs;
	// fatalf removes them before exiting, because log.Fatal bypasses
	// defers and would otherwise strand items×size bytes in /tmp on
	// every failed run.
	var multiDirs []string
	// recPartial is the in-progress trace file; a fatal exit mid-record
	// must not strand a half-written (and unloadable) trace on disk.
	var recPartial string
	rmMultiDirs := func() {
		for _, d := range multiDirs {
			os.RemoveAll(d)
		}
		if recPartial != "" {
			os.Remove(recPartial)
		}
	}
	defer rmMultiDirs()
	fatalf := func(format string, args ...any) {
		rmMultiDirs()
		log.Fatalf(format, args...)
	}
	// rowConsumers is the consumer count behind the pipeline profile's
	// conns/consumer column; the pipe-group row overrides it to its
	// (possibly widened) member count before calling run.
	rowConsumers := *consumers
	printRow := func(p profile) {
		opt := func(v *float64) string {
			if v == nil {
				return "-"
			}
			return fmt.Sprintf("%.2f", *v)
		}
		cmdsCol := "-"
		if p.KVCmdsPerItem != nil {
			cmdsCol = fmt.Sprintf("%.1f", *p.KVCmdsPerItem)
		}
		rowExtra := ""
		if *profileKind == "pipeline" {
			rowExtra = fmt.Sprintf(" %9s %10s", opt(p.CmdsPerRTT), opt(p.ConnsPerConsumer))
		}
		fmt.Printf("%-11s %9.0f %8.1f %13d %13d %10s %8s %8s %8s%s\n",
			p.Name, p.ItemsPerSec, p.MBPerSec, p.BrokerBytes, p.StoreBytes,
			cmdsCol, opt(p.P50Ms), opt(p.P95Ms), opt(p.P99Ms), rowExtra)
	}
	// run executes one benchmark row. newStore builds the row's store
	// (so the multi profile can swap connectors) and rowSize is the
	// payload size behind the MB/s column.
	run := func(mode string, newStore func(run string) *store.Store, rowSize int, f func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error) {
		if *modeFilter != "" && mode != *modeFilter {
			return
		}
		st := newStore(mode)
		defer st.Close()
		cb := pstream.NewCounting(mkBroker())
		defer cb.Close()
		lats := &latencies{}
		var cmds0 uint64
		if srv != nil {
			cmds0 = srv.Commands()
		}
		start := time.Now()
		if err := f(cb, st, lats); err != nil {
			fatalf("%s: %v", mode, err)
		}
		elapsed := time.Since(start)
		m := st.Metrics()
		p := profile{
			Name:        mode,
			ItemsPerSec: float64(*items) / elapsed.Seconds(),
			MBPerSec:    float64(*items*rowSize) / 1e6 / elapsed.Seconds(),
			BrokerBytes: cb.BytesPublished() + cb.BytesDelivered(),
			StoreBytes:  m.BytesPut + m.BytesGot,
		}
		if srv != nil {
			perItem := float64(srv.Commands()-cmds0) / float64(*items)
			p.KVCmdsPerItem = &perItem
		}
		p.P50Ms, p.P95Ms, p.P99Ms = lats.percentiles()
		if kvb, ok := cb.Broker.(*pstream.KVBroker); ok {
			dials, rtts := kvb.Dials(), kvb.RoundTrips()
			p.Dials, p.RoundTrips = &dials, &rtts
			if *profileKind == "pipeline" && srv != nil {
				if rtts > 0 {
					v := float64(srv.Commands()-cmds0) / float64(rtts)
					p.CmdsPerRTT = &v
				}
				if rowConsumers > 0 {
					cc := float64(dials) / float64(rowConsumers)
					p.ConnsPerConsumer = &cc
				}
			}
		}
		results[mode] = p
		order = append(order, mode)
		printRow(p)
	}
	rawStore := func(run string) *store.Store { return mkStore(run, false) }
	gobStore := func(run string) *store.Store { return mkStore(run, true) }
	// multiStore builds a policy-routed multi-connector store: payloads up
	// to 64 KiB land in an in-memory child, larger ones in a file child.
	multiStore := func(run string) *store.Store {
		dir, err := os.MkdirTemp("", "sb-multi-*")
		if err != nil {
			fatalf("%v", err)
		}
		multiDirs = append(multiDirs, dir)
		bulk, err := file.New(dir)
		if err != nil {
			fatalf("%v", err)
		}
		router, err := multi.New(
			multi.Child{Name: "fast", Connector: local.New("sbm-fast-" + run), Policy: multi.Policy{MaxSize: 64 << 10, Priority: 10}},
			multi.Child{Name: "bulk", Connector: bulk, Policy: multi.Policy{Priority: 5}},
		)
		if err != nil {
			fatalf("%v", err)
		}
		st, err := store.New("sbm-"+run, router, store.WithSerializer(serial.Raw()), store.WithCacheBytes(0))
		if err != nil {
			fatalf("%v", err)
		}
		return st
	}

	payload := make([]byte, *size)
	for i := range payload {
		payload[i] = byte(i * 17)
	}

	switch *profileKind {
	case "tasks":
		run("tasks", gobStore, *size, func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error {
			return taskRoundTrips(cb, st, payload, *items, *consumers, *gap, lats)
		})
	case "multi":
		// Same batched streaming workload, two payload classes: 4 KiB
		// routes to the in-memory child, -size to the file child.
		small := make([]byte, 4<<10)
		for i := range small {
			small[i] = byte(i * 31)
		}
		run("multi-small", multiStore, len(small), func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error {
			return proxyStream(cb, st, small, streamOpts{items: *items, consumers: *consumers, window: *window}, lats)
		})
		run("multi-large", multiStore, *size, func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error {
			return proxyStream(cb, st, payload, streamOpts{items: *items, consumers: *consumers, window: *window}, lats)
		})
	case "stream":
		run("inline", rawStore, *size, func(cb *pstream.CountingBroker, _ *store.Store, lats *latencies) error {
			return inlineFanOut(cb, payload, *items, *consumers, lats)
		})
		run("eager", rawStore, *size, func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error {
			return proxyStream(cb, st, payload, streamOpts{items: *items, consumers: *consumers, window: 1}, lats)
		})
		run("batched", rawStore, *size, func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error {
			return proxyStream(cb, st, payload, streamOpts{items: *items, consumers: *consumers, window: *window}, lats)
		})
		run("batchpub", rawStore, *size, func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error {
			return proxyStream(cb, st, payload, streamOpts{items: *items, consumers: *consumers, window: *window, sendBatch: *batch}, lats)
		})
		// The latency profiles: paced sends, consumers blocked between events.
		run("event", rawStore, *size, func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error {
			return proxyStream(cb, st, payload, streamOpts{items: *items, consumers: *consumers, window: 1, gap: *gap}, lats)
		})
		if *groups {
			run("group", rawStore, *size, func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error {
				return proxyStream(cb, st, payload, streamOpts{items: *items, consumers: *consumers, window: *window, gap: *gap, group: true}, lats)
			})
		}
	case "pipeline":
		if srv == nil {
			fmt.Fprintln(os.Stderr, "the pipeline profile requires -broker kv")
			os.Exit(2)
		}
		// The data plane stays in-process (local connector), so every
		// command the kv server sees belongs to the broker: cmds/rtt and
		// conns/consumer are pure metadata-plane transport measurements.
		localStore := func(run string) *store.Store {
			st, err := store.New("sb-"+run, local.New("sb-conn-"+run), store.WithSerializer(serial.Raw()), store.WithCacheBytes(0))
			if err != nil {
				fatalf("%v", err)
			}
			return st
		}
		// pipe-fanout exercises the pipelined ack path: windowed consumers
		// commit ranges of offsets, so cmds/rtt > 1 ⇔ those commits pack
		// multiple INCRs into one flush.
		run("pipe-fanout", localStore, *size, func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error {
			return proxyStream(cb, st, payload, streamOpts{items: *items, consumers: *consumers, window: *window}, lats)
		})
		// pipe-group parks enough group members that connection sharing is
		// unambiguous: without the wait multiplexer, N parked members would
		// pin N blocking-wait connections (conns/consumer ≥ 1).
		pipeMembers := *consumers
		if pipeMembers < 16 {
			pipeMembers = 16
		}
		rowConsumers = pipeMembers
		run("pipe-group", localStore, *size, func(cb *pstream.CountingBroker, st *store.Store, lats *latencies) error {
			return proxyStream(cb, st, payload, streamOpts{items: *items, consumers: pipeMembers, window: *window, gap: *gap, group: true}, lats)
		})
	case "shard":
		// The shard profile measures what sharding actually buys: the
		// metadata plane's write throughput when every publish must be
		// committed to a shard's durable log before it is acknowledged.
		// Each row brings up its own durable in-process tier (1 shard,
		// then -shards), publishes -items events spread across -topics
		// independent topics — topics hash to shards by their
		// "ps:<topic>" placement prefix, so independent topics spread —
		// and reports aggregate publish throughput. No payloads, no
		// consumers: the per-shard commit log is the bottleneck under
		// test, and it is the one resource that multiplies with shards.
		// By default the commit device is modeled (-commit, netsim
		// style: real appends, modeled flush time) because co-located
		// shards sharing one disk would hide the scaling; -fsync swaps
		// in the real thing for multi-disk hardware.
		shardRow := func(name string, n int) {
			dir, err := os.MkdirTemp("", "sb-shard-*")
			if err != nil {
				fatalf("%v", err)
			}
			defer os.RemoveAll(dir)
			durOpt := kvstore.WithModeledCommitLatency(*commit)
			if *fsync {
				durOpt = kvstore.WithAOFSync()
			}
			var srvs []*kvstore.Server
			var addrs []string
			for i := 0; i < n; i++ {
				s, err := kvstore.NewServer("127.0.0.1:0",
					kvstore.WithPersistence(filepath.Join(dir, fmt.Sprintf("shard%d.aof", i))),
					durOpt)
				if err != nil {
					fatalf("%v", err)
				}
				defer s.Close()
				srvs = append(srvs, s)
				addrs = append(addrs, s.Addr())
			}
			cb := pstream.NewCounting(pstream.NewKV(strings.Join(addrs, ",")))
			defer cb.Close()
			lats := &latencies{}
			start := time.Now()
			if err := shardPublish(cb, *topics, *items, lats); err != nil {
				fatalf("%s: %v", name, err)
			}
			elapsed := time.Since(start)
			var cmds uint64
			for _, s := range srvs {
				cmds += s.Commands()
			}
			perItem := float64(cmds) / float64(*items)
			p := profile{
				Name:          name,
				ItemsPerSec:   float64(*items) / elapsed.Seconds(),
				BrokerBytes:   cb.BytesPublished() + cb.BytesDelivered(),
				KVCmdsPerItem: &perItem,
			}
			p.P50Ms, p.P95Ms, p.P99Ms = lats.percentiles()
			results[name] = p
			order = append(order, name)
			printRow(p)
		}
		shardRow("pub-1shard", 1)
		shardRow(fmt.Sprintf("pub-%dshard", *shards), *shards)
	case "churn":
		if srv == nil {
			fmt.Fprintln(os.Stderr, "the churn profile requires -broker kv and the in-process server (no -kv)")
			os.Exit(2)
		}
		// The data plane rides a local store so the kv server's key count
		// — the thing the gate bounds — is pure broker + membership state.
		churnStore, err := store.New("sb-churn", local.New("sb-conn-churn"), store.WithCacheBytes(0))
		if err != nil {
			fatalf("%v", err)
		}
		defer churnStore.Close()
		cli := kvstore.NewClient(srv.Addr())
		defer cli.Close()
		cb := pstream.NewCounting(pstream.NewKV(srv.Addr(),
			pstream.WithKVHeartbeat(churnHeartbeat),
			pstream.WithKVLease(churnLease),
			pstream.WithKVTruncate(1)))
		defer cb.Close()
		lats := &latencies{}
		cmds0 := srv.Commands()
		res, err := churnFleet(cb, churnStore,
			func() (int64, error) { return cli.DBSize(context.Background()) },
			payload, *gens, *items, *consumers, *gap, lats)
		if err != nil {
			fatalf("churn: %v", err)
		}
		sm := churnStore.Metrics()
		perItem := float64(srv.Commands()-cmds0) / float64(res.completed)
		p := profile{
			Name:          "churn",
			ItemsPerSec:   float64(res.completed) / res.workDur.Seconds(),
			MBPerSec:      float64(res.completed*(*size)) / 1e6 / res.workDur.Seconds(),
			BrokerBytes:   cb.BytesPublished() + cb.BytesDelivered(),
			StoreBytes:    sm.BytesPut + sm.BytesGot,
			KVCmdsPerItem: &perItem,
			FinalKeys:     &res.finalKeys,
			OrphansSwept:  &res.swept,
		}
		p.P50Ms, p.P95Ms, p.P99Ms = lats.percentiles()
		results["churn"] = p
		order = append(order, "churn")
		printRow(p)
	case "replay":
		if srv == nil {
			fmt.Fprintln(os.Stderr, "the replay profile requires -broker kv and the in-process server (no -kv)")
			os.Exit(2)
		}
		if *tracePath == "" {
			fmt.Fprintln(os.Stderr, "the replay profile requires -trace <file> (record one with -record)")
			os.Exit(2)
		}
		tr, err := wiretap.Load(*tracePath)
		if err != nil {
			fatalf("loading trace: %v", err)
		}
		recItems, _ := strconv.Atoi(tr.Meta["items"])
		if recItems <= 0 {
			fatalf("trace %s carries no items meta; was it recorded with -record?", *tracePath)
		}
		rowName := tr.Meta["mode"]
		if rowName == "" {
			rowName = "replay"
		}
		if p := tr.Meta["profile"]; p != "" {
			// The JSON report takes the recorded profile so ps-benchdiff
			// matches the replay row against the live run's report.
			reportProfile = p
		}
		// Recorded comparators: kv-cmds/item from the recording's meta,
		// op-duration percentiles recomputed from the trace itself.
		// Blocking waits are excluded on both sides: their durations are
		// park time (and scale with -speed), not command service time.
		recCmdsPerItem, _ := strconv.ParseFloat(tr.Meta["kv_cmds_per_item"], 64)
		recLats := &latencies{}
		for i := range tr.Ops {
			if op := &tr.Ops[i]; !op.Blocking {
				recLats.record(time.Duration(op.End - op.Start))
			}
		}
		_, recP95, _ := recLats.percentiles()

		lats := &latencies{}
		cli := kvstore.NewClient(srv.Addr())
		defer cli.Close()
		// A timing tap under the replayer measures each re-issued op, so
		// the row's latency columns are replayed op durations — directly
		// comparable to the recorded ops' own durations.
		target := kvstore.NewTap(cli, func(_ string, _ [][]byte, blocking bool) kvstore.TapDone {
			if blocking {
				return func([][]byte, error) {}
			}
			t0 := time.Now()
			return func([][]byte, error) { lats.record(time.Since(t0)) }
		})
		rep := wiretap.NewReplayer(wiretap.WithKVTarget(target), wiretap.WithSpeed(*speed))
		cmds0 := srv.Commands()
		rr, err := rep.Run(context.Background(), tr)
		if err != nil {
			fatalf("replay: %v", err)
		}
		perItem := float64(srv.Commands()-cmds0) / float64(recItems)
		p := profile{
			Name:          rowName,
			ItemsPerSec:   float64(recItems) / rr.Duration.Seconds(),
			KVCmdsPerItem: &perItem,
		}
		p.P50Ms, p.P95Ms, p.P99Ms = lats.percentiles()
		printRow(p)
		if *speed > 1 {
			// Time compression deliberately overloads the target — the
			// printed latency columns are the load measurement, not a
			// fidelity signal, so they stay out of the JSON report (and
			// out of ps-benchdiff's p95 gate).
			p.P50Ms, p.P95Ms, p.P99Ms = nil, nil, nil
		}
		results[rowName] = p
		order = append(order, rowName)
		fmt.Printf("\nreplayed %d ops at %gx in %v: %d divergences, %d stragglers, %d stall releases",
			rr.Ops, *speed, rr.Duration.Round(time.Millisecond), rr.Divergences, rr.Stragglers, rr.StallReleases)
		if rr.Stragglers > 0 {
			replayOK = false
		}
		if recCmdsPerItem > 0 {
			ratio := perItem / recCmdsPerItem
			fmt.Printf("\nreplay: %.1f kv-cmds/item vs %.1f recorded (%+.0f%%; gate ±10%%)",
				perItem, recCmdsPerItem, (ratio-1)*100)
			// Two-sided: a replay that issues meaningfully fewer commands
			// than the recording is as unfaithful as one issuing more.
			if ratio > 1.10 || ratio < 0.90 {
				replayOK = false
			}
		}
		if recP95 != nil && p.P95Ms != nil && *speed <= 1 {
			// Only 1× replay promises recorded-shaped service times.
			fmt.Printf("\nreplay: op p95 %.2f ms vs %.2f ms recorded (gate ≤ 2x + 5 ms)", *p.P95Ms, *recP95)
			if *p.P95Ms > *recP95*2+5 {
				replayOK = false
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profileKind)
		os.Exit(2)
	}

	if recording {
		if len(order) != 1 {
			fatalf("-record needs exactly one benchmark row in the run (select one with -mode); this run produced %d", len(order))
		}
		row := results[order[0]]
		rec.SetMeta("profile", *profileKind)
		rec.SetMeta("mode", order[0])
		rec.SetMeta("items", strconv.Itoa(*items))
		rec.SetMeta("consumers", strconv.Itoa(*consumers))
		if row.KVCmdsPerItem != nil {
			rec.SetMeta("kv_cmds_per_item", strconv.FormatFloat(*row.KVCmdsPerItem, 'f', -1, 64))
		}
		tr := rec.Trace()
		// Write-then-rename: a crash mid-write leaves only the .partial
		// (removed by fatalf), never a torn file under the final name —
		// the trace codec would refuse a torn file anyway, loudly.
		recPartial = *recordPath + ".partial"
		if err := tr.Save(recPartial); err != nil {
			fatalf("recording trace: %v", err)
		}
		if err := os.Rename(recPartial, *recordPath); err != nil {
			fatalf("recording trace: %v", err)
		}
		recPartial = ""
		fmt.Printf("recorded %d ops to %s\n", len(tr.Ops), *recordPath)
	}

	pipeOK := true
	if p, ok := results["pipe-fanout"]; ok && p.CmdsPerRTT != nil {
		fmt.Printf("\npipe-fanout: %.2f kv commands per round trip (pipelining amortizes flushes when > 1)", *p.CmdsPerRTT)
		if *p.CmdsPerRTT <= 1.02 {
			pipeOK = false
		}
	}
	if p, ok := results["pipe-group"]; ok && p.ConnsPerConsumer != nil {
		fmt.Printf("\npipe-group: %.2f connections per parked member (mux shares the wait connection when ≤ 1)", *p.ConnsPerConsumer)
		if *p.ConnsPerConsumer > 1 {
			pipeOK = false
		}
	}
	churnOK := true
	if p, ok := results["churn"]; ok && p.FinalKeys != nil {
		fmt.Printf("\nchurn: %d orphaned results swept; server settled at %d keys (gate %d)",
			*p.OrphansSwept, *p.FinalKeys, churnKeyGate)
		if *p.FinalKeys > churnKeyGate {
			churnOK = false
		}
		if p.P95Ms == nil || *p.P95Ms > churnP95GateMS {
			churnOK = false
		}
	}
	shardOK := true
	if one, ok := results["pub-1shard"]; ok && len(order) == 2 {
		many := results[order[1]]
		speedup := many.ItemsPerSec / one.ItemsPerSec
		fmt.Printf("\n%s: %.2fx aggregate publish throughput vs one shard", many.Name, speedup)
		// The strict floor is deliberately below the ~linear scaling a
		// quiet machine shows: loaded CI runners share cores between the
		// shard servers and the publishers.
		if speedup < 1.3 {
			shardOK = false
		}
	}
	fmt.Println()

	if *jsonPath != "" {
		rep := report{
			Profile: reportProfile,
			Items:   *items, Size: *size, Consumers: *consumers,
			Window: *window, Batch: *batch,
			GapMS:  float64(*gap) / float64(time.Millisecond),
			Broker: *brokerKind, WAN: *wan,
		}
		if *profileKind == "shard" {
			rep.Topics, rep.Shards, rep.Fsync = *topics, *shards, *fsync
			if !*fsync {
				rep.CommitMS = float64(*commit) / float64(time.Millisecond)
			}
		}
		if *profileKind == "churn" {
			rep.Gens = *gens
		}
		for _, name := range order {
			rep.Profiles = append(rep.Profiles, results[name])
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("encoding report: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", *jsonPath, err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *strict && !pipeOK {
		fmt.Fprintln(os.Stderr, "strict: pipelining/mux transport gates failed (need cmds/rtt > 1.02 and conns/consumer ≤ 1)")
		os.Exit(1)
	}
	if *strict && !shardOK {
		fmt.Fprintln(os.Stderr, "strict: sharded publish throughput below 1.3x the single-shard row")
		os.Exit(1)
	}
	if *strict && !churnOK {
		fmt.Fprintf(os.Stderr, "strict: churn gates failed (need ≤ %d settled keys and p95 submit→result ≤ %d ms)\n", churnKeyGate, churnP95GateMS)
		os.Exit(1)
	}
	if *strict && !replayOK {
		fmt.Fprintln(os.Stderr, "strict: replay gates failed (need kv-cmds/item within ±10% of recorded, op p95 ≤ 2x recorded + 5 ms, no stragglers)")
		os.Exit(1)
	}
}

// benchFnOnce registers the tasks profile's function exactly once (the
// faas registry is process-global).
var benchFnOnce sync.Once

// taskRoundTrips drives the stream-backed task plane: paced submissions
// through a StreamExecutor to a StreamEndpoint worker pool, recording each
// task's submit→execute→result latency. The broker carries only task and
// result events; the -size argument bytes ride the store.
func taskRoundTrips(b pstream.Broker, st *store.Store, payload []byte, tasks, workers int, gap time.Duration, lats *latencies) error {
	benchFnOnce.Do(func() {
		faas.RegisterFunction("bench-len", func(_ context.Context, args []any) (any, error) {
			return len(args[0].([]byte)), nil
		})
	})
	// A hard deadline turns a lost result (or any task-plane regression)
	// into a diagnosable failure instead of a hung CI job — scaled by the
	// run's own pacing so large -items/-gap combinations stay legal.
	ctx, cancel := context.WithTimeout(context.Background(),
		2*time.Minute+2*time.Duration(tasks)*gap)
	defer cancel()
	epName := "bench-" + connector.NewID()[:8]
	ep := faas.StartStreamEndpoint(st, b, epName, workers)
	defer ep.Close()
	exec, err := faas.NewStreamExecutor(st, b, epName)
	if err != nil {
		return err
	}
	defer exec.Close()

	var wg sync.WaitGroup
	errs := make(chan error, tasks)
	for i := 0; i < tasks; i++ {
		t0 := time.Now()
		fut, err := exec.Submit(ctx, "bench-len", payload)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := fut.Result(ctx)
			if err != nil {
				errs <- err
				return
			}
			if v.(int) != len(payload) {
				errs <- fmt.Errorf("task saw %v bytes, want %d", v, len(payload))
				return
			}
			lats.record(time.Since(t0))
		}()
		if gap > 0 {
			time.Sleep(gap)
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// churnResult is what churnFleet hands back to the churn profile's row.
type churnResult struct {
	completed int           // tasks submitted, executed, and awaited
	workDur   time.Duration // the workload alone, excluding the settle loop
	finalKeys int64         // server key count after the settle loop
	swept     uint64        // orphaned results the endpoint reclaimed
}

// churnFleet drives the churn profile's workload: gens generations of
// ephemeral StreamExecutors against one long-lived endpoint. Every
// generation submits and awaits `tasks` tasks (the latency samples); even
// generations then Close cleanly, odd generations submit two more tasks
// and Kill — a crash with results in flight, stranding them on the shared
// result topic addressed to a client whose heartbeat is about to expire.
// After the last generation it waits out the heartbeat TTL and sweeps
// until the server's key count settles, returning the settled count for
// the strict gate.
func churnFleet(b pstream.Broker, st *store.Store, dbsize func() (int64, error), payload []byte, gens, tasks, workers int, gap time.Duration, lats *latencies) (churnResult, error) {
	benchFnOnce.Do(func() {
		faas.RegisterFunction("bench-len", func(_ context.Context, args []any) (any, error) {
			return len(args[0].([]byte)), nil
		})
	})
	var res churnResult
	ctx, cancel := context.WithTimeout(context.Background(),
		2*time.Minute+2*time.Duration(gens*tasks)*gap)
	defer cancel()
	epName := "churn-" + connector.NewID()[:8]
	ep := faas.StartStreamEndpoint(st, b, epName, workers)
	defer ep.Close()

	start := time.Now()
	for g := 0; g < gens; g++ {
		exec, err := faas.NewStreamExecutor(st, b, epName)
		if err != nil {
			return res, err
		}
		var wg sync.WaitGroup
		errs := make(chan error, tasks)
		for i := 0; i < tasks; i++ {
			t0 := time.Now()
			fut, err := exec.Submit(ctx, "bench-len", payload)
			if err != nil {
				return res, err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := fut.Result(ctx)
				if err != nil {
					errs <- err
					return
				}
				if v.(int) != len(payload) {
					errs <- fmt.Errorf("task saw %v bytes, want %d", v, len(payload))
					return
				}
				lats.record(time.Since(t0))
			}()
			if gap > 0 {
				time.Sleep(gap)
			}
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return res, fmt.Errorf("generation %d: %w", g, err)
		}
		res.completed += tasks
		if g%2 == 0 {
			if err := exec.Close(); err != nil {
				return res, fmt.Errorf("generation %d close: %w", g, err)
			}
			continue
		}
		// A crash with work in flight: these results will land on the
		// shared result topic addressed to a client that no longer exists,
		// and only the endpoint's heartbeat-driven sweeps can reclaim them.
		for i := 0; i < 2; i++ {
			if _, err := exec.Submit(ctx, "bench-len", payload); err != nil {
				return res, err
			}
		}
		exec.Kill()
	}
	res.workDur = time.Since(start)

	// Settle: wait out the crashed executors' heartbeats, then sweep until
	// the key count stops falling — the endpoint's janitor loop, compressed
	// so the bench terminates promptly.
	time.Sleep(2 * churnHeartbeat)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := ep.SweepResults(ctx); err != nil {
			return res, fmt.Errorf("sweep: %w", err)
		}
		n, err := dbsize()
		if err != nil {
			return res, err
		}
		res.finalKeys, res.swept = n, ep.Swept()
		if n <= churnKeyGate || time.Now().After(deadline) {
			return res, nil
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// inlineFanOut pushes payloads through the broker itself: the baseline
// where the metadata plane is the data plane.
func inlineFanOut(b pstream.Broker, payload []byte, items, consumers int, lats *latencies) error {
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, consumers+1)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sub, err := b.Subscribe(ctx, "inline", fmt.Sprintf("c%d", c))
			if err != nil {
				errs <- err
				return
			}
			defer sub.Close()
			for i := 0; i < items; i++ {
				ev, err := sub.Next(ctx)
				if err != nil {
					errs <- err
					return
				}
				lats.observe(ev, time.Now())
				if len(ev.ProxyData) != len(payload) {
					errs <- fmt.Errorf("consumer %d: truncated inline payload", c)
					return
				}
				if _, err := sub.Ack(ctx, ev); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < items; i++ {
			ev := pstream.Event{Producer: "p", Seq: uint64(i + 1), ProxyData: payload, Attrs: nowAttr()}
			if err := b.Publish(ctx, "inline", ev); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	return <-errs
}

// shardPublish drives the shard profile's workload: `topics` concurrent
// producers publishing metadata-only events, each to its own topic, as
// fast as the broker accepts them. The producers draw from one shared
// budget of `items` publishes rather than fixed per-topic shares: topics
// hash to shards, and with fixed shares an uneven topic→shard split would
// leave the lighter shard idle at the tail, understating the tier's
// aggregate rate. Topic names are fixed (each row gets fresh servers) so
// the split is identical across rows and runs. Per-publish latency is
// recorded directly (there are no consumers to observe delivery).
func shardPublish(b pstream.Broker, topics, items int, lats *latencies) error {
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, topics)
	for t := 0; t < topics; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			topic := fmt.Sprintf("shard-bench-%d", t)
			var seq uint64
			for next.Add(1) <= int64(items) {
				seq++
				t0 := time.Now()
				if err := b.Publish(ctx, topic, pstream.Event{Producer: "p", Seq: seq}); err != nil {
					errs <- err
					return
				}
				lats.record(time.Since(t0))
			}
		}(t)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// streamOpts parameterizes one proxyStream run.
type streamOpts struct {
	items, consumers, window int
	// sendBatch > 0 publishes in SendBatch chunks of that size.
	sendBatch int
	// gap paces sends, modeling an event stream rather than a bulk
	// transfer: consumers park in blocking waits between arrivals, so the
	// row measures wake latency rather than throughput.
	gap time.Duration
	// group makes the consumers members of one consumer group (each item
	// claimed by exactly one member) instead of independent fan-out readers.
	group bool
}

// proxyStream is the ProxyStream pattern: payloads through the store,
// events through the broker, consumers resolving with the given window.
func proxyStream(b pstream.Broker, st *store.Store, payload []byte, o streamOpts, lats *latencies) error {
	ctx := context.Background()
	topic := "px-" + connector.NewID()[:8]
	evictAfter := o.consumers
	if o.group {
		evictAfter = 1 // the whole group counts as one consumer
	}
	var wg sync.WaitGroup
	errs := make(chan error, o.consumers+1)
	var consumed sync.Map
	for c := 0; c < o.consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			copts := []pstream.ConsumerOption{pstream.WithWindow(o.window)}
			if o.group {
				copts = append(copts, pstream.WithGroup("pool"))
			}
			cons, err := pstream.NewConsumer[[]byte](ctx, b, topic, fmt.Sprintf("c%d", c), copts...)
			if err != nil {
				errs <- err
				return
			}
			defer cons.Close()
			n := 0
			for {
				it, err := cons.Next(ctx)
				if errors.Is(err, pstream.ErrEnd) {
					consumed.Store(c, n)
					return
				}
				if err != nil {
					errs <- err
					return
				}
				lats.observe(it.Event, time.Now())
				v, err := it.Value(ctx)
				if err != nil {
					errs <- err
					return
				}
				if len(v) != len(payload) {
					errs <- fmt.Errorf("consumer %d: truncated payload", c)
					return
				}
				if err := it.Ack(ctx); err != nil {
					errs <- err
					return
				}
				n++
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		prod := pstream.NewProducer[[]byte](st, b, topic, pstream.WithEvictOnAck(evictAfter))
		if o.sendBatch > 0 {
			for sent := 0; sent < o.items; sent += o.sendBatch {
				n := o.sendBatch
				if o.items-sent < n {
					n = o.items - sent
				}
				batch := make([][]byte, n)
				attrs := make([]map[string]string, n)
				for i := range batch {
					batch[i] = payload
				}
				// One timestamp per batch: the batch is published atomically.
				t0 := nowAttr()
				for i := range attrs {
					attrs[i] = t0
				}
				if err := prod.SendBatch(ctx, batch, attrs); err != nil {
					errs <- err
					return
				}
				if o.gap > 0 {
					time.Sleep(o.gap)
				}
			}
		} else {
			for i := 0; i < o.items; i++ {
				if err := prod.Send(ctx, payload, nowAttr()); err != nil {
					errs <- err
					return
				}
				if o.gap > 0 {
					time.Sleep(o.gap)
				}
			}
		}
		if err := prod.Close(ctx); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	total := 0
	consumed.Range(func(_, v any) bool { total += v.(int); return true })
	want := o.items * o.consumers
	if o.group {
		want = o.items
	}
	if total != want {
		return fmt.Errorf("consumed %d items in total, want %d", total, want)
	}
	return nil
}
