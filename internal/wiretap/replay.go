package wiretap

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"proxystore/internal/kvstore"
	"proxystore/internal/telemetry"
)

// Replayer drives a recorded trace against live targets. Speed selects
// the mode:
//
//   - Speed <= 1 (the default, 1×) is deterministic mode: one dispatcher
//     issues operations in recorded start order, each gated on its Dep
//     prefix (every reply that had landed when the op was originally
//     sent must land again first), with blocking waits running in their
//     own goroutines so their wakers can be issued behind them. Two
//     replays of one trace issue identical command sequences and leave
//     identical server state.
//
//   - Speed > 1 is time-compressed load mode: operations fire on their
//     recorded schedule with inter-arrival gaps (and wait timeouts)
//     divided by Speed, each in its own goroutine — recorded traffic
//     becomes a load generator that preserves the workload's shape
//     instead of replaying uniform synthetic ops. Appends and ranged
//     deletes keep their recorded order (see dispatchAsync).
type Replayer struct {
	kv    kvstore.KV
	speed float64

	mOps  *telemetry.Counter
	mDivs *telemetry.Counter
	mLag  *telemetry.Histogram
}

// ReplayOption configures a Replayer.
type ReplayOption func(*Replayer)

// WithKVTarget aims kv-plane operations at kv. Required when the trace
// contains kv ops.
func WithKVTarget(kv kvstore.KV) ReplayOption {
	return func(r *Replayer) { r.kv = kv }
}

// WithSpeed sets the time-compression factor; values <= 1 select
// deterministic mode.
func WithSpeed(speed float64) ReplayOption {
	return func(r *Replayer) { r.speed = speed }
}

// WithReplayRegistry points the replayer's ps.replay.* metrics at reg
// instead of the default registry.
func WithReplayRegistry(reg *telemetry.Registry) ReplayOption {
	return func(r *Replayer) {
		r.mOps = reg.Counter("ps.replay.ops")
		r.mDivs = reg.Counter("ps.replay.divergences")
		r.mLag = reg.Histogram("ps.replay.lag.ns")
	}
}

// NewReplayer returns a replayer; aim it with WithKVTarget.
func NewReplayer(opts ...ReplayOption) *Replayer {
	r := &Replayer{speed: 1}
	WithReplayRegistry(telemetry.Default())(r)
	for _, o := range opts {
		o(r)
	}
	return r
}

// Report summarizes one replay.
type Report struct {
	// Ops counts operations dispatched; Divergences counts operations
	// whose replies differed from the recording (see diverges for what
	// counts); Stragglers counts blocking waits still unfinished when the
	// grace window lapsed; StallReleases counts happens-before gates the
	// dispatcher abandoned after stallPatience (zero for any trace whose
	// causal structure the replay can satisfy — committed fixtures are
	// verified to replay with zero at generation time).
	Ops, Divergences, Stragglers, StallReleases int
	// Details holds the first few divergences, human-readable.
	Details []string
	// IssueOrder is the order operations were issued in — in
	// deterministic mode, two replays of one trace produce identical
	// slices (asserted by the regression tests, equal to recorded start
	// order).
	IssueOrder []OpRef
	// Duration is wall time from first dispatch to last completion
	// (bounded by the grace window).
	Duration time.Duration
}

const maxDetails = 16

// replayGrace bounds how long Run waits for straggling blocking waits
// after the last dispatch.
const replayGrace = 15 * time.Second

// replayRun carries one Run's mutable state.
type replayRun struct {
	r  *Replayer
	tr *Trace

	mu         sync.Mutex
	done       []bool // per completion-order index
	watermark  int    // len of the all-done prefix of done
	cond       *sync.Cond
	report     Report
	byRef      map[OpRef]int // op ref -> completion-order index
	inFlight   sync.WaitGroup
	ctx        context.Context
	firstError error
}

// Run replays tr. It returns an error only for malformed traces, missing
// targets, or a canceled context — reply mismatches are reported as
// divergences, not errors, so load runs over imperfectly reproducible
// traces still complete.
func (r *Replayer) Run(ctx context.Context, tr *Trace) (*Report, error) {
	for i := range tr.Ops {
		op := &tr.Ops[i]
		switch op.Plane {
		case PlaneKV:
			if r.kv == nil {
				return nil, fmt.Errorf("wiretap: trace has kv ops but no kv target (WithKVTarget)")
			}
		default:
			return nil, fmt.Errorf("wiretap: op %d has unknown plane %q", i, op.Plane)
		}
	}
	run := &replayRun{
		r:     r,
		tr:    tr,
		done:  make([]bool, len(tr.Ops)),
		byRef: make(map[OpRef]int, len(tr.Ops)),
		ctx:   ctx,
	}
	run.cond = sync.NewCond(&run.mu)
	for i := range tr.Ops {
		run.byRef[tr.Ops[i].Ref()] = i
	}
	// A canceled context must unwedge dispatcher waits on the condvar.
	stop := context.AfterFunc(ctx, func() {
		run.mu.Lock()
		run.cond.Broadcast()
		run.mu.Unlock()
	})
	defer stop()

	t0 := time.Now()
	var err error
	if r.speed > 1 {
		err = run.compressed(t0)
	} else {
		err = run.deterministic()
	}
	run.awaitInFlight()
	run.report.Duration = time.Since(t0)
	if err == nil {
		err = run.firstError
	}
	return &run.report, err
}

// deterministic dispatches on the merged timeline (see dispatchOrder),
// gating each op on its Dep prefix.
func (x *replayRun) deterministic() error {
	for _, op := range dispatchOrder(x.tr) {
		if err := x.awaitDep(int(op.Dep)); err != nil {
			return err
		}
		x.dispatch(op, x.ctx)
	}
	return nil
}

// dispatchOrder is the deterministic-mode issue order: non-blocking ops
// sorted by recorded completion, blocking ops merged in at their recorded
// start.
//
// Completion order — not start order — is the faithful serialization for
// non-blocking ops: the server answers a command as it processes it, so
// reply order tracks server arrival order, while two ops racing from
// different connections can reach the server in the opposite of the
// order their clients issued them. Replaying a recorded CAS race in
// client start order can crown the wrong winner; replaying in reply
// order reproduces the recorded outcome.
//
// Blocking waits are the exception twice over: their reply order says
// when their waker arrived (not when they did — sorting them by
// completion would dispatch a wait after the op that wakes it), and
// their server-side registration order doesn't affect other commands.
// They dispatch asynchronously at their recorded start position.
func dispatchOrder(tr *Trace) []*Op {
	out := make([]*Op, len(tr.Ops))
	key := func(op *Op) int64 {
		if op.Blocking {
			return op.Start
		}
		return op.End
	}
	for i := range tr.Ops {
		out[i] = &tr.Ops[i]
	}
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// compressed dispatches every op in its own goroutine on the recorded
// schedule divided by speed.
func (x *replayRun) compressed(t0 time.Time) error {
	for _, op := range x.tr.OpsByStart() {
		target := t0.Add(time.Duration(float64(op.Start) / x.r.speed))
		if d := time.Until(target); d > 0 {
			select {
			case <-time.After(d):
			case <-x.ctx.Done():
				return x.ctx.Err()
			}
		}
		x.r.mLag.Since(target)
		x.dispatchAsync(op, x.ctx)
	}
	return nil
}

// stallPatience bounds one happens-before gate. A trace's recorded
// timestamps can (rarely) order a blocking wait's waker after an op that
// depends on the wait — a causal knot no dispatch order untangles. Rather
// than hang, the dispatcher abandons the gate after this long and counts
// a StallRelease.
const stallPatience = 10 * time.Second

// awaitDep blocks until the first dep ops (completion order) have all
// completed in this replay, or until stallPatience gives out.
func (x *replayRun) awaitDep(dep int) error {
	deadline := time.Now().Add(stallPatience)
	timer := time.AfterFunc(stallPatience, func() {
		x.mu.Lock()
		x.cond.Broadcast()
		x.mu.Unlock()
	})
	defer timer.Stop()
	x.mu.Lock()
	defer x.mu.Unlock()
	for x.watermark < dep {
		if x.ctx.Err() != nil {
			return x.ctx.Err()
		}
		if time.Now().After(deadline) {
			x.report.StallReleases++
			return nil
		}
		x.cond.Wait()
	}
	return nil
}

// dispatch issues op: inline when non-blocking (strictly serializing the
// command stream), in its own goroutine when the op parks server-side.
func (x *replayRun) dispatch(op *Op, ctx context.Context) {
	x.mu.Lock()
	x.report.Ops++
	x.report.IssueOrder = append(x.report.IssueOrder, op.Ref())
	x.mu.Unlock()
	if op.Blocking {
		x.inFlight.Add(1)
		go func() {
			defer x.inFlight.Done()
			x.exec(op, ctx)
		}()
		return
	}
	x.exec(op, ctx)
}

// dispatchAsync issues op in its own goroutine (compressed mode). An op
// that takes or drops log slots first waits for its Dep prefix: the
// server picks an append's slots when it runs it, so racing appends would
// land in other slots, and every later op naming a slot would name
// another event; and a ranged delete run before the appends it covered
// would miss them.
func (x *replayRun) dispatchAsync(op *Op, ctx context.Context) {
	x.mu.Lock()
	x.report.Ops++
	x.report.IssueOrder = append(x.report.IssueOrder, op.Ref())
	x.mu.Unlock()
	x.inFlight.Add(1)
	go func() {
		defer x.inFlight.Done()
		if op.Name == "LAPPEND" || op.Name == "DELRANGE" {
			x.awaitDep(int(op.Dep)) // on a canceled run, exec fails at once
		}
		x.exec(op, ctx)
	}()
}

// awaitInFlight waits out blocking stragglers up to the grace window.
func (x *replayRun) awaitInFlight() {
	finished := make(chan struct{})
	go func() {
		x.inFlight.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(replayGrace):
		x.mu.Lock()
		x.report.Stragglers = x.report.Ops - x.completedLocked()
		x.mu.Unlock()
	}
}

func (x *replayRun) completedLocked() int {
	n := 0
	for _, d := range x.done {
		if d {
			n++
		}
	}
	return n
}

// exec runs one op against its target, compares the reply with the
// recording, and marks the op complete for Dep gating.
func (x *replayRun) exec(op *Op, ctx context.Context) {
	// A wait that originally died with its context (claimer canceled
	// mid-claim, shutdown mid-poll) is replayed under a deadline shaped
	// like the recorded one, so it errors again instead of parking for
	// the full recorded timeout.
	if op.Err != "" && op.Blocking {
		d := time.Duration(float64(op.End-op.Start) / x.speedOrOne())
		if d < time.Millisecond {
			d = time.Millisecond
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	reply, err := x.execKV(op, ctx)
	x.r.mOps.Inc()
	if reason, ok := diverges(op, reply, err); ok {
		x.r.mDivs.Inc()
		x.mu.Lock()
		x.report.Divergences++
		if len(x.report.Details) < maxDetails {
			x.report.Details = append(x.report.Details, reason)
		}
		x.mu.Unlock()
	}
	x.complete(op)
}

// complete marks op done and advances the watermark.
func (x *replayRun) complete(op *Op) {
	i, ok := x.byRef[op.Ref()]
	if !ok {
		return
	}
	x.mu.Lock()
	x.done[i] = true
	for x.watermark < len(x.done) && x.done[x.watermark] {
		x.watermark++
	}
	x.mu.Unlock()
	x.cond.Broadcast()
}

func (x *replayRun) speedOrOne() float64 {
	if x.r.speed > 1 {
		return x.r.speed
	}
	return 1
}

func (x *replayRun) fail(err error) {
	x.mu.Lock()
	if x.firstError == nil {
		x.firstError = err
	}
	x.mu.Unlock()
}

// execKV re-issues one kv-plane op through a capturing tap around the
// target, so the replayed reply is normalized by the exact code that
// normalized the recording and the two compare byte-for-byte.
func (x *replayRun) execKV(op *Op, ctx context.Context) (reply [][]byte, err error) {
	captured := false
	tap := kvstore.NewTap(x.r.kv, func(string, [][]byte, bool) kvstore.TapDone {
		return func(r [][]byte, e error) {
			captured, reply, err = true, r, e
		}
	})
	callErr := x.callKV(tap, op, ctx)
	if !captured {
		// callKV itself failed (malformed op) before reaching the target.
		err = callErr
		if callErr != nil {
			x.fail(callErr)
		}
	}
	return reply, err
}

// callKV decodes op's recorded args and issues it: the two waits and a
// PIPELINE through their KV methods, and every other op as the command it
// names, after checking its args against the command table so a
// malformed op from a trace file never reaches the target.
func (x *replayRun) callKV(kv kvstore.KV, op *Op, ctx context.Context) error {
	args := op.Args
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("wiretap: op %s/%d.%d has %d args, need %d", op.Name, op.Conn, op.Idx, len(args), n)
		}
		return nil
	}
	switch op.Name {
	case "WAITGET":
		if err := need(2); err != nil {
			return err
		}
		timeout, err := x.waitTimeout(args[1])
		if err != nil {
			return fmt.Errorf("wiretap: WAITGET op %d.%d: %w", op.Conn, op.Idx, err)
		}
		kv.WaitGet(ctx, string(args[0]), timeout)
	case "WAITPREFIX":
		if err := need(3); err != nil {
			return err
		}
		after, aerr := strconv.ParseUint(string(args[1]), 10, 64)
		timeout, terr := x.waitTimeout(args[2])
		if aerr != nil || terr != nil {
			return fmt.Errorf("wiretap: WAITPREFIX op %d.%d args %q %q", op.Conn, op.Idx, args[1], args[2])
		}
		kv.WaitPrefix(ctx, string(args[0]), after, timeout)
	case "PIPELINE":
		cmds, err := parsePipeArgs(args)
		if err != nil {
			return err
		}
		p := kv.Pipeline()
		for _, c := range cmds {
			p.Do(c.name, c.args...)
		}
		p.Exec(ctx)
	default:
		cmd, ok := kvstore.LookupCommand(op.Name)
		if !ok {
			return fmt.Errorf("wiretap: op %d.%d has unknown kv command %q", op.Conn, op.Idx, op.Name)
		}
		if err := cmd.CheckArgs(args); err != nil {
			return fmt.Errorf("wiretap: op %s/%d.%d: %w", op.Name, op.Conn, op.Idx, err)
		}
		kv.Do(ctx, op.Name, args...)
	}
	return nil
}

// waitTimeout decodes a recorded nanosecond wait timeout, compressing it
// in load mode so waits scale with the schedule.
func (x *replayRun) waitTimeout(arg []byte) (time.Duration, error) {
	ns, err := strconv.ParseInt(string(arg), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("timeout %q: %w", arg, err)
	}
	d := time.Duration(float64(ns) / x.speedOrOne())
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d, nil
}

// diverges reports whether a replayed reply differs from the recording,
// and how. Divergence is judged on outcomes a correct replay must
// reproduce, not on values that legitimately drift:
//
//   - recorded error: never divergent. Errors are environmental — a
//     trace captured across a primary failover records refused dials
//     that a replay against one healthy server cannot (and should not)
//     reproduce. Blocking errored ops still get a recorded-shaped
//     deadline (see exec) so they don't stall the schedule;
//   - WAITPREFIX: hit/miss shape only. The reply is the server's
//     mutation sequence number, which depends on global mutation count —
//     identical interleaving, different absolute value;
//   - everything else: the normalized replies must match byte-for-byte.
func diverges(op *Op, reply [][]byte, err error) (string, bool) {
	id := fmt.Sprintf("%s op %d.%d", op.Name, op.Conn, op.Idx)
	if op.Err != "" {
		return "", false
	}
	if err != nil {
		return fmt.Sprintf("%s: recorded success, replay error: %v", id, err), true
	}
	if op.Name == "WAITPREFIX" {
		if sameShape(op.Reply, reply) {
			return "", false
		}
		return fmt.Sprintf("%s: recorded %s, replayed %s", id, shapeOf(op.Reply), shapeOf(reply)), true
	}
	if len(op.Reply) != len(reply) {
		return fmt.Sprintf("%s: recorded %d reply elements, replayed %d", id, len(op.Reply), len(reply)), true
	}
	for i := range reply {
		if !bytes.Equal(op.Reply[i], reply[i]) {
			return fmt.Sprintf("%s: reply element %d: recorded %q, replayed %q", id, i, truncate(op.Reply[i]), truncate(reply[i])), true
		}
	}
	return "", false
}

// sameShape compares normalized replies by element tags only.
func sameShape(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ta, tb := byte(0), byte(0)
		if len(a[i]) > 0 {
			ta = a[i][0]
		}
		if len(b[i]) > 0 {
			tb = b[i][0]
		}
		if ta != tb {
			return false
		}
	}
	return true
}

func shapeOf(reply [][]byte) string {
	tags := make([]byte, 0, len(reply))
	for _, el := range reply {
		if len(el) > 0 {
			tags = append(tags, el[0])
		} else {
			tags = append(tags, '?')
		}
	}
	return string(tags)
}

func truncate(b []byte) string {
	const n = 48
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}

// KVSnapshot reads the current values of keys (MGet, in chunks) and
// returns present keys with their values — the final-state fingerprint
// the determinism tests compare across replays. Feed it Trace.KVKeys.
func KVSnapshot(ctx context.Context, kv kvstore.KV, keys []string) (map[string]string, error) {
	out := make(map[string]string)
	const chunk = 256
	for base := 0; base < len(keys); base += chunk {
		end := base + chunk
		if end > len(keys) {
			end = len(keys)
		}
		vals, err := kvstore.MGet(ctx, kv, keys[base:end]...)
		if err != nil {
			return nil, err
		}
		for i, v := range vals {
			if v != nil {
				out[keys[base+i]] = string(v)
			}
		}
	}
	return out, nil
}

// SnapshotDiff renders the difference between two KVSnapshot maps,
// empty when identical — so a failing determinism assertion names the
// keys that drifted instead of dumping both maps.
func SnapshotDiff(a, b map[string]string) string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		va, oka := a[k]
		vb, okb := b[k]
		switch {
		case !oka:
			diffs = append(diffs, fmt.Sprintf("%s: only in second (%q)", k, truncate([]byte(vb))))
		case !okb:
			diffs = append(diffs, fmt.Sprintf("%s: only in first (%q)", k, truncate([]byte(va))))
		case va != vb:
			diffs = append(diffs, fmt.Sprintf("%s: %q != %q", k, truncate([]byte(va)), truncate([]byte(vb))))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	if len(diffs) > maxDetails {
		diffs = append(diffs[:maxDetails], fmt.Sprintf("... and %d more", len(diffs)-maxDetails))
	}
	var buf bytes.Buffer
	for i, d := range diffs {
		if i > 0 {
			buf.WriteByte('\n')
		}
		buf.WriteString(d)
	}
	return buf.String()
}
