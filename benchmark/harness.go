package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"proxystore/internal/bench"
)

// opTimeout is how long one operation may take before the run is declared
// wedged; passTimeout bounds a whole warm-up or timed part. Either stops
// the pass, and every operation not finished by then counts as failed.
const (
	opTimeout   = 10 * time.Second
	passTimeout = 150 * time.Second
)

// segments is how many equal parts a pass is cut into. Rates and latency
// percentiles are computed per part and reported as the median over the
// parts, so that a few seconds of interference from the machine's other
// tenants spoil one part of a run, not the run's figure.
const segments = 5

// segment is one part of a pass.
type segment struct {
	wall, cpu time.Duration
	latencies []float64 // ms, sorted, one per correct operation
}

// pass is the outcome of running a fixed number of operations closed-loop.
type pass struct {
	attempted int
	correct   int
	wall      time.Duration
	segs      []segment
	firstErr  error

	allocs   uint64 // bytes allocated (MemStats.TotalAlloc delta)
	mallocs  uint64
	gcPause  time.Duration
	kvCmds   uint64 // commands the kv server served
	counters counters
}

func (p pass) failed() int { return p.attempted - p.correct }

// overSegments returns the median over the pass's segments of f.
func (p pass) overSegments(f func(segment) float64) float64 {
	v := make([]float64, len(p.segs))
	for i, sg := range p.segs {
		v[i] = f(sg)
	}
	return median(v)
}

func (p pass) opsPerSecond() float64 {
	return p.overSegments(func(sg segment) float64 { return float64(len(sg.latencies)) / sg.wall.Seconds() })
}

func (p pass) cpuMsPerOp() float64 {
	return p.overSegments(func(sg segment) float64 {
		return float64(sg.cpu) / float64(time.Millisecond) / float64(len(sg.latencies))
	})
}

func (p pass) latencyMs(q float64) float64 {
	return p.overSegments(func(sg segment) float64 { return percentile(sg.latencies, q) })
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass issues operations first..first+n-1: each of the client
// goroutines takes the next unissued operation only when its previous one
// has completed. Nothing paces them; the system under test sets the rate.
func runPass(e *env, r runner, first, n int) pass {
	if n == 0 {
		return pass{}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	// The watchdog: an operation that outlives opTimeout, or a pass that
	// outlives passTimeout, cancels everything still running.
	var started [clients]atomic.Int64 // UnixNano of the client's current operation, 0 when idle
	watchdogDone := make(chan struct{})
	var watchdog sync.WaitGroup
	watchdog.Add(1)
	go func() {
		defer watchdog.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		deadline := time.Now().Add(passTimeout)
		for {
			select {
			case <-watchdogDone:
				return
			case now := <-tick.C:
				if now.After(deadline) {
					cancel(fmt.Errorf("watchdog: pass exceeded %v", passTimeout))
					return
				}
				for c := range started {
					if s := started[c].Load(); s != 0 && now.Sub(time.Unix(0, s)) > opTimeout {
						cancel(fmt.Errorf("watchdog: an operation exceeded %v", opTimeout))
						return
					}
				}
			}
		}
	}()

	// Segment j starts when a client draws operation j*per: that client
	// notes the time and the process's CPU time.
	parts := min(segments, n)
	per := n / parts
	type mark struct {
		at  time.Time
		cpu time.Duration
	}
	marks := make([]mark, parts+1)
	lat := make([]float64, n) // ms by operation, -1 for a failed one; each written once
	for i := range lat {
		lat[i] = -1
	}

	before := e.sample()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cmds0 := e.srv.Commands()

	var next atomic.Int64
	var errOnce sync.Once
	p := pass{attempted: n}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if i%per == 0 && i/per < parts {
					marks[i/per] = mark{time.Now(), cpuTime()}
				}
				started[c].Store(time.Now().UnixNano())
				d, err := r.do(ctx, c, first+i)
				started[c].Store(0)
				if err == nil {
					lat[i] = float64(d) / float64(time.Millisecond)
				} else {
					errOnce.Do(func() { p.firstErr = err })
				}
			}
		}(c)
	}
	wg.Wait()
	marks[parts] = mark{time.Now(), cpuTime()}

	p.wall = marks[parts].at.Sub(marks[0].at)
	p.kvCmds = e.srv.Commands() - cmds0
	runtime.ReadMemStats(&ms1)
	p.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.counters = e.sample().minus(before)
	close(watchdogDone)
	watchdog.Wait()

	for j := 0; j < parts; j++ {
		end := (j + 1) * per
		if j == parts-1 {
			end = n
		}
		sg := segment{wall: marks[j+1].at.Sub(marks[j].at), cpu: marks[j+1].cpu - marks[j].cpu}
		for _, ms := range lat[j*per : end] {
			if ms >= 0 {
				sg.latencies = append(sg.latencies, ms)
			}
		}
		sort.Float64s(sg.latencies)
		p.correct += len(sg.latencies)
		p.segs = append(p.segs, sg)
	}
	if cause := context.Cause(ctx); cause != nil && p.firstErr == nil {
		p.firstErr = cause
	}
	return p
}

// instance is a built workload ready for its timed part.
type instance struct {
	e *env
	r runner
}

func (in instance) close() { in.e.close() }

// setUp builds the workload from nothing — kv server, store, brokers,
// endpoint — and warms it with warm operations, which are numbered from 0;
// the timed part continues from there.
func setUp(w workload, pool *payloadPool, warm, timed int, rec *recorder, inj injection) (instance, error) {
	e, err := newEnv(w, warm+timed, pool, rec, inj)
	if err != nil {
		return instance{}, err
	}
	r, err := w.build(e)
	if err != nil {
		e.close()
		return instance{}, err
	}
	in := instance{e: e, r: r}
	if p := runPass(e, r, 0, warm); p.failed() > 0 {
		in.close()
		return instance{}, fmt.Errorf("warm-up: %d of %d operations failed: %w", p.failed(), warm, p.firstErr)
	}
	return in, nil
}

// setUpRounds is how many times a run sets the workload up. The set-up
// time reported is the median, so that one cold first dial or one badly
// placed collection does not decide it; the last round's instance runs the
// timed part.
const setUpRounds = 3

// result is what one invocation reports: the contract's four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runEndToEnd is the untraced run: set up setUpRounds times, run the timed
// part on the last instance, report the end-to-end metrics.
func runEndToEnd(w workload, seed int64, seconds int) (result, error) {
	n := w.opsPerSecond * seconds
	warm := n / 20
	pool := newPayloadPool(seed, w)
	var setups []float64
	var in instance
	for round := 0; round < setUpRounds; round++ {
		t0 := time.Now()
		var err error
		if in, err = setUp(w, pool, warm, n, nil, injection{}); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if round < setUpRounds-1 {
			in.close()
		}
	}
	// Start the timed part from a collected heap, whatever the set-up
	// rounds left behind.
	runtime.GC()
	p := runPass(in.e, in.r, warm, n)
	failed := p.failed() + in.e.violations()
	in.close()

	res := result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: map[string]metric{}}
	if failed > 0 {
		return res, fmt.Errorf("%d of %d operations failed: %w", failed, n, errOrUnknown(p.firstErr))
	}
	ops := float64(p.correct)
	values := map[string]float64{
		"ops_per_s":       p.opsPerSecond(),
		"lat_p50_ms":      p.latencyMs(0.50),
		"lat_p95_ms":      p.latencyMs(0.95),
		"cpu_ms_per_op":   p.cpuMsPerOp(),
		"alloc_kb_per_op": float64(p.allocs) / 1024 / ops,
		"kv_cmds_per_op":  float64(p.kvCmds) / ops,
		"peak_rss_mb":     float64(bench.SampleMem().PeakRSS) / (1 << 20),
		"ok_frac":         ops / float64(n),
		"setup_s":         median(setups),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	fmt.Fprintf(os.Stderr, "%s: %d samples in %d segments, timed part %.1f s, set-ups %.2f s\n",
		w.name, p.correct, len(p.segs), p.wall.Seconds(), setups)
	return res, nil
}

func errOrUnknown(err error) error {
	if err == nil {
		return errors.New("an invariant over the whole run was violated")
	}
	return err
}
