// Command ps-benchdiff compares a fresh ps-streambench JSON report against
// a committed baseline and exits non-zero on regression, so CI can hold the
// metadata-plane cost envelope over time.
//
// Rows are matched per profile name ("event", "group", ...). A row
// present in the baseline but absent from the new report is itself a
// failure — a silently dropped benchmark looks exactly like a fixed one.
//
// Two metrics gate:
//
//   - kv_cmds_per_item — the deterministic cost signal (commands issued per
//     streamed item). Regression threshold is multiplicative: -tolerance
//     (default 10%) over baseline.
//   - p95_ms — the delivery-latency signal. CI boxes are noisy, so the gate
//     is both multiplicative (-lat-tolerance, default 50%) and additive
//     (-lat-floor-ms, default 3 ms): a row only fails when the new p95
//     exceeds base×(1+tol)+floor. Sub-millisecond jitter on a 0.3 ms
//     baseline never trips it; a polling-regression jump from 2 ms to
//     20 ms does.
//
// Throughput (items/s, MB/s) is reported but never gated: wall-clock rates
// on shared runners regress for reasons that have nothing to do with the
// code under test.
//
// Usage:
//
//	ps-benchdiff -base bench/BENCH_pstream.json -new BENCH_pstream.json
//	             [-tolerance 0.10] [-lat-tolerance 0.50] [-lat-floor-ms 3]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// row mirrors the ps-streambench profile fields this tool gates on; extra
// fields in the report are ignored.
type row struct {
	Name          string   `json:"name"`
	ItemsPerSec   float64  `json:"items_per_sec"`
	KVCmdsPerItem *float64 `json:"kv_cmds_per_item"`
	// Dials and RoundTrips are the broker client's transport totals.
	// Reported as warn-only deltas, never gated: connection and flush
	// counts shift legitimately with pool sizing and pipelining windows,
	// but a silent 10× jump is worth a line in the log.
	Dials      *uint64  `json:"dials"`
	RoundTrips *uint64  `json:"round_trips"`
	P95Ms      *float64 `json:"p95_ms"`
}

// benchReport mirrors the ps-streambench -json document.
type benchReport struct {
	Profile  string `json:"profile"`
	Profiles []row  `json:"profiles"`
}

func load(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	basePath := flag.String("base", "bench/BENCH_pstream.json", "committed baseline report")
	newPath := flag.String("new", "BENCH_pstream.json", "freshly generated report")
	tol := flag.Float64("tolerance", 0.10, "allowed kv_cmds_per_item growth over baseline (fraction)")
	latTol := flag.Float64("lat-tolerance", 0.50, "allowed p95 latency growth over baseline (fraction)")
	latFloor := flag.Float64("lat-floor-ms", 3, "additive p95 noise floor in ms (absorbs CI jitter on sub-ms baselines)")
	flag.Parse()

	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loading baseline: %v\n", err)
		os.Exit(2)
	}
	fresh, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loading new report: %v\n", err)
		os.Exit(2)
	}
	if base.Profile != fresh.Profile {
		fmt.Fprintf(os.Stderr, "profile mismatch: baseline is %q, new report is %q\n", base.Profile, fresh.Profile)
		os.Exit(2)
	}

	byName := make(map[string]row, len(fresh.Profiles))
	for _, p := range fresh.Profiles {
		byName[p.Name] = p
	}

	pct := func(now, was float64) string {
		if was == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.0f%%", (now/was-1)*100)
	}

	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Printf("  FAIL: "+format+"\n", args...)
	}
	fmt.Printf("%s vs baseline %s (profile %q)\n", *newPath, *basePath, base.Profile)
	for _, b := range base.Profiles {
		n, ok := byName[b.Name]
		if !ok {
			failed = true
			fmt.Printf("%-11s missing from new report\n", b.Name)
			continue
		}
		fmt.Printf("%-11s items/s %s", b.Name, pct(n.ItemsPerSec, b.ItemsPerSec))
		if b.KVCmdsPerItem != nil && n.KVCmdsPerItem != nil {
			fmt.Printf("  kv-cmds/it %.1f→%.1f (%s)", *b.KVCmdsPerItem, *n.KVCmdsPerItem, pct(*n.KVCmdsPerItem, *b.KVCmdsPerItem))
		}
		if b.P95Ms != nil && n.P95Ms != nil {
			fmt.Printf("  p95 %.2f→%.2fms", *b.P95Ms, *n.P95Ms)
		}
		fmt.Println()
		if b.Dials != nil && n.Dials != nil && *n.Dials != *b.Dials {
			fmt.Printf("  warn: %s dials %d→%d (%s) — informational, not gated\n",
				b.Name, *b.Dials, *n.Dials, pct(float64(*n.Dials), float64(*b.Dials)))
		}
		if b.RoundTrips != nil && n.RoundTrips != nil && *n.RoundTrips != *b.RoundTrips {
			fmt.Printf("  warn: %s round trips %d→%d (%s) — informational, not gated\n",
				b.Name, *b.RoundTrips, *n.RoundTrips, pct(float64(*n.RoundTrips), float64(*b.RoundTrips)))
		}
		if b.KVCmdsPerItem != nil && n.KVCmdsPerItem != nil &&
			*n.KVCmdsPerItem > *b.KVCmdsPerItem*(1+*tol) {
			fail("%s kv_cmds_per_item %.2f exceeds baseline %.2f by more than %.0f%%",
				b.Name, *n.KVCmdsPerItem, *b.KVCmdsPerItem, *tol*100)
		}
		if b.P95Ms != nil && n.P95Ms != nil &&
			*n.P95Ms > *b.P95Ms*(1+*latTol)+*latFloor {
			fail("%s p95 %.2fms exceeds baseline %.2fms beyond %.0f%% + %.1fms noise floor",
				b.Name, *n.P95Ms, *b.P95Ms, *latTol*100, *latFloor)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: metadata-plane cost regressed against the committed baseline")
		os.Exit(1)
	}
	fmt.Println("benchdiff: within tolerance")
}
