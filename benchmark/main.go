// Command benchmark is this repository's performance benchmark: four
// closed-loop workloads with a fixed operation count, nine end-to-end
// metrics reported identically for each, and a traced run that times the
// calls into every layer from the benchmark's own wrappers. README.md in
// this directory defines the workloads and the metrics.
//
//	go run ./benchmark                      all workloads, end-to-end metrics
//	go run ./benchmark -trace 1             all workloads, per-layer metrics
//	go run ./benchmark -workload obj_small  one workload, in this process
//	go run ./benchmark -aa                  two interleaved sets of runs of this binary
//
// A single-workload run prints its metrics by name and, as the last line
// of standard output, one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long a timed part
// takes at the seed commit.
const defaultSeconds = 20

// processLimit ends a process that has not finished by then, whatever it
// is stuck in, without printing a result.
const processLimit = 170 * time.Second

func main() {
	workloadName := flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "seed of the generated payloads")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed part at the seed commit; fixes the operation count")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	inject := flag.String("inject", "", "with -trace 1: <connector|broker|kv>=<fraction>, that wrapper busy-spins the fraction of each call's time")
	aa := flag.Bool("aa", false, "run two interleaved sets of three suite runs and compare their medians with the bounds")
	flag.Parse()

	inj, err := parseInjection(*inject)
	if err == nil && flag.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if err == nil && (*seconds < 1 || *seconds > 60) {
		err = fmt.Errorf("-seconds must be between 1 and 60")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err == nil && *inject != "" && *trace != 1 {
		err = fmt.Errorf("-inject needs -trace 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}

	switch {
	case *aa:
		os.Exit(runAA(*seed, *seconds))
	case *workloadName == "":
		if _, ok := runSuite(*seed, *seconds, *trace, *inject, true); !ok {
			os.Exit(1)
		}
	default:
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *workloadName)
			os.Exit(2)
		}
		os.Exit(runOne(w, *seed, *seconds, *trace == 1, inj))
	}
}

// runOne runs one workload in this process and prints its result.
func runOne(w workload, seed int64, seconds int, traced bool, inj injection) int {
	runtime.GOMAXPROCS(clients)
	time.AfterFunc(processLimit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v, giving up\n", w.name, processLimit)
		os.Exit(3)
	})
	var res result
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		res, err = runTraced(w, seed, seconds, inj, "benchmark/out")
	} else {
		res, err = runEndToEnd(w, seed, seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	for _, d := range defs {
		fmt.Printf("%-14s %-30s %14.4f %s\n", w.name, d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runSuite runs every workload, each in a fresh child process of this
// binary so that no workload inherits another's heap, and returns the
// results by workload name.
func runSuite(seed int64, seconds, trace int, inject string, print bool) (map[string]result, bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil, false
	}
	results := make(map[string]result)
	ok := true
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if inject != "" {
			args = append(args, "-inject", inject)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if print {
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		}
		var res result
		if err == nil {
			err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
		}
		if err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", w.name, err)
			ok = false
			continue
		}
		results[w.name] = res
	}
	if print && ok {
		report, err := json.Marshal(results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return results, false
		}
		fmt.Println(string(report))
	}
	return results, ok
}
