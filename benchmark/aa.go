package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64 // end-to-end metrics only
}

// aaRunsPerSet is how many suite runs each of the two sets has.
const aaRunsPerSet = 3

// runAA is the benchmark checking itself: two sets of suite runs of this
// one binary, interleaved A B A B A B so that drift of the machine falls
// on both alike. For every workload and end-to-end metric it prints each
// set's median and quartiles and how much worse B's median is than A's,
// next to the bound; any difference over its bound is a failure, since
// nothing but noise separates the sets.
func runAA(seed int64, seconds int) int {
	data, err := os.ReadFile("BENCHMARK.json")
	var m manifest
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	for _, d := range m.EndToEnd {
		if err == nil && d.Bound == nil {
			err = fmt.Errorf("end_to_end metric %q has no bound", d.Name)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -aa reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}

	// values[set][workload][metric] → one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
	}
	for run := 0; run < 2*aaRunsPerSet; run++ {
		set := run % 2
		fmt.Fprintf(os.Stderr, "benchmark: A/A run %d of %d (set %c)\n", run+1, 2*aaRunsPerSet, 'A'+set)
		results, ok := runSuite(seed+int64(run), seconds, 0, "", false)
		if !ok {
			return 1
		}
		for w, res := range results {
			if values[set][w] == nil {
				values[set][w] = make(map[string][]float64)
			}
			for name, mv := range res.Metrics {
				values[set][w][name] = append(values[set][w][name], mv.Value)
			}
		}
	}

	fmt.Printf("%-13s %-16s %35s %35s %8s %6s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B worse", "bound")
	exit := 0
	for _, w := range workloads {
		for _, d := range m.EndToEnd {
			a, b := values[0][w.name][d.Name], values[1][w.name][d.Name]
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			worse := (bmed - amed) / amed
			if d.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > *d.Bound {
				flag = "  OVER"
				exit = 1
			}
			fmt.Printf("%-13s %-16s %11.4f [%9.4f, %9.4f] %11.4f [%9.4f, %9.4f] %+7.1f%% %5.1f%%%s\n",
				w.name, d.Name, amed, aq1, aq3, bmed, bq1, bq3, 100*worse, 100**d.Bound, flag)
		}
	}
	return exit
}
