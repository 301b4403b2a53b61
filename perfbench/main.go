// Command perfbench is ACME's benchmark. It drives the public API
// (acme.NewSystem, System.Run) on one named workload and prints, as
// the last line of its standard output, one JSON object with the
// counts of attempted and failed runs and either the end-to-end
// metrics (-trace 0) or the per-layer metrics of a traced run
// (-trace 1). See README.md.
//
//	go run . -workload refine -seed 1 -seconds 30 -trace 0
//	go run . -workload refine -seed 1 -seconds 30 -runs 5   # steadiness
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: customize, refine or fleet")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measurement length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	runs := flag.Int("runs", 0, "steadiness mode: measure the workload this many times in one process")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload customize|refine|fleet -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(cores())

	var res result
	switch {
	case *runs > 0:
		res = steadiness(w, *seed, *seconds, *runs)
	case *trace == 1:
		res = traced(w, *seed, *seconds, fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", w.name, *seed))
	default:
		res = endToEnd(w, *seed, *seconds)
	}
	fmt.Fprintf(os.Stderr, "perfbench: calibration loop %.4f s\n", calibrate())
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
