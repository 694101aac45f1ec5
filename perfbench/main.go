// Command perfbench runs one repetition of a TimeUnion end-to-end workload:
// it starts the full server in-process (core.DB behind the remote data API
// and the operational handler on a loopback listener), drives a fixed
// amount of work over HTTP with one closed-loop client per role, checks
// every answer against the generator, and prints the repetition's metrics
// as the last line of standard output, one JSON object.
//
// perfbench/run.py builds this command, repeats it for the measured
// duration and reports medians; see BENCHMARK.json for the metric
// definitions. Usage:
//
//	perfbench -workload ingest|query|churn -seed N -dir WORKDIR [-trace]
//
// With -trace the run also records spans at the layers' public boundaries
// (client request, HTTP handler, core calls, store operations, the final
// drain), writes them once to WORKDIR/spans.jsonl and reports the
// per-layer ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// result is one repetition's outcome. Metrics holds the end-to-end
// metrics, Layers the per-layer ledger (traced runs only) and Info the
// provenance: sizes and what the run reached.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Info      map[string]float64 `json:"info"`
	Problems  []string           `json:"problems,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: ingest, query or churn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same requests")
	traced := flag.Bool("trace", false, "record spans and report the per-layer ledger")
	dir := flag.String("dir", "", "working directory for the WAL and the span file (required)")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -dir is required")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, 1, *traced, *dir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
