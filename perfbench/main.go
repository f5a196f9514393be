// Command perfbench is surfknn's layer-ladder benchmark. It runs one
// workload in one process against in-process servers on 127.0.0.1
// listeners, checks every answer against the engine, and prints one JSON
// result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (latency, throughput,
// pages, set-up time, heap); with -trace 1 the run is repeated with one
// client and spans around every layer call, and the metrics are the
// per-layer ones derived from those spans and from exact-count passes.
// metrics.go lists every metric with its unit; manifest.json maps each
// per-layer metric to the end-to-end metric it should move.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package first:
//
//	bash perfbench/run.sh --workload knn-static --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its result
// line. It returns the process exit code: 0 on a correct run, 1 when an
// answer failed the oracle or the run could not complete, 2 on bad usage.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for object placement, query points and update/move mixes")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	fs.IntVar(&cfg.maxOps, "ops", 0, "cap on operations per pass (0: limited by -seconds only)")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop rate in ops/s (0: the workload's own; negative: closed loop, to find what a mix sustains)")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build/perfbench", "scratch directory for shard snapshots and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, workloadNames())
		return 2
	}
	cfg.duration = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traceFlag == 1
	cfg.log = stderr
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	res, err := wl(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, msg := range res.mismatches {
		fmt.Fprintf(stderr, "perfbench: oracle: %s\n", msg)
	}
	line, err := json.Marshal(res.line(cfg.trace))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct() {
		return 1
	}
	return 0
}
