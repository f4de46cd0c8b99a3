// Command perfbench is the repository benchmark: one command that runs a
// named, seeded workload against the engine's public functions, checks the
// workload's outputs, and prints its metrics as one JSON line.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR] [--small]
//
// Workloads: oltp_wire, selfdrive_tpcc, forecast_100k (see README.md). With
// --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run carries the per-layer metrics and writes its spans
// under --trace-dir. --small shrinks every workload to the size the tests
// run. A failed correctness check prints the result with "correct": false
// and exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runOpts are the knobs every workload receives.
type runOpts struct {
	Seed     int64
	Seconds  int
	Trace    bool
	TraceDir string
	Prov     Provenance
	// Small shrinks every workload to a smoke-test size.
	Small bool
}

// workloads maps a name to its runner and the per-layer metrics it
// measures; every other per-layer metric reads 0 on that workload.
var workloads = map[string]struct {
	run    func(runOpts) (Outcome, error)
	layers []string
}{
	"oltp_wire": {runOLTP, []string{
		"server.self_us", "server.bytes_per_stmt", "server.rtt_p99_us", "session.self_us",
		"sql.parse_us", "sql.plan_us", "exec.self_us", "exec.sim_us_per_stmt", "txn.commit_us",
		"wal.wait_us", "wal.serialize_us", "wal.flush_us", "wal.bytes_per_commit", "wal.flushes",
		"session.drain_us", "repl.sync_us", "repl.shipped_bytes_per_stmt", "repl.pending_commits_max", "trace.sum_gap_pct",
		"runtime.alloc_bytes_per_op", "runtime.gc_cycles", "runtime.gc_pause_ms", "trace.overhead_pct",
	}},
	"selfdrive_tpcc": {runSelfdrive, []string{
		"workload.load_s", "runner.sweep_s", "runner.records", "modeling.train_s",
		"modeling.inference_us", "modeling.cache_hit_rate", "modeling.mape", "forecast.volume_mape",
		"exec.vec_batches", "exec.fused_pipelines", "selfdrive.sim_latency_us",
		"planner.actions_mode_change", "planner.actions_index_build", "planner.actions_index_publish",
		"planner.actions_repartition", "planner.actions_set_dop",
		"runtime.alloc_bytes_per_op", "runtime.gc_cycles", "runtime.gc_pause_ms", "trace.overhead_pct",
	}},
	"forecast_100k": {runForecast, []string{
		"forecast.assign_us", "forecast.append_us", "forecast.forecast_us", "forecast.fanout_us",
		"planner.plan_us", "forecast.clusters", "forecast.volume_mape", "modeling.cache_hit_rate",
		"runtime.alloc_bytes_per_op", "runtime.gc_cycles", "runtime.gc_pause_ms", "trace.overhead_pct",
	}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	secs := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	small := fs.Bool("small", false, "shrink the workload to a smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in {%s}, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	opts := runOpts{Seed: *seed, Seconds: *secs, Trace: *trace == 1, TraceDir: *traceDir, Small: *small}
	opts.Prov = captureProvenance(*name, *seed, *secs, opts.Trace)
	fmt.Fprintf(stdout, "# provenance %s\n", opts.Prov.JSON())

	out, err := w.run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if len(out.Windows) > 0 {
		fmt.Fprintf(stdout, "# windows %s\n", describeWindows(out.Windows))
	}
	if out.Spans != "" {
		fmt.Fprintf(stdout, "# spans %s\n", out.Spans)
	}
	if out.Check != nil {
		fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %v\n", *name, out.Check)
	}
	set := EndToEnd
	if opts.Trace {
		set = PerLayer
		for _, l := range w.layers {
			if _, ok := out.Metrics[l]; !ok && out.Check == nil {
				fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *name, l)
				return 1
			}
		}
		// A run a check stopped early reports the layers it reached.
		fillZero(out.Metrics, PerLayer)
	} else {
		out.Metrics["max_rss_mb"] = maxRSSMB()
	}
	if err := writeResult(stdout, set, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if out.Check != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
