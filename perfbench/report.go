package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric names one reported number and its unit.
type Metric struct {
	Name string
	Unit string
}

// EndToEnd lists the metrics every workload prints with --trace 0, in the
// order BENCHMARK.json declares them.
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"max_rss_mb", "MB"},
}

// PerLayer lists the metrics every workload prints with --trace 1, in the
// order BENCHMARK.json declares them. A layer a workload does not exercise
// reads 0.
var PerLayer = []Metric{
	// oltp_wire: wire, session, sql, exec, txn, wal, repl.
	{"server.self_us", "us"},
	{"server.bytes_per_stmt", "B"},
	{"server.rtt_p99_us", "us"},
	{"session.self_us", "us"},
	{"sql.parse_us", "us"},
	{"sql.plan_us", "us"},
	{"exec.self_us", "us"},
	{"exec.sim_us_per_stmt", "us"},
	{"txn.commit_us", "us"},
	{"wal.wait_us", "us"},
	{"wal.serialize_us", "us"},
	{"wal.flush_us", "us"},
	{"wal.bytes_per_commit", "B"},
	{"wal.flushes", "count"},
	{"session.drain_us", "us"},
	{"repl.sync_us", "us"},
	{"repl.shipped_bytes_per_stmt", "B"},
	{"repl.pending_commits_max", "count"},
	{"trace.sum_gap_pct", "%"},
	// selfdrive_tpcc: set-up layers, then the loop's own counters.
	{"workload.load_s", "s"},
	{"runner.sweep_s", "s"},
	{"runner.records", "count"},
	{"modeling.train_s", "s"},
	{"modeling.inference_us", "us"},
	{"modeling.cache_hit_rate", "ratio"},
	{"modeling.mape", "ratio"},
	{"exec.vec_batches", "count"},
	{"exec.fused_pipelines", "count"},
	{"selfdrive.sim_latency_us", "us"},
	{"planner.actions_mode_change", "count"},
	{"planner.actions_index_build", "count"},
	{"planner.actions_index_publish", "count"},
	{"planner.actions_repartition", "count"},
	{"planner.actions_set_dop", "count"},
	// forecast_100k.
	{"forecast.assign_us", "us"},
	{"forecast.append_us", "us"},
	{"forecast.forecast_us", "us"},
	{"forecast.fanout_us", "us"},
	{"forecast.clusters", "count"},
	{"forecast.volume_mape", "ratio"},
	{"planner.plan_us", "us"},
	// Every workload.
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// Outcome is what one workload run hands back to main: operation counts,
// the metric values of the requested mode, and the first failed
// correctness check (nil when every check passed).
type Outcome struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
	Check     error
	Spans     string   // file the traced run wrote its spans to
	Windows   []window // the timed phase's windows, on untraced runs
}

// resultLine is the benchmark's last stdout line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the result line for the given metric set. Every
// listed metric must be present and finite: a missing or non-finite value
// is a benchmark bug, reported as an error rather than printed.
func writeResult(w io.Writer, set []Metric, o Outcome) error {
	line := resultLine{
		Correct:   o.Check == nil,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	for _, m := range set {
		v, ok := o.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// Provenance stamps every output with what produced it, so a number taken
// on one host or build cannot pass as another's.
type Provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
}

// captureProvenance reads the host and build facts.
func captureProvenance(workload string, seed int64, seconds int, trace bool) Provenance {
	p := Provenance{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Revision: "unknown", Modified: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

// JSON renders the stamp on one line.
func (p Provenance) JSON() string {
	b, _ := json.Marshal(p) // a struct of strings and ints always marshals
	return string(b)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of vs,
// sorting vs in place; 0 for an empty slice.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(p*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	return vs[i]
}

// median returns the median of vs without reordering the caller's slice.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// window is one slice of a timed phase: operations completed, the wall
// time they took, and each one's latency in µs.
type window struct {
	ops  int64
	wall time.Duration
	lat  []float64
}

// describeWindows renders each window's throughput and latencies on one
// line, so the spread behind a median stays visible.
func describeWindows(ws []window) string {
	var b strings.Builder
	for i, w := range ws {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%.1f/s p50 %.1fus p90 %.1fus", float64(w.ops)/w.wall.Seconds(),
			percentile(w.lat, 0.50), percentile(w.lat, 0.90))
	}
	return b.String()
}

// windowMetrics reports throughput and latency percentiles as the median
// over windows of each window's figure, so a burst of outside noise moves
// one window, not the result.
func windowMetrics(ws []window) map[string]float64 {
	var ops, p50, p90 []float64
	for _, w := range ws {
		ops = append(ops, float64(w.ops)/w.wall.Seconds())
		p50 = append(p50, percentile(w.lat, 0.50))
		p90 = append(p90, percentile(w.lat, 0.90))
	}
	return map[string]float64{
		"ops_per_s":      median(ops),
		"latency_p50_us": median(p50),
		"latency_p90_us": median(p90),
	}
}

// memSnap is a runtime memory snapshot; deltas between two bracket a
// timed phase.
type memSnap struct {
	alloc   uint64
	gcs     uint32
	pauseNS uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// runtimeMetrics fills the runtime.* per-layer metrics from the snapshots
// taken around a timed phase of ops operations.
func runtimeMetrics(m map[string]float64, before, after memSnap, ops int64) {
	if ops < 1 {
		ops = 1
	}
	m["runtime.alloc_bytes_per_op"] = float64(after.alloc-before.alloc) / float64(ops)
	m["runtime.gc_cycles"] = float64(after.gcs - before.gcs)
	m["runtime.gc_pause_ms"] = float64(after.pauseNS-before.pauseNS) / 1e6
}

// settle collects the garbage earlier phases left, so that neither the
// next phase's timings nor the peak resident memory depend on when the
// collector last ran.
func settle() { runtime.GC() }

// maxRSSMB reads the process's peak resident set size from getrusage.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// fillZero sets every listed metric the workload did not measure to 0, so
// a layer a workload bypasses reads 0 rather than going missing.
func fillZero(m map[string]float64, set []Metric) {
	for _, x := range set {
		if _, ok := m[x.Name]; !ok {
			m[x.Name] = 0
		}
	}
}
