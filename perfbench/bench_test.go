package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mb2/internal/server"
)

// runSmall runs one workload at smoke-test size and returns its exit code
// and parsed result line.
func runSmall(t *testing.T, workload string, trace int) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--small", "--trace-dir", t.TempDir()}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line %q is not a result: %v (stderr %s)", workload, trace, lines[len(lines)-1], err, stderr.String())
	}
	return code, res, stdout.String()
}

// TestSmokeEveryWorkload runs every workload, untraced and traced, at a
// tiny size: each must pass its checks and print every metric of its mode
// with the declared unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []int{0, 1} {
			code, res, out := runSmall(t, w, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: exit %d, result %+v", w, trace, code, res)
			}
			if !strings.Contains(out, `"gomaxprocs":`) || !strings.Contains(out, `"vcs_revision":`) {
				t.Errorf("%s trace=%d: output lacks the provenance stamp:\n%s", w, trace, out)
			}
			set := EndToEnd
			if trace == 1 {
				set = PerLayer
			}
			if len(res.Metrics) != len(set) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(set))
			}
			for _, m := range set {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, m.Name, v, m.Unit)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, v.Value)
				}
			}
		}
	}
}

// TestTracedOLTPAddsUp checks the oltp_wire layer attribution: the layer
// self times sum to the measured operation latency within the stated
// tolerance (the traced run itself fails otherwise).
func TestTracedOLTPAddsUp(t *testing.T) {
	code, res, _ := runSmall(t, "oltp_wire", 1)
	if code != 0 {
		t.Fatalf("traced oltp_wire exited %d", code)
	}
	if g := res.Metrics["trace.sum_gap_pct"].Value; g > gapTolerancePct || g < -gapTolerancePct {
		t.Fatalf("trace.sum_gap_pct = %v, tolerance %d", g, gapTolerancePct)
	}
	for _, name := range []string{"server.self_us", "sql.parse_us", "sql.plan_us", "exec.self_us", "txn.commit_us", "wal.flush_us", "repl.sync_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// smallKV loads a small primary and runs a short wire pass on it.
func smallKV(t *testing.T) (*kvEnv, passResult) {
	t.Helper()
	cfg := oltpConfig{Rows: 500, Clients: 2, FlushEvery: 16, Seed: 3}
	env, err := setupKV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wirePass(env, passLimit{count: []int{200, 200}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.clients {
		if c.check != nil {
			t.Fatal(c.check)
		}
	}
	return env, p
}

// TestDurabilityCheckCatchesTruncatedImage: recovery from the full durable
// image matches the primary; from a truncated one it must not.
func TestDurabilityCheckCatchesTruncatedImage(t *testing.T) {
	env, _ := smallKV(t)
	defer env.close()
	if err := env.flush.group(nil, -1, 0); err != nil {
		t.Fatal(err)
	}
	ckpt, log := env.db.CheckpointImage(), env.db.WAL.Durable()
	if err := checkRecovery(env.db, ckpt, log); err != nil {
		t.Fatalf("intact image: %v", err)
	}
	if err := checkRecovery(env.db, ckpt, log[:len(log)-1]); err == nil {
		t.Fatal("recovery from a truncated durable image passed the durability check")
	}
}

// TestOracleCatchesWrongRowCount: a statement's real result passes the
// oracle, and the same result against a wrong expected row count fails.
func TestOracleCatchesWrongRowCount(t *testing.T) {
	env, p := smallKV(t)
	defer env.close()
	cl, err := server.Dial(env.tr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var st kvStmt
	for st = p.stripes[0].next(); st.kind != kindSelect; st = p.stripes[0].next() {
		res, err := cl.Query(st.sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkStmt(st, res.Count, res.Digest); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Query(st.sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStmt(st, res.Count, res.Digest); err != nil {
		t.Fatalf("true result failed the oracle: %v", err)
	}
	st.wantRows++
	if err := checkStmt(st, res.Count, res.Digest); err == nil {
		t.Fatal("a wrong expected row count passed the oracle")
	}
}

// TestForecastCheckCatchesUnassignedTemplate: the clustering check fails
// when a generated template was never assigned.
func TestForecastCheckCatchesUnassignedTemplate(t *testing.T) {
	s, err := setupForecast(runOpts{Seed: 5, Small: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkForecast(s); err != nil {
		t.Fatal(err)
	}
	s.advance() // generates fresh templates without assigning them
	if err := checkForecast(s); err == nil {
		t.Fatal("unassigned templates passed the clustering check")
	}
}

// TestAggregateSelfTime pins self time as duration minus child time.
func TestAggregateSelfTime(t *testing.T) {
	tr := NewTracer(time.Now())
	tr.Spans = []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 60, Parent: 0},
	}
	l := Aggregate(tr)
	if l["op"].TotalNS != 100 || l["op"].SelfNS != 60 || l["a"].SelfNS != 30 {
		t.Fatalf("aggregate = %+v", l)
	}
	var nilTracer *Tracer
	if id := nilTracer.Begin("x", -1, 0); id != -1 {
		t.Fatalf("nil tracer Begin = %d", id)
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram: BENCHMARK.json declares exactly the
// workloads and metrics this program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: unknown, or why missing or too long", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if len(bj.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bj.EndToEnd), len(EndToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != EndToEnd[i].Name || m.Unit != EndToEnd[i].Unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program declares %+v", i, m, EndToEnd[i])
		}
	}
	if len(bj.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bj.PerLayer), len(PerLayer))
	}
	owned := map[string]bool{}
	for _, w := range workloads {
		for _, l := range w.layers {
			owned[l] = true
		}
	}
	for i, m := range bj.PerLayer {
		if m.Name != PerLayer[i].Name || m.Unit != PerLayer[i].Unit {
			t.Errorf("per_layer[%d] = %+v, program declares %+v", i, m, PerLayer[i])
		}
		if !owned[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
}
