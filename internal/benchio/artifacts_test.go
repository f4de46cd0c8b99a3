package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// artifactSpec is what one committed BENCH_*.json must record, so an
// artifact cannot silently lose a mode, a field or a sweep point when it is
// regenerated.
type artifactSpec struct {
	file string
	// top are the top-level fields beyond gomaxprocs and num_cpu, which
	// every artifact records.
	top []string
	// list names the sweep's array of points; each point records fields.
	list   string
	fields []string
	// axes are the fields identifying a point; want lists every axes
	// tuple the sweep must cover, values joined by "/".
	axes []string
	want []string
	// modes, when set, are the keys every point's "variants" object holds.
	modes []string
}

var artifacts = []artifactSpec{
	{
		file:   "BENCH_exec.json",
		list:   "pipelines",
		fields: []string{"name", "variants"},
		modes:  []string{"interpreted", "compiled_unfused", "compiled_fused", "vectorized"},
	},
	{
		file:   "BENCH_server.json",
		list:   "points",
		fields: []string{"sessions", "peak_sessions", "throughput_stmt_per_sec", "p50_us", "p99_us", "digest"},
		axes:   []string{"sessions"},
		want:   []string{"100", "1000", "5000"},
	},
	{
		file: "BENCH_compress.json",
		top:  []string{"clusters", "speedup_max_n"},
		list: "points",
		fields: []string{"templates", "compressed", "clusters", "forecast_plan_us_per_interval",
			"ingest_us_per_interval", "volume_mape", "cache_evictions"},
		axes: []string{"templates", "compressed"},
		want: []string{
			"12/false", "12/true", "1000/false", "1000/true",
			"10000/false", "10000/true", "100000/false", "100000/true",
		},
	},
	{
		file:   "BENCH_repl.json",
		top:    []string{"predicted_beats_fixed", "predicted_promotions"},
		list:   "grid",
		fields: []string{"replicas", "apply_every", "mean_failover_us", "max_failover_us", "mean_pending_bytes"},
		axes:   []string{"replicas"},
		want:   []string{"1", "2", "3"},
	},
	{file: "BENCH_drive.json"},
	{file: "BENCH_partition.json"},
	{file: "BENCH_train_parallel.json"},
}

// TestBenchArtifacts decodes every committed BENCH_*.json at the
// repository root and checks it against its spec.
func TestBenchArtifacts(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) != len(artifacts) {
		t.Errorf("repository root holds %d BENCH_*.json artifacts, specs cover %d", len(committed), len(artifacts))
	}
	for _, spec := range artifacts {
		t.Run(spec.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", spec.file))
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("decoding: %v", err)
			}
			checkArtifact(t, spec, doc)
		})
	}
}

func checkArtifact(t *testing.T, spec artifactSpec, doc map[string]any) {
	for _, key := range []string{"gomaxprocs", "num_cpu"} {
		if n, ok := doc[key].(float64); !ok || n < 1 {
			t.Errorf("%s = %v, want a CPU count >= 1", key, doc[key])
		}
	}
	for _, key := range spec.top {
		if _, ok := doc[key]; !ok {
			t.Errorf("missing field %q", key)
		}
	}
	if spec.list == "" {
		return
	}
	points, ok := doc[spec.list].([]any)
	if !ok || len(points) == 0 {
		t.Fatalf("missing sweep %q", spec.list)
	}
	covered := make(map[string]bool)
	for i, p := range points {
		point, ok := p.(map[string]any)
		if !ok {
			t.Fatalf("%s[%d] is %T, want an object", spec.list, i, p)
		}
		for _, key := range spec.fields {
			if _, ok := point[key]; !ok {
				t.Errorf("%s[%d] missing field %q", spec.list, i, key)
			}
		}
		if spec.modes != nil {
			variants, _ := point["variants"].(map[string]any)
			for _, mode := range spec.modes {
				if _, ok := variants[mode]; !ok {
					t.Errorf("%s[%d] missing mode %q", spec.list, i, mode)
				}
			}
		}
		vals := make([]string, len(spec.axes))
		for a, axis := range spec.axes {
			vals[a] = scalar(point[axis])
		}
		covered[strings.Join(vals, "/")] = true
	}
	for _, w := range spec.want {
		if !covered[w] {
			t.Errorf("%s missing sweep point %s=%s", spec.list, strings.Join(spec.axes, "/"), w)
		}
	}
}

// scalar renders a decoded JSON scalar the way the specs spell it.
func scalar(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return fmt.Sprint(v)
}
