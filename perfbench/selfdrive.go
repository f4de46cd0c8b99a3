package main

import (
	"fmt"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/metrics"
	"mb2/internal/modeling"
	"mb2/internal/runner"
	"mb2/internal/selfdrive"
	"mb2/internal/workload"
)

// selfdrive_tpcc: selfdrive.Run over TPC-C with mb2-drive's defaults (2
// sessions, 4 partitions, DOP 1), lengthened to sdIntervals intervals and
// repeated with the same seed until the time budget is spent. Every
// repetition must reproduce the first one's run digest, and each is one
// window of the timed phase. Latency is the wall time of a planning cycle:
// the loop plans at every second interval, so one interval's time is
// bimodal while a cycle of two is not.

// sdSetups is how many times a run sets up; setup_s is the median.
const sdSetups = 3

// sdIntervals is the length of one selfdrive.Run.
const sdIntervals = 150

// setupTimes are the layer times of one set-up.
type setupTimes struct {
	load, sweep, train float64 // seconds
	records            int
}

func (s setupTimes) total() float64 { return s.load + s.sweep + s.train }

// loadTPCC loads the TPC-C database the loop runs against (Run loads its
// own copy the same way; this one is timed as the workload layer).
func loadTPCC(seed int64, parts int) (*engine.DB, error) {
	knobs := catalog.DefaultKnobs()
	if parts > 1 {
		knobs.PartitionCount = parts
	}
	db := engine.Open(knobs)
	bench := workload.TPCC{CustomersPerDistrict: selfdrive.DefaultConfig().CustomersPerDistrict}
	if err := bench.Load(db, 1, seed); err != nil {
		return nil, fmt.Errorf("loading TPC-C: %w", err)
	}
	return db, nil
}

// trainModels runs the training sweep and trains the OU-model set the way
// mb2-drive does without -data.
func trainModels(seed int64, small bool, tr *Tracer, st *setupTimes) (*modeling.ModelSet, error) {
	cfg := runner.DefaultConfig()
	cfg.Seed = seed
	cfg.MaxRows = 1024
	cfg.Repetitions = 2
	cfg.Warmups = 1
	if small {
		cfg.MaxRows = 256
		cfg.Repetitions = 1
	}
	repo := metrics.NewRepository()
	t0 := time.Now()
	s := tr.Begin("runner.sweep", -1, 0)
	rep := runner.RunAll(repo, cfg)
	tr.End(s)
	st.sweep = time.Since(t0).Seconds()
	st.records = rep.Records

	opts := modeling.DefaultTrainOptions()
	opts.Seed = seed
	opts.Candidates = []string{"huber", "gbm"}
	t0 = time.Now()
	s = tr.Begin("modeling.train", -1, 0)
	ms, err := modeling.TrainModelSet(repo, opts)
	tr.End(s)
	st.train = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return ms, nil
}

// setupSelfdrive loads TPC-C and trains the model set.
func setupSelfdrive(o runOpts, cfg selfdrive.Config, tr *Tracer) (*modeling.ModelSet, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	s := tr.Begin("workload.load", -1, 0)
	_, err := loadTPCC(o.Seed, cfg.Partitions)
	tr.End(s)
	st.load = time.Since(t0).Seconds()
	if err != nil {
		return nil, st, err
	}
	ms, err := trainModels(o.Seed, o.Small, tr, &st)
	return ms, st, err
}

func selfdriveConfig(o runOpts) selfdrive.Config {
	cfg := selfdrive.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Intervals = sdIntervals
	cfg.Sessions = 2
	cfg.Partitions = 4
	cfg.DOP = 1
	cfg.PlanEvery = 2
	if o.Small {
		cfg.Intervals = 12
	}
	return cfg
}

// sdPass is the outcome of repeating Run until a deadline.
type sdPass struct {
	runs     []*selfdrive.Result
	wins     []window // one per run; latencies are planning-cycle wall times
	queries  int64
	wallUS   float64 // summed interval wall time
	mem      [2]memSnap
	check    error
	inferUS  []float64
	simSumUS float64
}

// runSelfdrivePass repeats selfdrive.Run with one seed until budget has
// elapsed (at least twice, so the digest check always has a replay).
func runSelfdrivePass(cfg selfdrive.Config, ms *modeling.ModelSet, budget time.Duration, tr *Tracer) (sdPass, error) {
	var p sdPass
	p.mem[0] = readMem()
	t0 := time.Now()
	for len(p.runs) < 2 || time.Since(t0) < budget {
		settle()
		s := tr.Begin("selfdrive.run", -1, int64(len(p.runs)))
		res, err := selfdrive.Run(cfg, ms)
		tr.End(s)
		if err != nil {
			return p, fmt.Errorf("selfdrive.Run: %w", err)
		}
		if first := p.runs; len(first) > 0 && res.Digest != first[0].Digest && p.check == nil {
			p.check = fmt.Errorf("run %d digest %#x differs from run 0 digest %#x under seed %d",
				len(p.runs), res.Digest, first[0].Digest, cfg.Seed)
		}
		p.runs = append(p.runs, res)
		var w window
		cycleUS := 0.0
		for i, iv := range res.Intervals {
			cycleUS += iv.WallUS
			if (i+1)%cfg.PlanEvery == 0 {
				w.lat = append(w.lat, cycleUS)
				cycleUS = 0
			}
			w.ops += int64(iv.Queries)
			w.wall += time.Duration(iv.WallUS * 1e3)
			p.simSumUS += iv.ObservedAvgLatencyUS * float64(iv.Queries)
		}
		p.wins = append(p.wins, w)
		p.queries += w.ops
		p.wallUS += float64(w.wall.Microseconds())
		p.inferUS = append(p.inferUS, res.InferenceUS...)
	}
	p.mem[1] = readMem()
	return p, nil
}

// runSelfdrive is the selfdrive_tpcc workload.
func runSelfdrive(o runOpts) (Outcome, error) {
	cfg := selfdriveConfig(o)
	budget := time.Duration(o.Seconds) * time.Second
	if o.Trace {
		return traceSelfdrive(o, cfg, budget)
	}
	var ms *modeling.ModelSet
	var setups []float64
	for i := 0; i < sdSetups; i++ {
		var st setupTimes
		var err error
		settle()
		if ms, st, err = setupSelfdrive(o, cfg, nil); err != nil {
			return Outcome{}, err
		}
		setups = append(setups, st.total())
	}
	p, err := runSelfdrivePass(cfg, ms, budget, nil)
	if err != nil {
		return Outcome{}, err
	}
	m := windowMetrics(p.wins)
	m["setup_s"] = median(setups)
	return Outcome{Attempted: p.queries, Check: p.check, Metrics: m, Windows: p.wins}, nil
}

// traceSelfdrive records the set-up layers as spans, runs the loop
// untraced and then traced for half the budget each, and reports the
// counters Result exposes.
func traceSelfdrive(o runOpts, cfg selfdrive.Config, budget time.Duration) (Outcome, error) {
	origin := time.Now()
	setupTr := NewTracer(origin)
	ms, st, err := setupSelfdrive(o, cfg, setupTr)
	if err != nil {
		return Outcome{}, err
	}
	plain, err := runSelfdrivePass(cfg, ms, budget/2, nil)
	if err != nil {
		return Outcome{}, err
	}
	runTr := NewTracer(origin)
	traced, err := runSelfdrivePass(cfg, ms, budget/2, runTr)
	if err != nil {
		return Outcome{}, err
	}
	path, err := WriteTraces(o.TraceDir, fmt.Sprintf("selfdrive_tpcc-seed%d", o.Seed), o.Prov, setupTr, runTr)
	if err != nil {
		return Outcome{}, err
	}

	res := traced.runs[0]
	m := map[string]float64{
		"workload.load_s":               st.load,
		"runner.sweep_s":                st.sweep,
		"runner.records":                float64(st.records),
		"modeling.train_s":              st.train,
		"modeling.inference_us":         mean(traced.inferUS),
		"modeling.cache_hit_rate":       res.CacheHitRate,
		"modeling.mape":                 res.MAPE,
		"forecast.volume_mape":          res.VolumeMAPE,
		"exec.vec_batches":              float64(res.VecBatches),
		"exec.fused_pipelines":          float64(res.FusedPipelines),
		"selfdrive.sim_latency_us":      traced.simSumUS / float64(traced.queries),
		"planner.actions_mode_change":   float64(res.ModeChanges()),
		"planner.actions_index_build":   float64(res.IndexBuilds()),
		"planner.actions_index_publish": float64(res.IndexPublishes()),
		"planner.actions_repartition":   float64(res.Repartitions()),
		"planner.actions_set_dop":       float64(res.DOPChanges()),
	}
	runtimeMetrics(m, plain.mem[0], plain.mem[1], plain.queries)
	opsPlain := float64(plain.queries) / (plain.wallUS / 1e6)
	opsTraced := float64(traced.queries) / (traced.wallUS / 1e6)
	m["trace.overhead_pct"] = 100 * (opsPlain - opsTraced) / opsPlain
	check := plain.check
	if check == nil {
		check = traced.check
	}
	if check == nil && traced.runs[0].Digest != plain.runs[0].Digest {
		check = fmt.Errorf("traced run digest %#x differs from untraced %#x", traced.runs[0].Digest, plain.runs[0].Digest)
	}
	return Outcome{Attempted: traced.queries, Metrics: m, Check: check, Spans: path}, nil
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}
