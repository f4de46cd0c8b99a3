package selfdrive

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/hw"
	"mb2/internal/modeling"
	"mb2/internal/par"
	"mb2/internal/session"
	"mb2/internal/workload"
)

// Config drives one closed-loop run.
type Config struct {
	Seed int64
	// Sessions is the number of concurrent workload sessions (worker
	// threads); QueriesPerSession is each session's per-interval volume.
	Sessions          int
	QueriesPerSession int
	Intervals         int
	// PlanEvery runs a planning step at every Nth interval boundary.
	PlanEvery int
	// HistoryWindow bounds the windowed forecast store (and the trend fit).
	HistoryWindow int
	IntervalUS    float64
	// ThreadCandidates are the index-build parallelism degrees the planner
	// weighs; MaxImpactRatio is its during-build impact budget (0 =
	// unbounded); MinImprovement is the predicted relative latency
	// reduction an action must promise to be applied.
	ThreadCandidates []int
	MaxImpactRatio   float64
	MinImprovement   float64
	// Jobs bounds the session worker pool (<= 0 selects GOMAXPROCS, 1 is
	// serial); results are bit-for-bit identical at every setting.
	Jobs int
	// CrashEvery runs a crash-recovery drill after every Nth interval (0
	// disables). Each drill verifies torn-tail recovery on a sandboxed
	// engine without touching the live one; drill outcomes fold into the
	// run digest only when enabled, so CrashEvery=0 runs keep their digest.
	CrashEvery int
	// FailoverEvery runs a log-shipping failover drill after every Nth
	// interval (0 disables). Each drill ships a sandboxed primary's WAL to
	// replicas, kills the primary at strided offsets, promotes by
	// model-predicted recovery time, and verifies the promoted state
	// against the commit oracle. Like CrashEvery, outcomes fold into the
	// run digest only when enabled.
	FailoverEvery int

	// Partitions and DOP seed the engine's partitioning knobs at open
	// (<= 1 keeps the serial defaults, preserving historical digests).
	// PartitionCandidates and DOPCandidates are the repartition / set-dop
	// action spaces the planner weighs (nil selects the planner defaults).
	Partitions          int
	DOP                 int
	PartitionCandidates []int
	DOPCandidates       []int

	// Workload shape: TPC-C customers per district, and the
	// customer-lookup share ramp (base + perInterval*i, capped at max) that
	// makes the workload drift.
	CustomersPerDistrict     int
	CustomerBaseShare        float64
	CustomerSharePerInterval float64
	CustomerMaxShare         float64

	// Templates > 0 explodes the four base templates into that many
	// synthetic variants (the high-cardinality scenario); 0 keeps the
	// historical four-template drive bit-for-bit.
	Templates int
	// Clusters > 0 enables workload compression: templates are clustered
	// into at most this many representatives, forecasting runs per cluster,
	// and planning sees one forecast entry per cluster. 0 keeps the
	// per-template path (and its digests) untouched.
	Clusters int
	// ClusterTolerance is the feature-distance threshold for joining an
	// existing cluster (0 = forecast.DefaultClusterTolerance).
	ClusterTolerance float64
	// LoadCurve shapes per-interval volume: "" or "flat" (historical),
	// "diurnal" (sinusoid over LoadPeriod intervals), "flash" (3x spike
	// for two mid-run intervals).
	LoadCurve  string
	LoadPeriod int
	// SkewShiftAt, when > 0, rotates the exploded population's hot
	// variants at that interval — the mid-run skew shift.
	SkewShiftAt int
	// CacheEntries bounds the prediction cache (0 =
	// modeling.DefaultCacheEntries). Eviction only forgets memoized work,
	// so the bound never affects digests.
	CacheEntries int
}

// DefaultConfig returns a configuration sized for tests and quick CLI runs.
func DefaultConfig() Config {
	return Config{
		Seed:                     1,
		Sessions:                 2,
		QueriesPerSession:        6,
		Intervals:                12,
		PlanEvery:                2,
		HistoryWindow:            6,
		IntervalUS:               100_000,
		ThreadCandidates:         []int{1, 2, 4},
		MaxImpactRatio:           2.0,
		MinImprovement:           0.02,
		CustomersPerDistrict:     300,
		CustomerBaseShare:        0.15,
		CustomerSharePerInterval: 0.05,
		CustomerMaxShare:         0.7,
	}
}

func (cfg Config) withDefaults() Config {
	d := DefaultConfig()
	if cfg.Sessions < 1 {
		cfg.Sessions = d.Sessions
	}
	if cfg.QueriesPerSession < 1 {
		cfg.QueriesPerSession = d.QueriesPerSession
	}
	if cfg.Intervals < 1 {
		cfg.Intervals = d.Intervals
	}
	if cfg.PlanEvery < 1 {
		cfg.PlanEvery = d.PlanEvery
	}
	if cfg.HistoryWindow < 2 {
		cfg.HistoryWindow = d.HistoryWindow
	}
	if cfg.IntervalUS <= 0 {
		cfg.IntervalUS = d.IntervalUS
	}
	if len(cfg.ThreadCandidates) == 0 {
		cfg.ThreadCandidates = d.ThreadCandidates
	}
	if cfg.MaxImpactRatio <= 0 {
		cfg.MaxImpactRatio = d.MaxImpactRatio
	}
	if cfg.MinImprovement <= 0 {
		cfg.MinImprovement = d.MinImprovement
	}
	if cfg.CustomersPerDistrict < tpccLastNames {
		cfg.CustomersPerDistrict = d.CustomersPerDistrict
	}
	if cfg.CustomerBaseShare <= 0 {
		cfg.CustomerBaseShare = d.CustomerBaseShare
	}
	if cfg.CustomerSharePerInterval <= 0 {
		cfg.CustomerSharePerInterval = d.CustomerSharePerInterval
	}
	if cfg.CustomerMaxShare <= 0 {
		cfg.CustomerMaxShare = d.CustomerMaxShare
	}
	return cfg
}

// customerCount returns how many of a session's queries are customer
// lookups at interval i (the drifting share, rounded).
func (cfg Config) customerCount(i int) int {
	share := cfg.CustomerBaseShare + cfg.CustomerSharePerInterval*float64(i)
	if share > cfg.CustomerMaxShare {
		share = cfg.CustomerMaxShare
	}
	n := int(math.Round(share * float64(cfg.QueriesPerSession)))
	if n > cfg.QueriesPerSession {
		n = cfg.QueriesPerSession
	}
	return n
}

// AppliedAction records one action the loop applied.
type AppliedAction struct {
	Interval             int     `json:"interval"`
	Kind                 string  `json:"kind"` // mode-change | index-build-start | index-publish | repartition | set-dop
	Detail               string  `json:"detail"`
	PredictedImprovement float64 `json:"predicted_improvement"`
}

// IntervalReport is the loop's record of one executed interval.
type IntervalReport struct {
	Interval             int     `json:"interval"`
	Queries              int     `json:"queries"`
	ObservedAvgLatencyUS float64 `json:"observed_avg_latency_us"`
	// PredictedAvgLatencyUS is the prediction made for this interval at the
	// end of the previous one (0 when none was made yet).
	PredictedAvgLatencyUS float64               `json:"predicted_avg_latency_us"`
	Mode                  catalog.ExecutionMode `json:"mode"`
	Building              bool                  `json:"building"`
	IndexLive             bool                  `json:"index_live"`
	// DOP and Partitions are the live knob values the interval ran with.
	DOP        int     `json:"dop"`
	Partitions int     `json:"partitions"`
	WallUS     float64 `json:"wall_us"`
}

// Result is the full run outcome.
type Result struct {
	Intervals []IntervalReport `json:"intervals"`
	Actions   []AppliedAction  `json:"actions"`
	// MAPE is the predicted-vs-observed interval-latency error over every
	// interval that had a prediction.
	MAPE float64 `json:"mape"`
	// Cache accounting across all loop inference.
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Digest fingerprints the run's observable behavior (per-interval
	// counts, latencies, modes, actions): two same-seed runs must match
	// bit for bit.
	Digest uint64 `json:"digest"`
	// HistoryEvicted counts intervals the windowed forecast store dropped.
	HistoryEvicted int `json:"history_evicted"`
	// InferenceUS are the wall-clock durations of the loop's direct
	// next-interval predictions (for p50/p99 reporting).
	InferenceUS []float64 `json:"inference_us"`
	// FusedPipelines counts pipelines the sessions executed on the fused
	// compiled path across the whole run — observability only, NOT part of
	// the digest (the digest fingerprints behavior, not implementation).
	FusedPipelines int `json:"fused_pipelines"`
	// VecBatches counts column batches the sessions processed on the
	// vectorized path — the vec-mode analogue of FusedPipelines, likewise
	// kept out of the digest.
	VecBatches int `json:"vec_batches"`
	// CrashDrills are the recovery drills the loop ran (empty unless
	// Config.CrashEvery is set).
	CrashDrills []CrashDrill `json:"crash_drills,omitempty"`
	// FailoverDrills are the log-shipping failover drills the loop ran
	// (empty unless Config.FailoverEvery is set).
	FailoverDrills []FailoverDrill `json:"failover_drills,omitempty"`
	// CacheEvictions counts entries the bounded prediction cache's LRU
	// dropped (0 unless the run's template population outgrew the bound).
	CacheEvictions uint64 `json:"cache_evictions"`
	// TemplatesSeen is how many distinct templates the run observed;
	// Clusters is how many clusters they compressed into (0 = compression
	// off). Observability only — neither folds into the digest.
	TemplatesSeen int `json:"templates_seen"`
	Clusters      int `json:"clusters"`
	// VolumeMAPE is the per-template volume-forecast error: predictions
	// (fanned back out from clusters proportionally when compression is
	// on) against the next interval's observed per-template counts.
	VolumeMAPE float64 `json:"volume_mape"`
}

// ModeChanges counts applied mode changes; IndexBuilds counts started
// builds.
func (r *Result) ModeChanges() int { return r.countKind("mode-change") }

// IndexBuilds counts index builds the loop started.
func (r *Result) IndexBuilds() int { return r.countKind("index-build-start") }

// IndexPublishes counts builds that completed and went live.
func (r *Result) IndexPublishes() int { return r.countKind("index-publish") }

// Repartitions counts applied repartition actions.
func (r *Result) Repartitions() int { return r.countKind("repartition") }

// DOPChanges counts applied set-dop actions.
func (r *Result) DOPChanges() int { return r.countKind("set-dop") }

func (r *Result) countKind(kind string) int {
	n := 0
	for _, a := range r.Actions {
		if a.Kind == kind {
			n++
		}
	}
	return n
}

// Run executes the closed loop against a fresh TPC-C database using the
// trained models: it is the seeded workload driver of a Controller. See the
// package comment for the loop's phases and determinism scheme.
func Run(cfg Config, ms *modeling.ModelSet) (*Result, error) {
	cfg = cfg.withDefaults()
	knobs := catalog.DefaultKnobs()
	if cfg.Partitions > 1 {
		knobs.PartitionCount = cfg.Partitions
	}
	if cfg.DOP > 1 {
		knobs.ScanDOP = cfg.DOP
	}
	db := engine.Open(knobs)
	bench := workload.TPCC{CustomersPerDistrict: cfg.CustomersPerDistrict}
	if err := bench.Load(db, 1, cfg.Seed); err != nil {
		return nil, fmt.Errorf("selfdrive: loading workload: %w", err)
	}

	sc := newScenario(cfg)
	ctrl := NewController(db, ms, cfg, sc.canonical)
	machine := db.Machine
	// The run's process list: every interval's workers are real sessions
	// admitted here, and the loop drains its observations from it — the
	// same path a live server's traffic takes.
	reg := session.NewRegistry(db, 0)

	res := &Result{}
	digest := fnv.New64a()

	for i := 0; i < cfg.Intervals; i++ {
		ivStart := time.Now()
		liveKnobs := db.Knobs()
		mode := liveKnobs.ExecutionMode
		dop := liveKnobs.ScanDOP
		if dop < 1 {
			dop = 1
		}

		// Phase 1: concurrent seeded execution with live observation.
		// Each worker is a real session admitted through the process list:
		// Open samples the live knobs (the mode/dop read above) and wires
		// the session's private observation buffer, and serial admission
		// gives ascending IDs — the deterministic merge order.
		sessions := make([][]liveQuery, cfg.Sessions)
		nCustomer := cfg.customerCount(i)
		for s := range sessions {
			rng := rand.New(rand.NewSource(unitSeed(cfg.Seed,
				fmt.Sprintf("drive/interval-%d/session-%d", i, s))))
			switch {
			case sc.exploded():
				sessions[s] = sc.sessionQueriesExploded(rng, i, ctrl.published)
			case cfg.LoadCurve != "" && cfg.LoadCurve != LoadFlat:
				// Curve-modulated volume on the plain four-template mix.
				curved := cfg
				curved.QueriesPerSession = cfg.intervalQueries(i)
				sessions[s] = sessionQueries(rng, curved,
					customerCountOf(curved, i, curved.QueriesPerSession), ctrl.published)
			default:
				sessions[s] = sessionQueries(rng, cfg, nCustomer, ctrl.published)
			}
		}
		workers := make([]*session.Session, cfg.Sessions)
		for s := range workers {
			w, err := reg.Open(session.Options{Contenders: float64(cfg.Sessions)})
			if err != nil {
				return nil, fmt.Errorf("selfdrive: admitting session %d: %w", s, err)
			}
			workers[s] = w
		}
		totals := make([]hw.Metrics, cfg.Sessions)
		queryIso := make([][]hw.Metrics, cfg.Sessions)
		fusedCounts := make([]int, cfg.Sessions)
		vecCounts := make([]int, cfg.Sessions)
		errs := make([]error, cfg.Sessions)
		par.Do(cfg.Jobs, cfg.Sessions, func(s int) {
			w := workers[s]
			for _, q := range sessions[s] {
				_, iso, err := w.ExecPlan(q.name, q.fp, q.node)
				if err != nil {
					errs[s] = fmt.Errorf("selfdrive: session %d executing %s: %w", s, q.name, err)
					return
				}
				totals[s].Add(iso)
				queryIso[s] = append(queryIso[s], iso)
			}
			fusedCounts[s] = w.ExecCtx().FusedPipelines
			vecCounts[s] = w.ExecCtx().VecBatches
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for s := range fusedCounts {
			res.FusedPipelines += fusedCounts[s]
			res.VecBatches += vecCounts[s]
		}

		// Phase 2: whole-machine contention, including active build threads.
		buildWork := ctrl.BuildWork()
		perThread := append(append([]hw.Metrics(nil), totals...), buildWork...)
		ratios := machine.ContentionRatios(perThread, cfg.IntervalUS)
		var latSum float64
		nq := 0
		for s := 0; s < cfg.Sessions; s++ {
			for _, iso := range queryIso[s] {
				latSum += iso.ScaleVec(ratios[s]).ElapsedUS
				nq++
			}
		}
		observed := 0.0
		if nq > 0 {
			observed = latSum / float64(nq)
		}

		// Phase 3: drain the process list's observations (ascending
		// session-ID merge — the serial-order reduction) into the
		// controller, then retire the interval's sessions.
		merged := reg.DrainObservations()
		ctrl.Ingest(merged.Counts)
		for _, w := range workers {
			w.Close()
		}

		// Phase 4: advance the in-progress build at the speed contention
		// left its threads, and publish it when done.
		slowdown := make([]float64, len(buildWork))
		for e := range buildWork {
			slowdown[e] = ratios[cfg.Sessions+e][hw.LabelElapsedUS]
		}
		building, err := ctrl.Advance(i, slowdown)
		if err != nil {
			return nil, err
		}

		rep := IntervalReport{
			Interval: i, Queries: nq,
			ObservedAvgLatencyUS:  observed,
			PredictedAvgLatencyUS: ctrl.Observe(observed),
			Mode:                  mode,
			Building:              building,
			IndexLive:             len(ctrl.published) > 0,
			DOP:                   dop,
			Partitions:            normalizedParts(liveKnobs.PartitionCount),
		}

		hashInterval(digest, i, merged.Counts, observed, mode, ctrl.actions)

		// Phase 4b: rehearse crash recovery on a sandboxed engine.
		if cfg.CrashEvery > 0 && (i+1)%cfg.CrashEvery == 0 {
			drill, err := runCrashDrill(cfg, i, len(res.CrashDrills))
			if err != nil {
				return nil, fmt.Errorf("selfdrive: crash drill at interval %d: %w", i, err)
			}
			res.CrashDrills = append(res.CrashDrills, drill)
			hashDrill(digest, drill)
		}

		// Phase 4c: rehearse log-shipping failover on a sandboxed group.
		if cfg.FailoverEvery > 0 && (i+1)%cfg.FailoverEvery == 0 {
			drill, err := runFailoverDrill(cfg, ms, i, len(res.FailoverDrills))
			if err != nil {
				return nil, fmt.Errorf("selfdrive: failover drill at interval %d: %w", i, err)
			}
			res.FailoverDrills = append(res.FailoverDrills, drill)
			hashFailover(digest, drill)
		}

		// Phase 5: forecast, plan, act, and predict the next interval.
		if i < cfg.Intervals-1 {
			if err := ctrl.Step(i, cfg.Sessions, (i+1)%cfg.PlanEvery == 0); err != nil {
				return nil, err
			}
		}

		rep.WallUS = float64(time.Since(ivStart).Microseconds())
		res.Intervals = append(res.Intervals, rep)
	}

	ctrl.report(res)
	res.Digest = digest.Sum64()
	return res, nil
}

// normalizedParts floors a partition-count knob at 1 for reporting.
func normalizedParts(p int) int {
	if p < 1 {
		return 1
	}
	return p
}

// hashInterval folds one interval's observable outcome into the run
// digest: the per-template counts (sorted), the observed latency, the
// execution mode, and the cumulative action log length.
func hashInterval(h interface{ Write([]byte) (int, error) }, interval int, counts map[string]float64, observed float64, mode catalog.ExecutionMode, actions []AppliedAction) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(interval))
	for _, name := range sortedTemplates(counts) {
		h.Write([]byte(name))
		put(math.Float64bits(counts[name]))
	}
	put(math.Float64bits(observed))
	put(uint64(mode))
	put(uint64(len(actions)))
	for _, a := range actions {
		h.Write([]byte(a.Kind))
		h.Write([]byte(a.Detail))
	}
}

// hashDrill folds one crash drill's outcome into the run digest. Only
// called when drills are enabled, so disabled runs keep their digest.
func hashDrill(h interface{ Write([]byte) (int, error) }, d CrashDrill) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(d.Interval))
	h.Write([]byte(d.Workload))
	put(d.Commits)
	put(uint64(d.Offsets))
	put(uint64(d.TornOffsets))
	put(d.StateDigest)
}

// hashFailover folds one failover drill's outcome into the run digest. Only
// runs that enable FailoverEvery are affected.
func hashFailover(h interface{ Write([]byte) (int, error) }, d FailoverDrill) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(d.Interval))
	h.Write([]byte(d.Workload))
	h.Write([]byte(d.Policy))
	put(d.Commits)
	put(uint64(d.Offsets))
	put(uint64(d.Crashes))
	for _, p := range d.Promotions {
		put(uint64(p))
	}
	put(math.Float64bits(d.MeanFailoverUS))
	put(d.Digest)
}
