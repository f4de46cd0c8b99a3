package selfdrive

import (
	"fmt"
	"sort"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/forecast"
	"mb2/internal/hw"
	"mb2/internal/modeling"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/planner"
)

// Controller is the one implementation of MB2's control step (Sec 8.7). It
// owns the loop state — the forecast store (windowed, or clustered when
// Config.Clusters > 0), the forecaster, the what-if planner and its
// prediction cache, the in-flight index build, the published indexes, the
// action log, and the pending predictions with their error series — and a
// driver feeds it one interval at a time through its phases:
//
//   - Ingest folds the interval's per-template counts into the forecast
//     store and scores last interval's volume predictions against them.
//   - Advance credits the in-flight build with the interval's progress and
//     publishes it once every build thread is done.
//   - Observe scores last interval's latency prediction.
//   - Step forecasts the next interval, plans and applies the winning
//     action, and predicts the next interval's latency.
//
// Run, LiveDriver and RunCompressBench are its drivers.
type Controller struct {
	cfg       Config
	db        *engine.DB
	ms        *modeling.ModelSet
	p         *planner.Planner
	hist      *forecast.History
	clusterer *forecast.Clusterer // nil: the per-template windowed store
	fc        forecast.Forecaster
	// plans returns a template's representative plan before any index
	// rewrite (false for a template without one). The Controller rewrites
	// it through the published indexes at every forecast, so plans always
	// reflect the current physical design.
	plans func(name string) (plan.Node, bool)

	build     *planner.BuildHandle
	published []planner.IndexCandidate
	actions   []AppliedAction

	// Pending volume predictions for the coming interval: per template, or
	// per cluster and fanned out to templates when the actuals arrive.
	// volumeSample, when set, restricts scoring to those templates;
	// otherwise every observed template is scored.
	pendingCounts   map[string]float64
	pendingClusters []float64
	volumeSample    []string
	volPred, volObs []float64

	// nextLatencyUS is Step's average-query-latency prediction for the
	// coming interval (0 when none was made).
	nextLatencyUS         float64
	predSeries, obsSeries []float64
	inferenceUS           []float64
}

// NewController builds a controller over db with the trained models.
// plans is the representative-plan source for forecast entries and
// cluster features.
func NewController(db *engine.DB, ms *modeling.ModelSet, cfg Config, plans func(name string) (plan.Node, bool)) *Controller {
	cfg = cfg.withDefaults()
	p := planner.New(db, ms)
	if cfg.CacheEntries > 0 {
		p.Cache = modeling.NewBoundedPredictionCache(cfg.CacheEntries)
	} else {
		p.Cache = modeling.NewPredictionCache()
	}
	c := &Controller{
		cfg: cfg, db: db, ms: ms, p: p, plans: plans,
		fc: forecast.Forecaster{Window: cfg.HistoryWindow},
	}
	if cfg.Clusters > 0 {
		c.clusterer = forecast.NewClusterer(cfg.Clusters, cfg.ClusterTolerance)
		c.hist = forecast.NewClusteredHistory(cfg.IntervalUS, cfg.HistoryWindow, c.clusterer)
	} else {
		c.hist = forecast.NewWindowedHistory(cfg.IntervalUS, cfg.HistoryWindow)
	}
	return c
}

// Ingest folds one interval's per-template counts into the forecast store
// (assigning never-seen templates to clusters first when compression is
// on) and scores the volume predictions the last Step made against them.
func (c *Controller) Ingest(counts map[string]float64) {
	if c.clusterer != nil {
		c.register(counts)
	}
	c.hist.Append(counts)
	if c.pendingCounts == nil && c.pendingClusters == nil {
		return
	}
	names := c.volumeSample
	if names == nil {
		names = sortedTemplates(counts)
	}
	fan := c.pendingCounts
	if c.pendingClusters != nil {
		fan = c.hist.FanOut(c.pendingClusters, names)
	}
	for _, name := range names {
		c.volPred = append(c.volPred, fan[name])
		c.volObs = append(c.volObs, counts[name])
	}
	c.pendingCounts, c.pendingClusters = nil, nil
}

// register assigns each never-seen template to a cluster, in sorted-name
// order so founding decisions are deterministic. Only the new names are
// sorted: O(new·log new), not the population.
func (c *Controller) register(counts map[string]float64) {
	var fresh []string
	for name := range counts {
		if _, ok := c.clusterer.Lookup(name); !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		if rep, ok := c.plans(name); ok {
			c.clusterer.Assign(name, plan.Fingerprint(rep), clusterFeatures(c.db, rep))
		} else {
			c.clusterer.AssignOrphan(name)
		}
	}
}

// clusterFeatures folds a representative plan's translated OU invocations
// into a fixed-length feature vector — per OU kind, the invocation count
// and the summed feature mass — the similarity key the clusterer groups
// templates by. Mode is pinned to Interpret so cluster identity never
// depends on the live execution-mode knob.
func clusterFeatures(db *engine.DB, n plan.Node) []float64 {
	tr := modeling.NewTranslator(db, catalog.Interpret)
	vec := make([]float64, 2*ou.NumKinds)
	for _, inv := range tr.TranslatePlan(n) {
		k := int(inv.Kind)
		if k < 0 || k >= ou.NumKinds {
			continue
		}
		vec[2*k]++
		for _, f := range inv.Features {
			vec[2*k+1] += f
		}
	}
	return vec
}

// BuildWork returns the in-flight build's per-thread work over the next
// interval, one entry per still-running build thread (nil when no build is
// in flight): the load a driver's machine model adds to its contention
// estimate.
func (c *Controller) BuildWork() []hw.Metrics {
	if c.build == nil {
		return nil
	}
	work, _ := c.build.ActiveWork(c.cfg.IntervalUS)
	return work
}

// Advance credits the in-flight build with one interval of progress and
// publishes it once every thread is done, logging an index-publish action
// at interval. slowdown[e] is the contention ratio the driver's machine
// model gave BuildWork's entry e, so that thread progresses
// IntervalUS/slowdown[e]; a nil slowdown runs every thread at unit speed.
// It reports whether a build is still in flight.
func (c *Controller) Advance(interval int, slowdown []float64) (bool, error) {
	if c.build == nil {
		return false, nil
	}
	_, idx := c.build.ActiveWork(c.cfg.IntervalUS)
	for e, j := range idx {
		r := 1.0
		if slowdown != nil {
			r = slowdown[e]
		}
		if r > 0 {
			c.build.Advance(j, c.cfg.IntervalUS/r)
		}
	}
	if !c.build.Done() {
		return true, nil
	}
	if err := c.build.Publish(c.db); err != nil {
		return false, fmt.Errorf("selfdrive: publishing %s: %w", c.build.Candidate.Name, err)
	}
	c.published = append(c.published, c.build.Candidate)
	c.actions = append(c.actions, AppliedAction{
		Interval: interval, Kind: "index-publish", Detail: c.build.Candidate.Name,
	})
	c.build = nil
	return false, nil
}

// Observe pairs the latency Step predicted for the interval that just ran
// with the driver's observed average for the MAPE series, and returns the
// prediction (0 when none was made).
func (c *Controller) Observe(observedUS float64) float64 {
	pred := c.nextLatencyUS
	if pred > 0 {
		c.predSeries = append(c.predSeries, pred)
		c.obsSeries = append(c.obsSeries, observedUS)
	}
	return pred
}

// Step runs one control step once the store holds two intervals: forecast
// the next interval for the given number of concurrent threads, and, when
// planning is set, rank the candidate actions and apply the winner; then
// predict the next interval's latency under whatever is now in effect.
func (c *Controller) Step(interval, threads int, planning bool) error {
	c.nextLatencyUS = 0
	if c.hist.Len() < 2 {
		return nil
	}
	f := c.forecast(threads)
	if planning && len(f.Queries) > 0 {
		actions, err := c.rank(f, planner.CandidateConfig{
			ThreadCandidates:    c.cfg.ThreadCandidates,
			MaxImpactRatio:      c.cfg.MaxImpactRatio,
			PartitionCandidates: c.cfg.PartitionCandidates,
			DOPCandidates:       c.cfg.DOPCandidates,
		})
		if err != nil {
			return err
		}
		if err := c.act(interval, actions); err != nil {
			return err
		}
	}
	return c.predict(f)
}

// forecast converts the store's next-interval volume forecasts into the
// inference pipeline's input and records them as the pending volume
// predictions. Per template it costs O(template population); compressed
// it forecasts once per cluster (O(K)), and each entry is the leader's plan
// carrying the members' summed volume.
func (c *Controller) forecast(threads int) modeling.IntervalForecast {
	f := modeling.IntervalForecast{IntervalUS: c.cfg.IntervalUS, Threads: threads}
	add := func(name string, count float64, members int) {
		rep, ok := c.plans(name)
		if !ok {
			return
		}
		rep = rewritePublished(rep, c.published)
		f.Queries = append(f.Queries, modeling.ForecastQuery{
			Plan: rep, Count: count, Fingerprint: plan.Fingerprint(rep), Members: members,
		})
	}
	if c.clusterer != nil {
		preds := c.fc.ForecastClusters(c.hist, 1)
		c.pendingClusters = make([]float64, len(preds))
		for id, series := range preds {
			if len(series) == 0 || series[0] <= 0 {
				continue
			}
			c.pendingClusters[id] = series[0]
			add(c.clusterer.Leader(id), series[0], c.clusterer.MemberCount(id))
		}
		return f
	}
	preds := c.fc.ForecastAll(c.hist, 1)
	c.pendingCounts = make(map[string]float64, len(preds))
	for name, series := range preds {
		if len(series) > 0 {
			c.pendingCounts[name] = series[0]
		}
	}
	for _, name := range sortedTemplates(c.pendingCounts) {
		if count := c.pendingCounts[name]; count > 0 {
			add(name, count, 0)
		}
	}
	return f
}

// rank prices the candidate actions for the forecast against the live
// execution mode, best first.
func (c *Controller) rank(f modeling.IntervalForecast, cand planner.CandidateConfig) ([]planner.Action, error) {
	return c.p.PlanActions(c.db.Knobs().ExecutionMode, f, cand)
}

// act applies the best-ranked action that promises at least
// MinImprovement — skipping index builds while one is in flight — and
// logs it at interval.
func (c *Controller) act(interval int, actions []planner.Action) error {
	for _, a := range actions {
		if a.PredictedImprovement < c.cfg.MinImprovement {
			return nil // sorted best-first: nothing further qualifies
		}
		if a.Kind == planner.ActionIndexBuild && c.build != nil {
			continue // one build at a time
		}
		handle, err := c.p.Apply(a, nil)
		if err != nil {
			return fmt.Errorf("selfdrive: applying %v: %w", a, err)
		}
		kind, detail := "mode-change", a.Mode.String()
		switch a.Kind {
		case planner.ActionIndexBuild:
			kind = "index-build-start"
			detail = fmt.Sprintf("%s threads=%d", a.Index.Name, a.Threads)
			c.build = handle
		case planner.ActionRepartition:
			kind = "repartition"
			detail = fmt.Sprintf("parts=%d", a.Partitions)
		case planner.ActionSetDOP:
			kind = "set-dop"
			detail = fmt.Sprintf("dop=%d", a.DOP)
		}
		c.actions = append(c.actions, AppliedAction{
			Interval: interval, Kind: kind, Detail: detail,
			PredictedImprovement: a.PredictedImprovement,
		})
		return nil // apply the winning action only
	}
	return nil
}

// predict prices the forecast under the live knobs, the published indexes
// and any in-flight build, and keeps the average query latency as the
// prediction for the coming interval.
func (c *Controller) predict(f modeling.IntervalForecast) error {
	tr := modeling.NewTranslator(c.db, c.db.Knobs().ExecutionMode)
	tr.Cache = c.p.Cache
	var af *modeling.ActionForecast
	if c.build != nil {
		af = &modeling.ActionForecast{IndexBuild: &modeling.IndexBuildAction{
			Table:   c.build.Candidate.Table,
			KeyCols: c.build.Candidate.KeyColNames,
			Threads: c.build.Threads,
		}}
	}
	start := time.Now()
	pred, err := c.ms.PredictInterval(tr, f, af)
	if err != nil {
		return err
	}
	c.inferenceUS = append(c.inferenceUS, float64(time.Since(start).Microseconds()))
	c.nextLatencyUS = pred.AvgQueryLatencyUS
	return nil
}

// report copies the controller's accounting into a run result.
func (c *Controller) report(res *Result) {
	res.Actions = c.actions
	res.InferenceUS = c.inferenceUS
	res.CacheHits, res.CacheMisses = c.p.Cache.Stats()
	res.CacheHitRate = c.p.Cache.HitRate()
	res.CacheEvictions = c.p.Cache.Evictions()
	res.MAPE = forecast.MAPE(c.predSeries, c.obsSeries)
	res.VolumeMAPE = forecast.MAPE(c.volPred, c.volObs)
	res.HistoryEvicted = c.hist.Evicted()
	if c.clusterer != nil {
		res.TemplatesSeen = c.clusterer.Assigned()
		res.Clusters = c.clusterer.Len()
	} else {
		res.TemplatesSeen = len(c.hist.Templates())
	}
}
