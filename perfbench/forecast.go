package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/forecast"
	"mb2/internal/modeling"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/planner"
	"mb2/internal/selfdrive"
	"mb2/internal/storage"
)

// forecast_100k: workload compression at high template cardinality.
//
// Every interval hands a count map of fcActive templates to a clustered
// forecast history (K = fcClusters). The population rolls: each interval
// fcChurn templates retire and fcChurn new ones arrive, and a block of
// fcChurn templates runs hot (4x volume). New templates are assigned to a
// cluster with Clusterer.Assign the first time they are seen. The
// interval's decision then forecasts every cluster, fans the previous
// interval's cluster forecast out to a sample of templates to score it,
// and ranks actions with planner.PlanActions over one representative per
// cluster. The benchmark's own work per interval is O(fcChurn + K): the
// count map is mutated in place, never rebuilt.

const (
	fcActive   = 100_000
	fcChurn    = 250
	fcClusters = 64
	fcSample   = 1_024
	fcWindow   = 6       // history window, as the drive loop's default
	fcWarmup   = 2       // intervals run at set-up, so forecasts have history
	fcIntervUS = 100_000 // interval length the history is keyed to
	fcSetups   = 3
)

// fcBases are the template shapes variants derive from: TPC-C's order
// point lookup, stock-level range aggregate, customer-by-last-name scan
// and order-line analytic scan.
var fcBases = [...]string{"orders_point", "stock_level", "customer_by_last", "orderline_scan"}

func ints(vals ...int64) []storage.Value {
	out := make([]storage.Value, len(vals))
	for i, v := range vals {
		out[i] = storage.NewInt(v)
	}
	return out
}

// basePlan builds a base template's plan with its estimates scaled by f.
func basePlan(base int, f float64) plan.Node {
	est := func(rows, distinct float64) plan.Estimates {
		return plan.Estimates{Rows: rows * f, Distinct: distinct * f}
	}
	switch base {
	case 0:
		return &plan.IdxScanNode{Table: "orders", Index: "orders_pk", Eq: ints(0, 0, 0), Rows: est(1, 1)}
	case 1:
		return &plan.AggNode{
			Child: &plan.IdxScanNode{Table: "orderline", Index: "orderline_pk",
				Lo: ints(0, 0, 0), Hi: ints(0, 0, 20), Rows: est(200, 20)},
			GroupBy: []int{4},
			Aggs:    []plan.AggSpec{{Fn: plan.Count, Arg: plan.Col(4)}},
			Rows:    est(100, 100),
		}
	case 2:
		return &plan.SeqScanNode{Table: "customer",
			Filter: plan.And{
				L: plan.Cmp{Op: plan.EQ, L: plan.Col(2), R: plan.IntConst(0)},
				R: plan.Cmp{Op: plan.EQ, L: plan.Col(3), R: plan.IntConst(0)},
			},
			Rows: est(3, 3)}
	default:
		return &plan.AggNode{
			Child: &plan.SeqScanNode{Table: "orderline",
				Filter: plan.Cmp{Op: plan.GT, L: plan.Col(6), R: plan.FloatConst(5)},
				Rows:   est(11250, 11250)},
			GroupBy: []int{1},
			Aggs:    []plan.AggSpec{{Fn: plan.Sum, Arg: plan.Col(6)}},
			Rows:    est(10, 10),
		}
	}
}

// fcName is template ordinal ord's name; fcHash its seeded identity hash.
func fcName(ord int) string { return fcBases[ord%len(fcBases)] + "#" + strconv.Itoa(ord) }

func fcHash(seed int64, ord int) uint64 {
	s := uint64(seed) ^ uint64(ord)*0x9e3779b97f4a7c15
	return splitmix64(&s)
}

// fcRep is template ord's representative plan: its base shape with every
// estimate scaled by a seeded factor in [1, 1.25), so fingerprints differ
// while feature vectors stay close.
func fcRep(seed int64, ord int) plan.Node {
	return basePlan(ord%len(fcBases), 1+0.25*float64(fcHash(seed, ord)%4096)/4096)
}

// fcBaseCount is template ord's per-interval volume outside the hot block.
func fcBaseCount(seed int64, ord int) float64 { return float64(1 + (fcHash(seed, ord)>>16)%16) }

// fcState is one forecast_100k instance: the database and models the
// planner prices actions with, the clustered history, and the live count
// map with the population window [lo, lo+active).
type fcState struct {
	seed     int64
	active   int
	churn    int
	db       *engine.DB
	tr       *modeling.Translator
	cl       *forecast.Clusterer
	hist     *forecast.History
	fc       forecast.Forecaster
	pl       *planner.Planner
	cand     planner.CandidateConfig
	counts   map[string]float64
	lo       int // first live ordinal
	hot      int // first ordinal of the hot block (-1 before the first)
	next     int // ordinals below next have been generated
	interval int
	leaders  []plan.Node
	pending  []float64 // last interval's per-cluster forecast
	volPred  []float64
	volObs   []float64
}

// fcLayers are one interval's layer times.
type fcLayers struct {
	assign, append, forecast, fanout, plan time.Duration
}

func newFCState(seed int64, active, churn int, ms *modeling.ModelSet) (*fcState, error) {
	db, err := loadTPCC(seed, 1)
	if err != nil {
		return nil, err
	}
	dc := selfdrive.DefaultConfig()
	s := &fcState{
		seed: seed, active: active, churn: churn, db: db,
		tr:     modeling.NewTranslator(db, catalog.Interpret),
		cl:     forecast.NewClusterer(fcClusters, 0),
		fc:     forecast.Forecaster{Window: fcWindow},
		pl:     planner.New(db, ms),
		cand:   planner.CandidateConfig{ThreadCandidates: dc.ThreadCandidates, MaxImpactRatio: dc.MaxImpactRatio},
		counts: make(map[string]float64, active),
		hot:    -1,
	}
	s.hist = forecast.NewClusteredHistory(fcIntervUS, fcWindow, s.cl)
	s.pl.Cache = modeling.NewPredictionCache()
	for ord := 0; ord < active; ord++ {
		s.register(ord)
		s.counts[fcName(ord)] = fcBaseCount(seed, ord)
	}
	s.next = active
	return s, nil
}

// features folds a plan's translated OU invocations into the clusterer's
// key: per OU kind, the invocation count and the summed feature mass.
func (s *fcState) features(n plan.Node) []float64 {
	vec := make([]float64, 2*ou.NumKinds)
	for _, inv := range s.tr.TranslatePlan(n) {
		k := int(inv.Kind)
		vec[2*k]++
		for _, f := range inv.Features {
			vec[2*k+1] += f
		}
	}
	return vec
}

// register assigns template ord to a cluster.
func (s *fcState) register(ord int) {
	rep := fcRep(s.seed, ord)
	s.cl.Assign(fcName(ord), plan.Fingerprint(rep), s.features(rep))
}

// advance mutates the count map into the next interval's: the oldest
// churn templates retire, the hot block moves, and churn new templates
// arrive (returned, not yet registered). O(churn).
func (s *fcState) advance() []int {
	if s.interval > 0 {
		for ord := s.lo; ord < s.lo+s.churn; ord++ {
			delete(s.counts, fcName(ord))
		}
		s.lo += s.churn
	}
	for ord := max(s.hot, s.lo); s.hot >= 0 && ord < s.hot+s.churn; ord++ {
		s.counts[fcName(ord)] = fcBaseCount(s.seed, ord)
	}
	var fresh []int
	for ; s.next < s.lo+s.active; s.next++ {
		fresh = append(fresh, s.next)
		s.counts[fcName(s.next)] = fcBaseCount(s.seed, s.next)
	}
	s.hot = s.lo + int(fcHash(s.seed, -1-s.interval)%uint64(s.active-s.churn))
	for ord := s.hot; ord < s.hot+s.churn; ord++ {
		s.counts[fcName(ord)] = 4 * fcBaseCount(s.seed, ord)
	}
	return fresh
}

// leaderRep returns cluster id's representative plan: its leader's.
// Leaders never change, so each is built once.
func (s *fcState) leaderRep(id int) plan.Node {
	for len(s.leaders) <= id {
		name := s.cl.Leader(len(s.leaders))
		ord, err := strconv.Atoi(name[strings.LastIndexByte(name, '#')+1:])
		if err != nil {
			panic(fmt.Sprintf("leader %q is not a generated template name", name))
		}
		s.leaders = append(s.leaders, fcRep(s.seed, ord))
	}
	return s.leaders[id]
}

// step runs one interval: advance the population, then the timed
// decision. It returns the decision's layer times.
func (s *fcState) step(tr *Tracer) (fcLayers, error) {
	var l fcLayers
	fresh := s.advance()
	req := int64(s.interval)
	op := tr.Begin("interval", -1, req)
	defer tr.End(op)

	t := time.Now()
	sp := tr.Begin("forecast.assign", op, req)
	for _, ord := range fresh {
		s.register(ord)
	}
	tr.End(sp)
	l.assign = time.Since(t)

	t = time.Now()
	sp = tr.Begin("forecast.append", op, req)
	s.hist.Append(s.counts)
	tr.End(sp)
	l.append = time.Since(t)

	if s.pending != nil {
		sample := make([]string, 0, fcSample)
		for i := 0; i < fcSample; i++ {
			sample = append(sample, fcName(s.lo+i*(s.active/fcSample)))
		}
		t = time.Now()
		sp = tr.Begin("forecast.fanout", op, req)
		fan := s.hist.FanOut(s.pending, sample)
		tr.End(sp)
		l.fanout = time.Since(t)
		for _, name := range sample {
			if v := fan[name]; math.IsNaN(v) || math.IsInf(v, 0) {
				return l, fmt.Errorf("interval %d: fan-out forecast for %s is %v", s.interval, name, v)
			}
			s.volPred = append(s.volPred, fan[name])
			s.volObs = append(s.volObs, s.counts[name])
		}
	}

	t = time.Now()
	sp = tr.Begin("forecast.forecast", op, req)
	preds := s.fc.ForecastClusters(s.hist, 1)
	tr.End(sp)
	l.forecast = time.Since(t)

	f := modeling.IntervalForecast{IntervalUS: fcIntervUS, Threads: 2}
	s.pending = make([]float64, len(preds))
	for id, series := range preds {
		for _, v := range series {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return l, fmt.Errorf("interval %d: cluster %d forecast is %v", s.interval, id, v)
			}
		}
		if len(series) == 0 || series[0] <= 0 {
			continue
		}
		s.pending[id] = series[0]
		rep := s.leaderRep(id)
		f.Queries = append(f.Queries, modeling.ForecastQuery{
			Plan: rep, Count: series[0], Fingerprint: plan.Fingerprint(rep), Members: s.cl.MemberCount(id),
		})
	}

	t = time.Now()
	sp = tr.Begin("planner.plan", op, req)
	_, err := s.pl.PlanActions(s.db.Knobs().ExecutionMode, f, s.cand)
	tr.End(sp)
	l.plan = time.Since(t)
	s.interval++
	if err != nil {
		return l, fmt.Errorf("interval %d: PlanActions: %w", s.interval-1, err)
	}
	return l, nil
}

// fcWindows is how many windows the timed phase is split into.
const fcWindows = 5

// runFCIntervals runs intervals until budget has elapsed, in windows of
// equal length, collecting each decision's latency (from handing over the
// counts until PlanActions returns) and layer times.
func runFCIntervals(s *fcState, budget time.Duration, windows int, tr *Tracer) ([]window, []fcLayers, error) {
	var wins []window
	var layers []fcLayers
	for len(wins) < windows {
		var w window
		t0 := time.Now()
		for time.Since(t0) < budget/time.Duration(windows) {
			l, err := s.step(tr)
			if err != nil {
				w.wall = time.Since(t0)
				return append(wins, w), layers, err
			}
			layers = append(layers, l)
			w.ops++
			w.lat = append(w.lat, float64((l.assign+l.append+l.fanout+l.forecast+l.plan).Nanoseconds())/1e3)
		}
		w.wall = time.Since(t0)
		wins = append(wins, w)
	}
	return wins, layers, nil
}

// totalOps sums the operations of windows.
func totalOps(ws []window) int64 {
	var n int64
	for _, w := range ws {
		n += w.ops
	}
	return n
}

// totalRate is operations per second over all windows together.
func totalRate(ws []window) float64 {
	var wall time.Duration
	for _, w := range ws {
		wall += w.wall
	}
	return float64(totalOps(ws)) / wall.Seconds()
}

// setupForecast trains the model set, loads TPC-C, registers the initial
// population and runs the warm-up intervals.
func setupForecast(o runOpts, tr *Tracer) (*fcState, error) {
	active, churn := fcActive, fcChurn
	if o.Small {
		active, churn = 2_000, 50
	}
	ms, err := trainModels(o.Seed, o.Small, tr, &setupTimes{})
	if err != nil {
		return nil, err
	}
	sp := tr.Begin("forecast.setup", -1, 0)
	defer tr.End(sp)
	s, err := newFCState(o.Seed, active, churn, ms)
	for i := 0; i < fcWarmup && err == nil; i++ {
		_, err = s.step(nil)
	}
	return s, err
}

// checkForecast verifies the clustering invariants after a run.
func checkForecast(s *fcState) error {
	if got := s.cl.Assigned(); got != s.next {
		return fmt.Errorf("clusterer holds %d templates, %d were generated", got, s.next)
	}
	if n := s.cl.Len(); n > fcClusters {
		return fmt.Errorf("clusterer holds %d clusters, bound is %d", n, fcClusters)
	}
	return nil
}

// runForecast is the forecast_100k workload.
func runForecast(o runOpts) (Outcome, error) {
	budget := time.Duration(o.Seconds) * time.Second
	if o.Trace {
		return traceForecast(o, budget)
	}
	var s *fcState
	var setups []float64
	for i := 0; i < fcSetups; i++ {
		s = nil // let the previous instance go before building the next
		settle()
		t0 := time.Now()
		var err error
		if s, err = setupForecast(o, nil); err != nil {
			return Outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	settle()
	wins, _, err := runFCIntervals(s, budget, fcWindows, nil)
	out := Outcome{Attempted: totalOps(wins), Metrics: windowMetrics(wins), Windows: wins}
	out.Metrics["setup_s"] = median(setups)
	if err != nil {
		out.Attempted++
		out.Failed = 1
		out.Check = err
		return out, nil
	}
	out.Check = checkForecast(s)
	return out, nil
}

// traceForecast runs the intervals untraced and then traced for half the
// budget each, on one set-up, and reports each layer's mean time per
// interval.
func traceForecast(o runOpts, budget time.Duration) (Outcome, error) {
	origin := time.Now()
	setupTr := NewTracer(origin)
	s, err := setupForecast(o, setupTr)
	if err != nil {
		return Outcome{}, err
	}
	m := map[string]float64{}
	settle()
	m0 := readMem()
	plain, _, err := runFCIntervals(s, budget/2, 1, nil)
	if err != nil {
		return Outcome{Attempted: totalOps(plain) + 1, Failed: 1, Metrics: m, Check: err}, nil
	}
	runtimeMetrics(m, m0, readMem(), totalOps(plain))
	runTr := NewTracer(origin)
	settle()
	traced, layers, err := runFCIntervals(s, budget/2, 1, runTr)
	if err != nil {
		return Outcome{Attempted: totalOps(traced) + 1, Failed: 1, Metrics: m, Check: err}, nil
	}
	path, err := WriteTraces(o.TraceDir, fmt.Sprintf("forecast_100k-seed%d", o.Seed), o.Prov, setupTr, runTr)
	if err != nil {
		return Outcome{}, err
	}

	var assign []float64
	var tot fcLayers
	for _, l := range layers {
		assign = append(assign, float64(l.assign.Nanoseconds())/1e3)
		tot.append += l.append
		tot.forecast += l.forecast
		tot.fanout += l.fanout
		tot.plan += l.plan
	}
	n := float64(len(layers))
	perInterval := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	m["forecast.assign_us"] = mean(assign)
	m["forecast.append_us"] = perInterval(tot.append)
	m["forecast.forecast_us"] = perInterval(tot.forecast)
	m["forecast.fanout_us"] = perInterval(tot.fanout)
	m["planner.plan_us"] = perInterval(tot.plan)
	m["forecast.clusters"] = float64(s.cl.Len())
	m["forecast.volume_mape"] = forecast.MAPE(s.volPred, s.volObs)
	m["modeling.cache_hit_rate"] = s.pl.Cache.HitRate()
	m["trace.overhead_pct"] = 100 * (totalRate(plain) - totalRate(traced)) / totalRate(plain)
	return Outcome{Attempted: totalOps(traced), Metrics: m, Check: checkForecast(s), Spans: path}, nil
}
