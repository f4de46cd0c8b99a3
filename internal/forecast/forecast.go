// Package forecast implements the workload-forecasting substrate MB2
// assumes as input (Sec 3, citing the QB5000 line of work): it tracks the
// arrival volume of each query template per fixed interval and predicts
// future interval volumes with an ensemble of a linear trend and a
// seasonal-naive component. A self-driving DBMS feeds these predictions to
// MB2's inference pipeline as the workload forecast.
package forecast

import (
	"math"
	"sort"
	"sync"
)

// History accumulates per-template arrival counts in fixed intervals.
//
// A History is safe for concurrent use: the online control loop's
// aggregator Appends one interval at a time while planning goroutines read
// Series/Templates/Len. Series returns a copy, so a snapshot taken before
// an Append is never mutated by it. With a window (NewWindowedHistory),
// Append evicts the oldest interval once the window is full, keeping the
// store's footprint constant over an unbounded run.
type History struct {
	mu         sync.Mutex
	intervalUS float64
	intervals  int
	window     int // max retained intervals; 0 = unbounded
	evicted    int // intervals dropped from the front of every series
	counts     map[string][]float64

	// Clustered mode (NewClusteredHistory): per-cluster series replace the
	// per-template series above, and per-template state shrinks to one
	// recency-weighted fan-out weight. Per-template slices are indexed by
	// the Clusterer's assignment ordinal. See clustered.go.
	clusterer     *Clusterer
	clusterCounts [][]float64
	clusterWeight []float64
	weights       []float64 // fan-out weight per template ordinal
	pending       []float64 // Append's staged count per ordinal; zero between calls
	sums          []float64 // Append's per-cluster scratch
	wScale        float64
}

// NewHistory creates an empty, unbounded history with the given interval
// length.
func NewHistory(intervalUS float64) *History {
	return &History{intervalUS: intervalUS, counts: make(map[string][]float64)}
}

// NewWindowedHistory creates a history that retains at most maxIntervals
// recent intervals, evicting the oldest on Append once full — the
// incrementally-fed store the online loop keeps its forecasting state in.
// maxIntervals <= 0 means unbounded.
func NewWindowedHistory(intervalUS float64, maxIntervals int) *History {
	h := NewHistory(intervalUS)
	h.window = maxIntervals
	return h
}

// IntervalUS returns the interval length.
func (h *History) IntervalUS() float64 { return h.intervalUS }

// Len returns the number of retained intervals (capped at the window).
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.intervals
}

// Evicted returns how many intervals a windowed history has dropped from
// the front of its series since creation.
func (h *History) Evicted() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.evicted
}

// Append records one interval's per-template counts. Templates absent from
// the map count zero for the interval. When the history is windowed and
// full, the oldest interval is evicted, and templates with no arrivals
// anywhere in the retained window are forgotten entirely (so unbounded
// runs with template churn keep a bounded footprint).
func (h *History) Append(counts map[string]float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.intervals++
	if h.clusterer != nil {
		h.appendClustered(counts)
		return
	}
	for name := range counts {
		if _, ok := h.counts[name]; !ok {
			h.counts[name] = make([]float64, h.intervals-1)
		}
	}
	for name, series := range h.counts {
		h.counts[name] = append(series, counts[name])
	}
	if h.window > 0 && h.intervals > h.window {
		drop := h.intervals - h.window
		for name, series := range h.counts {
			// Re-slice into a fresh array so previously returned Series
			// copies and the retained tail never alias evicted storage.
			tail := append([]float64(nil), series[drop:]...)
			live := false
			for _, v := range tail {
				if v != 0 {
					live = true
					break
				}
			}
			if live {
				h.counts[name] = tail
			} else {
				delete(h.counts, name)
			}
		}
		h.intervals = h.window
		h.evicted += drop
	}
}

// Series returns a copy of one template's count series.
func (h *History) Series(template string) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.counts[template]...)
}

// Templates lists the observed template names, sorted.
func (h *History) Templates() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.counts))
	for name := range h.counts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Forecaster predicts future interval volumes from a history.
type Forecaster struct {
	// Season is the seasonal period in intervals (0 disables the seasonal
	// component).
	Season int
	// Window bounds how much history the trend component fits (0 = all).
	Window int
}

// linearTrend fits y = a + b*t by least squares over the series tail and
// extrapolates `ahead` steps past the end.
func linearTrend(series []float64, window, ahead int) float64 {
	n := len(series)
	if n == 0 {
		return 0
	}
	start := 0
	if window > 0 && n > window {
		start = n - window
	}
	xs := series[start:]
	m := float64(len(xs))
	if m == 1 {
		return xs[0]
	}
	var sumT, sumY, sumTT, sumTY float64
	for i, y := range xs {
		t := float64(i)
		sumT += t
		sumY += y
		sumTT += t * t
		sumTY += t * y
	}
	denom := m*sumTT - sumT*sumT
	if math.Abs(denom) < 1e-12 {
		return sumY / m
	}
	b := (m*sumTY - sumT*sumY) / denom
	a := (sumY - b*sumT) / m
	return a + b*(float64(len(xs)-1)+float64(ahead))
}

// Forecast predicts the template's volume for the next horizon intervals.
// The prediction ensembles a linear trend with the value one season ago
// (when a full season of history exists), mirroring the hybrid design of
// query-volume forecasters.
func (f Forecaster) Forecast(h *History, template string, horizon int) []float64 {
	return f.forecastSeries(h.Series(template), horizon)
}

// forecastSeries is the shared per-series predictor behind Forecast and
// ForecastClusters. It is total over degenerate inputs — which clustering
// makes routine (a cluster founded this interval has a series that is all
// zeros except the newest point): empty and single-point series, all-zero
// series, and series carrying NaN/Inf elements all yield finite,
// non-negative predictions, never NaN or Inf.
func (f Forecaster) forecastSeries(series []float64, horizon int) []float64 {
	series = sanitizeSeries(series)
	out := make([]float64, horizon)
	for ahead := 1; ahead <= horizon; ahead++ {
		trend := linearTrend(series, f.Window, ahead)
		pred := trend
		if f.Season > 0 && len(series) >= f.Season {
			idx := len(series) + ahead - 1 - f.Season
			for idx >= len(series) {
				idx -= f.Season
			}
			if idx >= 0 {
				pred = (trend + series[idx]) / 2
			}
		}
		if pred < 0 || math.IsNaN(pred) || math.IsInf(pred, 0) {
			pred = 0
		}
		out[ahead-1] = pred
	}
	return out
}

// sanitizeSeries returns the series with non-finite elements replaced by 0
// (sharing the input when nothing needs replacing). Degenerate upstream
// inputs must not poison the least-squares fit with NaN/Inf.
func sanitizeSeries(series []float64) []float64 {
	for i, v := range series {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out := append([]float64(nil), series...)
			for j := i; j < len(out); j++ {
				if math.IsNaN(out[j]) || math.IsInf(out[j], 0) {
					out[j] = 0
				}
			}
			return out
		}
	}
	return series
}

// ForecastAll predicts every observed template.
func (f Forecaster) ForecastAll(h *History, horizon int) map[string][]float64 {
	out := make(map[string][]float64)
	for _, name := range h.Templates() {
		out[name] = f.Forecast(h, name, horizon)
	}
	return out
}

// MAPE computes the mean absolute percentage error of predictions against
// actuals (denominator floored at 1 query). It is total: mismatched
// lengths compare only the overlapping prefix, empty input or an all-zero
// actual series yields a finite value, and non-finite elements (NaN/Inf
// from degenerate upstream models) are skipped rather than propagated, so
// the result is always a defined, finite number.
func MAPE(pred, actual []float64) float64 {
	n := len(pred)
	if len(actual) < n {
		n = len(actual)
	}
	if n == 0 {
		return 0
	}
	total, counted := 0.0, 0
	for i := 0; i < n; i++ {
		p, a := pred[i], actual[i]
		if math.IsNaN(p) || math.IsInf(p, 0) || math.IsNaN(a) || math.IsInf(a, 0) {
			continue
		}
		denom := math.Max(1, math.Abs(a))
		total += math.Abs(p-a) / denom
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
