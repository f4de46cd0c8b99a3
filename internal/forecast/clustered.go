package forecast

import (
	"math"
	"sort"
)

// Recency weighting for fan-out shares. Rather than decaying old
// observations (O(population) per interval), new observations are scaled
// up by a growing factor: a count c recorded at interval i contributes
// c * weightGrowth^i, so relative shares are recency-weighted for free and
// both per-template and per-cluster totals fold in with O(1) work. The
// scale is renormalized (one O(population) pass) only when it approaches
// float64 range — every few thousand intervals.
const (
	weightGrowth   = 1.25
	weightRenormAt = 1e150
)

// NewClusteredHistory creates a windowed history that maintains
// per-CLUSTER series instead of per-template series, so the store's size
// and the forecaster's cost are O(K), not O(template population) — the
// workload-compression contract. Per-template state is one recency-weighted
// fan-out weight, kept in a slice indexed by the Clusterer's assignment
// ordinal. maxIntervals <= 0 means unbounded.
//
// One Append costs O(active) name-table probes, plus O(new·log new) to
// sort never-seen names, plus one contiguous O(assigned) fold. Templates
// are normally registered with the clusterer (plan fingerprint + feature
// vector) before their counts first arrive; names that show up
// unregistered are absorbed via Clusterer.AssignOrphan in sorted-name
// order, and per-cluster sums are folded in ordinal (assignment) order, so
// the result does not depend on map iteration order.
func NewClusteredHistory(intervalUS float64, maxIntervals int, c *Clusterer) *History {
	h := NewWindowedHistory(intervalUS, maxIntervals)
	h.clusterer = c
	h.wScale = 1
	return h
}

// Clustered reports whether the history maintains cluster series.
func (h *History) Clustered() bool { return h.clusterer != nil }

// Clusterer returns the attached clusterer (nil for a plain history).
func (h *History) Clusterer() *Clusterer { return h.clusterer }

// appendClustered is Append's clustered path; the caller holds h.mu and
// has already advanced h.intervals.
func (h *History) appendClustered(counts map[string]float64) {
	h.wScale *= weightGrowth
	if h.wScale > weightRenormAt {
		inv := 1 / weightRenormAt
		h.wScale *= inv
		for i := range h.weights {
			h.weights[i] *= inv
		}
		for i := range h.clusterWeight {
			h.clusterWeight[i] *= inv
		}
	}

	sums := h.foldCounts(counts)

	// Clusters founded since the last interval start with zero-padded
	// series, so every cluster series spans every retained interval.
	for len(h.clusterCounts) < len(sums) {
		h.clusterCounts = append(h.clusterCounts, make([]float64, h.intervals-1))
		h.clusterWeight = append(h.clusterWeight, 0)
	}
	for id := range h.clusterCounts {
		v := sums[id]
		h.clusterCounts[id] = append(h.clusterCounts[id], v)
		h.clusterWeight[id] += v * h.wScale
	}

	if h.window > 0 && h.intervals > h.window {
		drop := h.intervals - h.window
		// Shift in place: ClusterSeries hands out copies, so nothing
		// outside the history aliases these arrays.
		for id, series := range h.clusterCounts {
			h.clusterCounts[id] = series[:copy(series, series[drop:])]
		}
		h.intervals = h.window
		h.evicted += drop
	}
}

// foldCounts sums one interval's counts per cluster and folds each
// template's count into its fan-out weight. It holds the clusterer's lock
// for the whole pass: one name-table probe stages each known template's
// count at its ordinal, never-seen names are sorted and assigned as
// orphans, and the staged counts are folded in ordinal order. The
// returned slice, one entry per live cluster, is reused by the next call.
func (h *History) foldCounts(counts map[string]float64) []float64 {
	c := h.clusterer
	c.mu.Lock()
	defer c.mu.Unlock()

	h.growTemplates(len(c.clusterOf))
	var fresh []string
	for name, v := range counts {
		ord, ok := c.ordinal[name]
		if !ok {
			fresh = append(fresh, name)
		} else if countable(v) {
			h.pending[ord] = v
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		ord := c.assignLocked(name, orphanFingerprint(name), nil)
		h.growTemplates(int(ord) + 1)
		if v := counts[name]; countable(v) {
			h.pending[ord] = v
		}
	}

	sums := append(h.sums[:0], make([]float64, len(c.clusters))...)
	for ord, v := range h.pending {
		if v != 0 {
			sums[c.clusterOf[ord]] += v
			h.weights[ord] += v * h.wScale
			h.pending[ord] = 0
		}
	}
	h.sums = sums
	return sums
}

// countable reports whether an observed count contributes volume: NaN,
// infinite, zero and negative counts do not.
func countable(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// growTemplates extends the per-template slices to cover n ordinals.
func (h *History) growTemplates(n int) {
	if n > len(h.weights) {
		h.weights = append(h.weights, make([]float64, n-len(h.weights))...)
		h.pending = append(h.pending, make([]float64, n-len(h.pending))...)
	}
}

// NumClusters returns how many clusters have at least one retained series.
func (h *History) NumClusters() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.clusterCounts)
}

// ClusterSeries returns a copy of one cluster's per-interval volume series
// (nil for an unknown ID).
func (h *History) ClusterSeries(id int) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id < 0 || id >= len(h.clusterCounts) {
		return nil
	}
	return append([]float64(nil), h.clusterCounts[id]...)
}

// Share returns a template's recency-weighted share of its cluster's
// volume — the fan-out factor that turns a cluster-level prediction back
// into a per-template prediction. Unknown templates and empty clusters
// share 0.
func (h *History) Share(name string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.clusterer == nil {
		return 0
	}
	h.clusterer.mu.Lock()
	defer h.clusterer.mu.Unlock()
	_, share, _ := h.shareLocked(name)
	return share
}

// shareLocked resolves a template's cluster and share; the caller holds
// h.mu and the clusterer's lock. ok is false for an unassigned template.
func (h *History) shareLocked(name string) (id int, share float64, ok bool) {
	c := h.clusterer
	ord, ok := c.ordinal[name]
	if !ok {
		return 0, 0, false
	}
	id = int(c.clusterOf[ord])
	if int(ord) >= len(h.weights) || id >= len(h.clusterWeight) {
		return id, 0, true
	}
	w, cw := h.weights[ord], h.clusterWeight[id]
	if cw <= 0 || w <= 0 {
		return id, 0, true
	}
	return id, w / cw, true
}

// FanOut distributes per-cluster predictions back to the given member
// templates proportionally to their recency-weighted shares:
// pred(template) = clusterPred[cluster(template)] * Share(template).
// Only the requested names are touched, so MAPE accounting against an
// interval's observed templates costs O(observed), not O(population).
func (h *History) FanOut(clusterPred []float64, names []string) map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]float64, len(names))
	h.clusterer.mu.Lock()
	defer h.clusterer.mu.Unlock()
	for _, name := range names {
		p := 0.0
		if id, share, ok := h.shareLocked(name); ok && id < len(clusterPred) {
			p = clusterPred[id] * share
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				p = 0
			}
		}
		out[name] = p
	}
	return out
}

// ForecastClusters predicts every cluster's volume for the next horizon
// intervals, indexed by cluster ID. The per-cluster cost matches
// Forecast's per-template cost, so a full forecasting pass is O(K), not
// O(template population).
func (f Forecaster) ForecastClusters(h *History, horizon int) [][]float64 {
	n := h.NumClusters()
	out := make([][]float64, n)
	for id := 0; id < n; id++ {
		out[id] = f.forecastSeries(h.ClusterSeries(id), horizon)
	}
	return out
}
