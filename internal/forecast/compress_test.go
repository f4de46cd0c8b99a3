package forecast

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// feat builds a simple feature vector with the given magnitude.
func feat(scale float64) []float64 { return []float64{scale, 2 * scale, 0, scale / 2} }

func TestClustererFingerprintFastPath(t *testing.T) {
	c := NewClusterer(8, 0)
	id := c.Assign("a", 42, feat(100))
	// Same fingerprint, wildly different features: the exact-match path
	// wins before any distance is computed.
	if got := c.Assign("b", 42, feat(1e9)); got != id {
		t.Fatalf("same-fingerprint template got cluster %d, want %d", got, id)
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
}

func TestClustererToleranceJoin(t *testing.T) {
	c := NewClusterer(8, 0.25)
	id := c.Assign("leader", 1, feat(100))
	// 10% larger features: well within the normalized tolerance.
	if got := c.Assign("near", 2, feat(110)); got != id {
		t.Fatalf("near template founded cluster %d, want join %d", got, id)
	}
	// 100x larger: far outside tolerance, founds its own cluster.
	if got := c.Assign("far", 3, feat(10000)); got == id {
		t.Fatalf("far template joined cluster %d, want a new cluster", id)
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", c.Len())
	}
}

func TestClustererBoundIsHard(t *testing.T) {
	const k = 4
	c := NewClusterer(k, 0.01)
	for i := 0; i < 100; i++ {
		// Each template's features are far from every other's, so without
		// the bound each would found its own cluster.
		id := c.Assign(fmt.Sprintf("t%03d", i), uint64(i+1), feat(math.Pow(10, float64(i))))
		if id < 0 || id >= k {
			t.Fatalf("template %d assigned cluster %d, outside [0,%d)", i, id, k)
		}
	}
	if c.Len() > k {
		t.Fatalf("Len() = %d exceeds bound %d", c.Len(), k)
	}
	if c.Assigned() != 100 {
		t.Fatalf("Assigned() = %d, want 100", c.Assigned())
	}
}

func TestClustererStableReassignment(t *testing.T) {
	c := NewClusterer(8, 0)
	id := c.Assign("a", 7, feat(10))
	// Re-assigning with a different key must NOT move the template.
	if got := c.Assign("a", 99, feat(1e6)); got != id {
		t.Fatalf("re-assignment moved template to %d, want %d", got, id)
	}
	if c.Assigned() != 1 {
		t.Fatalf("Assigned() = %d, want 1", c.Assigned())
	}
}

func TestClustererDeterministicOrder(t *testing.T) {
	build := func() []int {
		c := NewClusterer(4, 0.1)
		ids := make([]int, 0, 20)
		for i := 0; i < 20; i++ {
			ids = append(ids, c.Assign(fmt.Sprintf("t%02d", i), uint64(i*31+1), feat(float64(1+i*i*100))))
		}
		return ids
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same registration order produced different IDs:\n%v\n%v", a, b)
	}
}

func TestClustererMembersRoundTrip(t *testing.T) {
	c := NewClusterer(4, 0)
	names := []string{"w", "x", "y", "z"}
	for i, n := range names {
		c.Assign(n, uint64(i%2+1), feat(float64(100+i)))
	}
	checkClusterInvariants(t, c, names)
}

// checkClusterInvariants checks the clusterer's structural contract over
// the given assigned names: every name looks up to a live cluster, every
// leader looks up to its own cluster, member counts sum to Assigned(), and
// each cluster's count matches the names that look up to it.
func checkClusterInvariants(t *testing.T, c *Clusterer, names []string) {
	t.Helper()
	perCluster := make(map[int]int)
	for _, name := range names {
		id, ok := c.Lookup(name)
		if !ok || id < 0 || id >= c.Len() {
			t.Fatalf("assigned %q looks up as (%d,%v) with %d live clusters", name, id, ok, c.Len())
		}
		perCluster[id]++
	}
	total := 0
	for id := 0; id < c.Len(); id++ {
		leader := c.Leader(id)
		if got, ok := c.Lookup(leader); !ok || got != id {
			t.Fatalf("cluster %d leader %q looks up as (%d,%v)", id, leader, got, ok)
		}
		n := c.MemberCount(id)
		if n < 1 {
			t.Fatalf("live cluster %d has MemberCount %d", id, n)
		}
		if n != perCluster[id] {
			t.Fatalf("cluster %d MemberCount = %d, but %d names look up to it", id, n, perCluster[id])
		}
		total += n
	}
	if total != c.Assigned() {
		t.Fatalf("member counts sum to %d, Assigned() = %d", total, c.Assigned())
	}
}

func TestClustererOrphan(t *testing.T) {
	c := NewClusterer(4, 0)
	id := c.AssignOrphan("ghost")
	if got, ok := c.Lookup("ghost"); !ok || got != id {
		t.Fatalf("orphan lookup = (%d,%v), want (%d,true)", got, ok, id)
	}
	if got := c.AssignOrphan("ghost"); got != id {
		t.Fatalf("orphan re-assignment = %d, want %d", got, id)
	}
}

func TestFeatureDistance(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"both nil", nil, nil, 0},
		{"identical", []float64{1, 2}, []float64{1, 2}, 0},
		{"zero vs zero-padded", []float64{0, 0}, nil, 0},
		{"opposite", []float64{1}, []float64{-1}, 1},
		{"nan ignored", []float64{math.NaN(), 3}, []float64{5, 3}, 0},
		{"inf ignored", []float64{math.Inf(1), 3}, []float64{7, 3}, 0},
	}
	for _, tc := range tests {
		if got := featureDistance(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: featureDistance = %g, want %g", tc.name, got, tc.want)
		}
	}
	// Scale-free: the same relative perturbation lands at the same distance
	// regardless of magnitude.
	d1 := featureDistance(feat(10), feat(11))
	d2 := featureDistance(feat(1e8), feat(1.1e8))
	if math.Abs(d1-d2) > 1e-9 {
		t.Errorf("distance is not scale-free: %g vs %g", d1, d2)
	}
}

func TestClusteredHistoryAppendAndSeries(t *testing.T) {
	c := NewClusterer(4, 0)
	c.Assign("a1", 1, feat(100))
	c.Assign("a2", 1, feat(100)) // same fingerprint → same cluster
	c.Assign("b", 2, feat(1e6))  // far → own cluster
	h := NewClusteredHistory(1e6, 4, c)

	h.Append(map[string]float64{"a1": 10, "a2": 30, "b": 5})
	h.Append(map[string]float64{"a1": 20, "b": 7})

	if h.NumClusters() != 2 {
		t.Fatalf("NumClusters() = %d, want 2", h.NumClusters())
	}
	if got := h.ClusterSeries(0); !reflect.DeepEqual(got, []float64{40, 20}) {
		t.Fatalf("cluster 0 series = %v, want [40 20]", got)
	}
	if got := h.ClusterSeries(1); !reflect.DeepEqual(got, []float64{5, 7}) {
		t.Fatalf("cluster 1 series = %v, want [5 7]", got)
	}
}

func TestClusteredHistoryLateFoundingZeroPads(t *testing.T) {
	c := NewClusterer(4, 0)
	h := NewClusteredHistory(1e6, 8, c)
	h.Append(map[string]float64{"a": 10})
	h.Append(map[string]float64{"a": 10, "late": 3}) // orphan founds cluster at interval 2
	for id := 0; id < h.NumClusters(); id++ {
		if got := len(h.ClusterSeries(id)); got != 2 {
			t.Fatalf("cluster %d series length = %d, want 2 (zero-padded)", id, got)
		}
	}
}

func TestClusteredHistoryWindowEviction(t *testing.T) {
	c := NewClusterer(4, 0)
	h := NewClusteredHistory(1e6, 3, c)
	for i := 0; i < 6; i++ {
		h.Append(map[string]float64{"a": float64(i + 1)})
	}
	if got := h.ClusterSeries(0); !reflect.DeepEqual(got, []float64{4, 5, 6}) {
		t.Fatalf("windowed series = %v, want [4 5 6]", got)
	}
	if h.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", h.Len())
	}
}

func TestClusteredHistorySharesAndFanOut(t *testing.T) {
	c := NewClusterer(4, 0)
	c.Assign("a1", 1, feat(100))
	c.Assign("a2", 1, feat(100))
	h := NewClusteredHistory(1e6, 0, c)
	h.Append(map[string]float64{"a1": 30, "a2": 10})

	s1, s2 := h.Share("a1"), h.Share("a2")
	if math.Abs(s1-0.75) > 1e-9 || math.Abs(s2-0.25) > 1e-9 {
		t.Fatalf("shares = %g, %g, want 0.75, 0.25", s1, s2)
	}
	if math.Abs(s1+s2-1) > 1e-9 {
		t.Fatalf("cluster shares sum to %g, want 1", s1+s2)
	}

	fan := h.FanOut([]float64{100}, []string{"a1", "a2", "unknown"})
	if math.Abs(fan["a1"]-75) > 1e-6 || math.Abs(fan["a2"]-25) > 1e-6 {
		t.Fatalf("fan-out = %v, want a1:75 a2:25", fan)
	}
	if fan["unknown"] != 0 {
		t.Fatalf("unknown template fanned out %g, want 0", fan["unknown"])
	}
}

func TestClusteredHistorySharesTrackRecency(t *testing.T) {
	c := NewClusterer(4, 0)
	c.Assign("a1", 1, feat(100))
	c.Assign("a2", 1, feat(100))
	h := NewClusteredHistory(1e6, 0, c)
	// a1 dominated history, then a2 takes over; recency weighting must pull
	// a2's share above its lifetime-average 50%.
	for i := 0; i < 10; i++ {
		h.Append(map[string]float64{"a1": 100, "a2": 0})
	}
	for i := 0; i < 10; i++ {
		h.Append(map[string]float64{"a1": 0, "a2": 100})
	}
	if s2 := h.Share("a2"); s2 < 0.8 {
		t.Fatalf("post-shift share of a2 = %g, want > 0.8 (recency weighting)", s2)
	}
}

func TestClusteredHistoryWeightRenormalization(t *testing.T) {
	c := NewClusterer(2, 0)
	c.Assign("a1", 1, feat(100))
	c.Assign("a2", 1, feat(100))
	h := NewClusteredHistory(1e6, 2, c)
	// Enough intervals that wScale crosses weightRenormAt several times
	// (growth 1.25 → renorm roughly every 1547 intervals).
	for i := 0; i < 5000; i++ {
		h.Append(map[string]float64{"a1": 30, "a2": 10})
	}
	s1, s2 := h.Share("a1"), h.Share("a2")
	if math.IsNaN(s1) || math.IsInf(s1, 0) || math.Abs(s1-0.75) > 1e-6 {
		t.Fatalf("share(a1) after renormalizations = %g, want 0.75", s1)
	}
	if math.Abs(s1+s2-1) > 1e-6 {
		t.Fatalf("shares sum to %g after renormalizations, want 1", s1+s2)
	}
}

func TestForecastClusters(t *testing.T) {
	c := NewClusterer(4, 0)
	c.Assign("a", 1, feat(100))
	c.Assign("b", 2, feat(1e6))
	h := NewClusteredHistory(1e6, 0, c)
	for i := 1; i <= 5; i++ {
		h.Append(map[string]float64{"a": float64(10 * i), "b": 7})
	}
	f := Forecaster{}
	preds := f.ForecastClusters(h, 2)
	if len(preds) != 2 {
		t.Fatalf("forecast covers %d clusters, want 2", len(preds))
	}
	// Cluster 0 trends up linearly; the next point continues the trend.
	if p := preds[0][0]; p < 50 || p > 70 {
		t.Fatalf("trending cluster forecast = %g, want ~60", p)
	}
	// Cluster 1 is flat.
	if p := preds[1][0]; math.Abs(p-7) > 1 {
		t.Fatalf("flat cluster forecast = %g, want ~7", p)
	}
	for id, series := range preds {
		for _, v := range series {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("cluster %d forecast contains %g", id, v)
			}
		}
	}
}
