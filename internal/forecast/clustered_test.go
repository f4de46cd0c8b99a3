package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refClusteredHistory is the clustered history's earlier ingest, kept as a
// reference to check the current implementation against: it sorts every
// observed name each interval, probes the clusterer and a string-keyed
// weight map once per name, and sums per cluster in sorted-name order.
type refClusteredHistory struct {
	c             *Clusterer
	window        int
	intervals     int
	clusterCounts [][]float64
	clusterWeight []float64
	weights       map[string]float64
	wScale        float64
}

func newRefClusteredHistory(window int, c *Clusterer) *refClusteredHistory {
	return &refClusteredHistory{c: c, window: window, weights: make(map[string]float64), wScale: 1}
}

func (r *refClusteredHistory) append(counts map[string]float64) {
	r.intervals++
	r.wScale *= weightGrowth
	if r.wScale > weightRenormAt {
		inv := 1 / weightRenormAt
		r.wScale *= inv
		for name := range r.weights {
			r.weights[name] *= inv
		}
		for i := range r.clusterWeight {
			r.clusterWeight[i] *= inv
		}
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	perCluster := make(map[int]float64, len(names))
	for _, name := range names {
		id, ok := r.c.Lookup(name)
		if !ok {
			id = r.c.AssignOrphan(name)
		}
		v := counts[name]
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			continue
		}
		perCluster[id] += v
		r.weights[name] += v * r.wScale
	}
	for n := r.c.Len(); len(r.clusterCounts) < n; {
		r.clusterCounts = append(r.clusterCounts, make([]float64, r.intervals-1))
		r.clusterWeight = append(r.clusterWeight, 0)
	}
	for id := range r.clusterCounts {
		v := perCluster[id]
		r.clusterCounts[id] = append(r.clusterCounts[id], v)
		r.clusterWeight[id] += v * r.wScale
	}
	if r.window > 0 && r.intervals > r.window {
		drop := r.intervals - r.window
		for id, series := range r.clusterCounts {
			r.clusterCounts[id] = append([]float64(nil), series[drop:]...)
		}
		r.intervals = r.window
	}
}

func (r *refClusteredHistory) share(name string) float64 {
	id, ok := r.c.Lookup(name)
	if !ok || id >= len(r.clusterWeight) {
		return 0
	}
	w, cw := r.weights[name], r.clusterWeight[id]
	if cw <= 0 || w <= 0 {
		return 0
	}
	return w / cw
}

func (r *refClusteredHistory) fanOut(clusterPred []float64, names []string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, name := range names {
		p := 0.0
		if id, ok := r.c.Lookup(name); ok && id < len(clusterPred) {
			p = clusterPred[id] * r.share(name)
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				p = 0
			}
		}
		out[name] = p
	}
	return out
}

// sameBits reports whether two floats are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffRun is one seeded ingest trace fed to two clustered histories.
type diffRun struct {
	rng     *rand.Rand
	live    []string
	next    int
	seen    []string
	special []float64
}

func newDiffRun(seed int64, population int) *diffRun {
	d := &diffRun{
		rng:     rand.New(rand.NewSource(seed)),
		special: []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3},
	}
	for d.next < population {
		d.arrive()
	}
	return d
}

func (d *diffRun) arrive() {
	name := fmt.Sprintf("t%05d", d.next)
	d.next++
	d.live = append(d.live, name)
	d.seen = append(d.seen, name)
}

// register assigns a fresh name on every clusterer, identically. Past the
// first hundred names, one in three surfaces as an orphan instead. Feature
// magnitudes step up every 40 names, so clusters keep being founded until
// the K bound holds.
func (d *diffRun) register(cs []*Clusterer, name string) {
	i := d.next
	if i > 100 && i%3 == 2 {
		return
	}
	fp := uint64(i%37) + 1
	f := feat(math.Pow(3, float64((i/40)%29)))
	for _, c := range cs {
		c.Assign(name, fp, f)
	}
}

// step retires and admits churn names, then draws one interval's counts.
// integer selects whole-number counts; otherwise counts are fractional.
func (d *diffRun) step(cs []*Clusterer, churn int, integer bool) map[string]float64 {
	d.live = d.live[churn:]
	for i := 0; i < churn; i++ {
		d.arrive()
		d.register(cs, d.live[len(d.live)-1])
	}
	counts := make(map[string]float64, len(d.live))
	for _, name := range d.live {
		var v float64
		switch r := d.rng.Intn(20); {
		case r == 0:
			v = d.special[d.rng.Intn(len(d.special))]
		case r == 1:
			continue // absent this interval
		case integer:
			v = float64(d.rng.Intn(1000))
		default:
			v = d.rng.Float64() * 1000
		}
		counts[name] = v
	}
	return counts
}

func TestClusteredAppendMatchesReference(t *testing.T) {
	const (
		k         = 8
		window    = 16
		intervals = 1700 // past weightRenormAt (~1547 intervals at growth 1.25)
	)
	cNew, cRef := NewClusterer(k, 0.05), NewClusterer(k, 0.05)
	h := NewClusteredHistory(1e6, window, cNew)
	ref := newRefClusteredHistory(window, cRef)
	d := newDiffRun(11, 40)
	for _, name := range d.live {
		d.register([]*Clusterer{cNew, cRef}, name)
	}

	foundedLate, foundedOrphan, renormed := false, false, false
	for i := 0; i < intervals; i++ {
		counts := d.step([]*Clusterer{cNew, cRef}, 3, true)
		before, seriesBefore := cNew.Len(), h.NumClusters()
		scale := h.wScale
		h.Append(counts)
		ref.append(counts)
		if i > 0 && h.NumClusters() > seriesBefore {
			foundedLate = true
		}
		if cNew.Len() > before {
			foundedOrphan = true
		}
		if h.wScale < scale {
			renormed = true
		}
		if cNew.Len() != cRef.Len() || cNew.Assigned() != cRef.Assigned() {
			t.Fatalf("interval %d: clusterers diverged: %d/%d clusters, %d/%d assigned",
				i, cNew.Len(), cRef.Len(), cNew.Assigned(), cRef.Assigned())
		}
		if h.NumClusters() != len(ref.clusterCounts) || h.Len() != ref.intervals {
			t.Fatalf("interval %d: %d clusters × %d intervals, reference %d × %d",
				i, h.NumClusters(), h.Len(), len(ref.clusterCounts), ref.intervals)
		}
		pred := make([]float64, h.NumClusters())
		for id := range pred {
			got, want := h.ClusterSeries(id), ref.clusterCounts[id]
			if len(got) != len(want) {
				t.Fatalf("interval %d cluster %d: series length %d, reference %d", i, id, len(got), len(want))
			}
			for j := range got {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("interval %d cluster %d [%d]: %v, reference %v", i, id, j, got[j], want[j])
				}
			}
			pred[id] = float64(100 + 7*id)
		}
		sample := append(d.seen[max(0, len(d.seen)-60):len(d.seen):len(d.seen)], "never-seen")
		fan, refFan := h.FanOut(pred, sample), ref.fanOut(pred, sample)
		for _, name := range sample {
			if s, want := h.Share(name), ref.share(name); !sameBits(s, want) {
				t.Fatalf("interval %d: Share(%s) = %v, reference %v", i, name, s, want)
			}
			if !sameBits(fan[name], refFan[name]) {
				t.Fatalf("interval %d: FanOut[%s] = %v, reference %v", i, name, fan[name], refFan[name])
			}
		}
	}
	if cNew.Len() != k {
		t.Fatalf("run ended with %d clusters, want the K bound %d reached", cNew.Len(), k)
	}
	if !foundedLate || !foundedOrphan || !renormed {
		t.Fatalf("trace missed a case: founded mid-run %v, founded by an orphan %v, renormalized %v",
			foundedLate, foundedOrphan, renormed)
	}
}

func TestClusteredAppendOrderIndependent(t *testing.T) {
	run := func(reverse bool) *History {
		c := NewClusterer(6, 0.05)
		h := NewClusteredHistory(1e6, 12, c)
		d := newDiffRun(5, 50)
		for _, name := range d.live {
			d.register([]*Clusterer{c}, name)
		}
		for i := 0; i < 40; i++ {
			counts := d.step([]*Clusterer{c}, 4, false)
			names := make([]string, 0, len(counts))
			for name := range counts {
				names = append(names, name)
			}
			sort.Strings(names)
			if reverse {
				sort.Sort(sort.Reverse(sort.StringSlice(names)))
			}
			ordered := make(map[string]float64, len(names))
			for _, name := range names {
				ordered[name] = counts[name]
			}
			h.Append(ordered)
		}
		return h
	}
	a, b := run(false), run(true)
	if a.NumClusters() != b.NumClusters() {
		t.Fatalf("cluster counts differ: %d vs %d", a.NumClusters(), b.NumClusters())
	}
	for id := 0; id < a.NumClusters(); id++ {
		sa, sb := a.ClusterSeries(id), b.ClusterSeries(id)
		for j := range sa {
			if !sameBits(sa[j], sb[j]) {
				t.Fatalf("cluster %d [%d]: %v vs %v", id, j, sa[j], sb[j])
			}
		}
	}
	for i := 0; i < 210; i++ {
		name := fmt.Sprintf("t%05d", i)
		if sa, sb := a.Share(name), b.Share(name); !sameBits(sa, sb) {
			t.Fatalf("Share(%s): %v vs %v", name, sa, sb)
		}
	}
}

// TestClusteredHistoryConcurrent exercises Append, FanOut, Share and
// Clusterer.Assign from several goroutines; run it under -race.
func TestClusteredHistoryConcurrent(t *testing.T) {
	c := NewClusterer(8, 0.05)
	h := NewClusteredHistory(1e6, 8, c)
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			counts := make(map[string]float64, 32)
			for j := 0; j < 32; j++ {
				counts[fmt.Sprintf("t%04d", (i+j)%300)] = float64(j + 1)
			}
			h.Append(counts)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			c.Assign(fmt.Sprintf("t%04d", 299-i), uint64(i%11)+1, feat(math.Pow(2, float64(i%17))))
		}
	}()
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			pred := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			names := []string{"t0000", "t0010", "t0150", "t0299", "never"}
			for i := 0; i < rounds; i++ {
				for name, p := range h.FanOut(pred, names) {
					if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
						t.Errorf("FanOut[%s] = %v", name, p)
					}
				}
				if s := h.Share(names[i%len(names)]); s < 0 || s > 1 {
					t.Errorf("Share = %v, outside [0,1]", s)
				}
			}
		}()
	}
	wg.Wait()

	var names []string
	for i := 0; i < 300; i++ {
		if _, ok := c.Lookup(fmt.Sprintf("t%04d", i)); ok {
			names = append(names, fmt.Sprintf("t%04d", i))
		}
	}
	checkClusterInvariants(t, c, names)
	if h.NumClusters() > c.Len() {
		t.Fatalf("history has %d clusters, clusterer %d", h.NumClusters(), c.Len())
	}
}

// steadyClusteredHistory returns a clustered history over n registered
// templates, already past its window, and the count map it was fed. The
// map's keys are separate strings from the registered names, as they are
// when observations and registration each build their own.
func steadyClusteredHistory(n, k, window int) (*History, map[string]float64) {
	c := NewClusterer(k, 0)
	counts := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		c.Assign(benchName(i), uint64(i%k)+1, feat(math.Pow(10, float64(i%k))))
		counts[benchName(i)] = float64(i%97 + 1)
	}
	h := NewClusteredHistory(1e6, window, c)
	for i := 0; i < window+2; i++ {
		h.Append(counts)
	}
	return h, counts
}

func TestClusteredAppendSteadyStateAllocs(t *testing.T) {
	h, counts := steadyClusteredHistory(2000, 16, 8)
	// A steady-state Append allocates nothing; race-detector builds add one.
	const maxAllocs = 1
	allocs := testing.AllocsPerRun(50, func() { h.Append(counts) })
	if allocs > maxAllocs {
		t.Fatalf("steady-state Append allocates %v times per call, want <= %d", allocs, maxAllocs)
	}
}

// BenchmarkClusteredAppend100k times one interval's ingest at 100k live
// templates and K=64: 250 templates retire and 250 unregistered ones
// arrive per interval, so the orphan path runs every time.
func BenchmarkClusteredAppend100k(b *testing.B) {
	const n, churn = 100_000, 250
	h, counts := steadyClusteredHistory(n, 64, 6)
	lo, next := 0, n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < churn; j++ {
			delete(counts, benchName(lo))
			counts[benchName(next)] = float64(next%97 + 1)
			lo, next = lo+1, next+1
		}
		h.Append(counts)
	}
}

// benchName returns a freshly built name for template i.
func benchName(i int) string { return fmt.Sprintf("bench_template#%d", i) }
