// Workload compression: forecasting and planning cost must not grow with
// the raw template population. A production trace can carry 10^5..10^6
// distinct statements, but most of them are structural near-duplicates; a
// bounded set of cluster representatives preserves forecast and tuning
// quality while making the optimizer-side cost a function of K, not N
// (the WAter line of workload-compression-based tuning).
//
// The Clusterer here is deliberately RNG-free: streaming leader clustering
// keyed first by exact plan fingerprint and then by feature-vector
// proximity. Given the same registration order it always produces the same
// cluster IDs — the property the drive loop's bit-for-bit replay digests
// rest on — and it never exceeds its K bound: once K leaders exist, new
// templates join the nearest cluster unconditionally.
package forecast

import (
	"hash/fnv"
	"math"
	"sync"
)

// DefaultClusterTolerance is the relative feature-space distance within
// which a new template joins an existing leader instead of founding a new
// cluster. Distances are normalized (see featureDistance), so the default
// admits templates whose OU feature mass differs by roughly a quarter.
const DefaultClusterTolerance = 0.25

// clusterInfo is one cluster's state: the leader (first member, whose
// representative plan stands in for every member at forecast and planning
// time), its identity key, and how many templates it holds.
type clusterInfo struct {
	leader  string
	fp      uint64
	feat    []float64
	members int
}

// Clusterer assigns query templates to a bounded set of clusters with
// deterministic streaming leader clustering:
//
//  1. a template whose plan fingerprint exactly matches an existing
//     cluster's leader joins that cluster (O(1));
//  2. otherwise the nearest leader by normalized feature distance within
//     Tolerance adopts it (ties break toward the lowest cluster ID);
//  3. otherwise, while fewer than K clusters exist, the template founds a
//     new cluster and becomes its leader;
//  4. at the K bound, the template joins the nearest leader regardless of
//     distance — the bound is hard.
//
// There is no randomness anywhere in the path: identical registration
// sequences yield identical cluster IDs, which is what keeps seeded drive
// replays bit-for-bit stable. A Clusterer is safe for concurrent use.
//
// Every assigned template also gets a dense ordinal — its position in
// assignment order — so per-template state elsewhere (the clustered
// History's fan-out weights) can live in slices instead of string-keyed
// maps. Assignments are permanent, so ordinals and clusterOf only grow.
type Clusterer struct {
	mu        sync.Mutex
	max       int
	tolerance float64
	byFP      map[uint64]int
	ordinal   map[string]int32 // template name → assignment-order ordinal
	clusterOf []int32          // ordinal → cluster ID
	clusters  []clusterInfo
}

// NewClusterer returns an empty clusterer bounded at maxClusters
// (values < 1 are raised to 1). tolerance <= 0 selects
// DefaultClusterTolerance.
func NewClusterer(maxClusters int, tolerance float64) *Clusterer {
	if maxClusters < 1 {
		maxClusters = 1
	}
	if tolerance <= 0 {
		tolerance = DefaultClusterTolerance
	}
	return &Clusterer{
		max:       maxClusters,
		tolerance: tolerance,
		byFP:      make(map[uint64]int),
		ordinal:   make(map[string]int32),
	}
}

// MaxClusters returns the K bound.
func (c *Clusterer) MaxClusters() int { return c.max }

// Len returns the number of live clusters (always <= MaxClusters).
func (c *Clusterer) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.clusters)
}

// Assigned returns the number of registered templates.
func (c *Clusterer) Assigned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.clusterOf)
}

// Assign registers a template under its plan fingerprint and feature
// vector and returns its cluster ID. Re-assigning a known template returns
// its existing ID without consulting the key, so a template's cluster never
// moves once assigned (predictions fanned back out to it stay attributable).
// A nil feature vector is legal and treated as the zero vector.
func (c *Clusterer) Assign(name string, fp uint64, feat []float64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.clusterOf[c.assignLocked(name, fp, feat)])
}

// AssignOrphan registers a template that has no plan: the fingerprint is
// derived from the name, the feature vector is empty. Used for template
// names that surface in observations before any plan is known.
func (c *Clusterer) AssignOrphan(name string) int {
	return c.Assign(name, orphanFingerprint(name), nil)
}

func orphanFingerprint(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// assignLocked is Assign under c.mu; it returns the template's ordinal.
func (c *Clusterer) assignLocked(name string, fp uint64, feat []float64) int32 {
	if ord, ok := c.ordinal[name]; ok {
		return ord
	}
	id, founded := c.place(fp, feat)
	if founded {
		c.clusters = append(c.clusters, clusterInfo{
			leader: name, fp: fp, feat: append([]float64(nil), feat...),
		})
		c.byFP[fp] = id
	}
	ord := int32(len(c.clusterOf))
	c.ordinal[name] = ord
	c.clusterOf = append(c.clusterOf, int32(id))
	c.clusters[id].members++
	return ord
}

// place picks the cluster a new key lands in; founded reports that the ID
// is a brand-new cluster the caller must initialize.
func (c *Clusterer) place(fp uint64, feat []float64) (id int, founded bool) {
	if id, ok := c.byFP[fp]; ok {
		return id, false
	}
	nearest, nearestDist := -1, math.Inf(1)
	for i := range c.clusters {
		if d := featureDistance(feat, c.clusters[i].feat); d < nearestDist {
			nearest, nearestDist = i, d
		}
	}
	if nearest >= 0 && nearestDist <= c.tolerance {
		return nearest, false
	}
	if len(c.clusters) < c.max {
		return len(c.clusters), true
	}
	if nearest < 0 {
		nearest = 0
	}
	return nearest, false
}

// Lookup returns the template's cluster ID if it has been assigned.
func (c *Clusterer) Lookup(name string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ord, ok := c.ordinal[name]
	if !ok {
		return 0, false
	}
	return int(c.clusterOf[ord]), true
}

// Leader returns the representative template of a cluster ("" for an
// unknown ID).
func (c *Clusterer) Leader(id int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.clusters) {
		return ""
	}
	return c.clusters[id].leader
}

// MemberCount returns how many templates a cluster holds (0 for an unknown
// ID).
func (c *Clusterer) MemberCount(id int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.clusters) {
		return 0
	}
	return c.clusters[id].members
}

// featureDistance is the normalized Euclidean distance between two feature
// vectors: ||a-b|| / (||a|| + ||b||), with unequal lengths zero-padded. The
// normalization makes the tolerance scale-free — a template with 10% more
// estimated rows in every OU is close no matter how large the absolute
// feature values are. Two zero (or nil) vectors are at distance 0;
// non-finite components are ignored.
func featureDistance(a, b []float64) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var diff, na, nb float64
	for i := 0; i < n; i++ {
		var av, bv float64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if math.IsNaN(av) || math.IsInf(av, 0) || math.IsNaN(bv) || math.IsInf(bv, 0) {
			continue
		}
		d := av - bv
		diff += d * d
		na += av * av
		nb += bv * bv
	}
	denom := math.Sqrt(na) + math.Sqrt(nb)
	if denom == 0 {
		return 0
	}
	return math.Sqrt(diff) / denom
}
