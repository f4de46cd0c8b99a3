package selfdrive

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/forecast"
	"mb2/internal/modeling"
	"mb2/internal/ou"
	"mb2/internal/plan"
	"mb2/internal/planner"
)

// Load-curve names (Config.LoadCurve). Flat is the historical behavior;
// diurnal modulates per-session volume sinusoidally over LoadPeriod
// intervals; flash triples volume for two intervals mid-run (the flash
// crowd the forecaster has never seen coming).
const (
	LoadFlat    = "flat"
	LoadDiurnal = "diurnal"
	LoadFlash   = "flash"
)

// variantSep separates a base template name from its synthetic variant
// ordinal ("customer_by_last#0042").
const variantSep = "#"

// scenarioBases is the exploder's base-template set, in the fixed order
// variant ordinals are distributed across.
var scenarioBases = [...]string{
	tmplOrdersPoint, tmplStockLevel, tmplCustomerByLast, tmplOrderlineScan,
}

// scenario derives the run's workload population from the Config: with
// Templates <= 0 it is the historical four-template drive, otherwise the
// four bases explode into Templates synthetic variants, each a structural
// near-duplicate of its base with deterministically perturbed cardinality
// estimates (so variant fingerprints differ but feature vectors stay
// close — the shape workload compression exists for).
//
// The repCache memoizes canonical (un-rewritten) representative plans; it
// is touched only from the loop thread (registration and forecast
// building), never from session workers.
type scenario struct {
	cfg      Config
	repCache map[string]plan.Node
}

func newScenario(cfg Config) *scenario {
	return &scenario{cfg: cfg, repCache: make(map[string]plan.Node)}
}

// exploded reports whether the synthetic-variant population is active.
func (sc *scenario) exploded() bool { return sc.cfg.Templates > 0 }

// variantsPerBase returns how many variants base index b carries: the
// population of Templates names is spread as evenly as possible across
// the four bases.
func (sc *scenario) variantsPerBase(b int) int {
	n := sc.cfg.Templates
	if n < len(scenarioBases) {
		n = len(scenarioBases)
	}
	nv := n / len(scenarioBases)
	if b < n%len(scenarioBases) {
		nv++
	}
	return nv
}

// variantName renders a variant's template name.
func variantName(base string, ord int) string {
	return fmt.Sprintf("%s%s%04d", base, variantSep, ord)
}

// splitVariant parses a (possibly variant) template name into its base and
// ordinal (ordinal -1 for a plain base name).
func splitVariant(name string) (base string, ord int) {
	i := strings.LastIndex(name, variantSep)
	if i < 0 {
		return name, -1
	}
	n, err := strconv.Atoi(name[i+len(variantSep):])
	if err != nil {
		return name, -1
	}
	return name[:i], n
}

// variantFactor is a variant's deterministic cardinality perturbation in
// [1.0, 1.25): close enough that a variant clusters with its base under
// the default tolerance, far enough that fingerprints and feature vectors
// are all distinct.
func variantFactor(name string) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return 1 + 0.25*float64(h.Sum64()%4096)/4096
}

// scaleEstimates returns a copy of the plan with every cardinality
// estimate scaled by f (covering the node kinds the drive templates use).
func scaleEstimates(n plan.Node, f float64) plan.Node {
	switch x := n.(type) {
	case *plan.SeqScanNode:
		cp := *x
		cp.Rows = est(x.Rows.Rows*f, x.Rows.Distinct*f)
		return &cp
	case *plan.IdxScanNode:
		cp := *x
		cp.Rows = est(x.Rows.Rows*f, x.Rows.Distinct*f)
		return &cp
	case *plan.AggNode:
		cp := *x
		cp.Rows = est(x.Rows.Rows*f, x.Rows.Distinct*f)
		cp.Child = scaleEstimates(x.Child, f)
		return &cp
	default:
		return n
	}
}

// baseRep returns the canonical representative plan of a base template
// (the same fixed-constant plans representatives() builds).
func (sc *scenario) baseRep(base string) plan.Node {
	matches := float64(sc.cfg.CustomersPerDistrict) / tpccLastNames
	switch base {
	case tmplOrdersPoint:
		return ordersPoint(0, 0, 0)
	case tmplStockLevel:
		return stockLevel(0, 0, 0)
	case tmplCustomerByLast:
		return customerByLast(0, 0, 0, matches)
	case tmplOrderlineScan:
		return orderlineScan(5, orderlineRows(sc.cfg))
	}
	return nil
}

// repFor returns a template's representative plan rewritten through the
// published indexes (nil, false for names outside the population). The
// canonical plan is cached; the index rewrite is applied per call since
// the published set grows over the run.
func (sc *scenario) repFor(name string, published []planner.IndexCandidate) (plan.Node, bool) {
	rep, ok := sc.repCache[name]
	if !ok {
		base, ord := splitVariant(name)
		rep = sc.baseRep(base)
		if rep == nil {
			return nil, false
		}
		if ord >= 0 {
			rep = scaleEstimates(rep, variantFactor(name))
		}
		sc.repCache[name] = rep
	}
	return rewritePublished(rep, published), true
}

// pickVariant draws a variant ordinal for a base: min-of-two draws skews
// volume toward low ordinals (a hot set), and from interval SkewShiftAt on
// the hot set rotates half a population away — the mid-run skew shift the
// cluster shares must adapt to.
func (sc *scenario) pickVariant(rng *rand.Rand, baseIdx, interval int) int {
	nv := sc.variantsPerBase(baseIdx)
	if nv <= 1 {
		return 0
	}
	a, b := rng.Int63n(int64(nv)), rng.Int63n(int64(nv))
	ord := int(a)
	if int(b) < ord {
		ord = int(b)
	}
	if sc.cfg.SkewShiftAt > 0 && interval >= sc.cfg.SkewShiftAt {
		ord = (ord + nv/2) % nv
	}
	return ord
}

// intervalQueries returns the per-session query volume at interval i under
// the configured load curve (always >= 1).
func (cfg Config) intervalQueries(i int) int {
	q := cfg.QueriesPerSession
	switch cfg.LoadCurve {
	case LoadDiurnal:
		period := cfg.LoadPeriod
		if period < 2 {
			period = 8
		}
		scale := 0.6 + 0.5*math.Sin(2*math.Pi*float64(i)/float64(period))
		q = int(math.Round(scale * float64(cfg.QueriesPerSession)))
	case LoadFlash:
		mid := cfg.Intervals / 2
		if i == mid || i == mid+1 {
			q = 3 * cfg.QueriesPerSession
		}
	}
	if q < 1 {
		q = 1
	}
	return q
}

// sessionQueriesExploded is sessionQueries for the exploded population:
// the same base mix, but every query lands on a rng-drawn variant whose
// plan carries the variant's perturbed estimates. The load curve sets the
// interval's volume and the skew shift rotates the hot variants.
func (sc *scenario) sessionQueriesExploded(rng *rand.Rand, interval int, published []planner.IndexCandidate) []liveQuery {
	cfg := sc.cfg
	cpd := cfg.CustomersPerDistrict
	matches := float64(cpd) / tpccLastNames
	qn := cfg.intervalQueries(interval)
	nCustomer := customerCountOf(cfg, interval, qn)
	var out []liveQuery
	add := func(baseIdx int, node plan.Node) {
		ord := sc.pickVariant(rng, baseIdx, interval)
		name := variantName(scenarioBases[baseIdx], ord)
		node = scaleEstimates(node, variantFactor(name))
		node = rewritePublished(node, published)
		out = append(out, liveQuery{name: name, fp: plan.Fingerprint(node), node: node})
	}
	for i := 0; i < qn; i++ {
		d := rng.Int63n(10)
		switch {
		case i < nCustomer:
			add(2, customerByLast(0, d, rng.Int63n(tpccLastNames), matches))
		case i%3 == 0:
			add(0, ordersPoint(0, d, rng.Int63n(int64(cpd))))
		case i%3 == 1:
			add(1, stockLevel(0, d, rng.Int63n(int64(cpd*3/4))))
		default:
			add(3, orderlineScan(5, orderlineRows(cfg)))
		}
	}
	return out
}

// customerCountOf is customerCount generalized to a curve-modulated
// per-interval volume.
func customerCountOf(cfg Config, i, volume int) int {
	share := cfg.CustomerBaseShare + cfg.CustomerSharePerInterval*float64(i)
	if share > cfg.CustomerMaxShare {
		share = cfg.CustomerMaxShare
	}
	n := int(math.Round(share * float64(volume)))
	if n > volume {
		n = volume
	}
	return n
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

// registerTemplates assigns any unregistered observed template to a
// cluster, in sorted-name order so founding decisions are deterministic.
// Only the new names are sorted: O(new·log new), not the population.
func (sc *scenario) registerTemplates(c *forecast.Clusterer, db *engine.DB, counts map[string]float64) {
	var fresh []string
	for name := range counts {
		if _, ok := c.Lookup(name); !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		if rep, ok := sc.repFor(name, nil); ok {
			c.Assign(name, plan.Fingerprint(rep), clusterFeatures(db, rep))
		} else {
			c.AssignOrphan(name)
		}
	}
}
