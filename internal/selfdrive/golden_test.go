package selfdrive

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// outcomeFingerprint folds the run outputs the digest leaves out: each
// interval's predicted latency, each action's predicted improvement, and the
// latency and volume MAPEs. A change to the forecast or predict phases that
// kept the digest could still move these.
func outcomeFingerprint(r *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, iv := range r.Intervals {
		put(iv.PredictedAvgLatencyUS)
	}
	for _, a := range r.Actions {
		put(a.PredictedImprovement)
	}
	put(r.MAPE)
	put(r.VolumeMAPE)
	return h.Sum64()
}

// TestDriveLoopPinnedOutcomes pins the outputs TestDriveLoopPinnedDigests
// does not: the predictions and errors of the default and partitioned runs,
// and the digests and predictions of the compressed run and of a run with
// both drill kinds enabled. Like the pinned digests, a moved constant is a
// behavior change, not a test to update.
func TestDriveLoopPinnedOutcomes(t *testing.T) {
	ms := sharedModels(t)

	partitioned := DefaultConfig()
	partitioned.Partitions = 4
	drills := DefaultConfig()
	drills.Intervals = 6
	drills.CrashEvery = 2
	drills.FailoverEvery = 3

	for _, tc := range []struct {
		name        string
		cfg         Config
		digest      uint64 // 0: pinned by TestDriveLoopPinnedDigests
		fingerprint uint64
	}{
		{"default", DefaultConfig(), 0, 0x53531c1123a4f1e0},
		{"partitioned", partitioned, 0, 0x5fb9963052e4c135},
		{"compressed", compressedConfig(), 0x283877d9ae1bb61, 0x1c7a8df6165b8a8b},
		{"drills", drills, 0xe9853875c09db2b6, 0x4ddbf07b1fe79ef7},
	} {
		res, err := Run(tc.cfg, ms)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.digest != 0 && res.Digest != tc.digest {
			t.Errorf("%s: run digest = %#x, want %#x", tc.name, res.Digest, tc.digest)
		}
		if got := outcomeFingerprint(res); got != tc.fingerprint {
			t.Errorf("%s: outcome fingerprint = %#x, want %#x (digest %#x)", tc.name, got, tc.fingerprint, res.Digest)
		}
	}
}

// TestRunCompressBenchPinned pins the deterministic columns of a small
// compression sweep: per point, the volume MAPE, the planner input size,
// the cluster count and the cache evictions.
func TestRunCompressBenchPinned(t *testing.T) {
	ms := sharedModels(t)
	res, err := RunCompressBench(CompressBenchConfig{
		Seed:           1,
		TemplateCounts: []int{12, 200},
		Clusters:       8,
		Intervals:      6,
	}, ms)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, pt := range res.Points {
		put(math.Float64bits(pt.VolumeMAPE))
		put(uint64(pt.ForecastQueries))
		put(uint64(pt.Clusters))
		put(pt.CacheEvictions)
	}
	if got, want := h.Sum64(), uint64(0xba3c4b7ae3f86321); got != want {
		t.Errorf("compress sweep fingerprint = %#x, want %#x; points %+v", got, want, res.Points)
	}
}
