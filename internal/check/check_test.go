package check

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/index"
	"mb2/internal/storage"
)

// TestStressMatrix runs the harness over a grid of seeds and worker counts
// (run under -race by the tier-1 target). Every run must exercise commits,
// aborts, a parallel index build, GC epochs, and WAL flushes, and pass all
// invariant families at every phase boundary.
func TestStressMatrix(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		for seed := int64(1); seed <= 8; seed++ {
			workers, seed := workers, seed
			t.Run(fmt.Sprintf("seed=%d,workers=%d", seed, workers), func(t *testing.T) {
				t.Parallel()
				rep, err := Run(Config{Seed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Commits == 0 {
					t.Error("run committed no transactions")
				}
				if rep.Aborts == 0 {
					t.Error("run aborted no transactions")
				}
				if !rep.IndexBuilt {
					t.Error("parallel index build did not run")
				}
				if rep.GCRuns == 0 {
					t.Error("no GC epochs ran")
				}
				if rep.Flushes == 0 {
					t.Error("no WAL flushes ran")
				}
				if rep.Checks < 6*3 {
					t.Errorf("only %d invariant passes ran, want at least %d", rep.Checks, 6*3)
				}
			})
		}
	}
}

// TestPartitionedStressMatrix scales the stress harness to partitioned
// tables: a partition-count × DOP × seed matrix at 4× the seed row count,
// with parallel partition-fanned audit scans bounding the wall clock and
// the partition invariant family (routing directory, per-partition
// scan-merge consistency, partitioned WAL replay) passing at every phase
// boundary. Runs under -race via the tier-1 target.
func TestPartitionedStressMatrix(t *testing.T) {
	for _, parts := range []int{2, 4, 8} {
		for _, dop := range []int{2, 4} {
			for seed := int64(1); seed <= 2; seed++ {
				parts, dop, seed := parts, dop, seed
				t.Run(fmt.Sprintf("parts=%d,dop=%d,seed=%d", parts, dop, seed), func(t *testing.T) {
					t.Parallel()
					rep, err := Run(Config{
						Seed: seed, Workers: 4, Accounts: 192,
						Partitions: parts, DOP: dop,
					})
					if err != nil {
						t.Fatal(err)
					}
					if rep.Partitions != parts {
						t.Fatalf("run used %d partitions, want %d", rep.Partitions, parts)
					}
					if rep.Commits == 0 || rep.Aborts == 0 {
						t.Errorf("run lacked commits or aborts: %+v", rep)
					}
					if rep.Checks < 7*3 {
						t.Errorf("only %d invariant passes ran, want at least %d (7 families x 3 phases)", rep.Checks, 7*3)
					}
				})
			}
		}
	}
}

// TestPartitionedSerialReplayIsDeterministic pins the bit-exact replay
// property on a partitioned database with parallel audit scans: the
// partition fan-out must not leak any nondeterminism into the final state.
func TestPartitionedSerialReplayIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Workers: 4, Serial: true, Accounts: 192, Partitions: 4, DOP: 4}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *r1 != *r2 {
		t.Errorf("partitioned serial replay diverged:\n first: %+v\nsecond: %+v", *r1, *r2)
	}
	plain := cfg
	plain.Partitions = 1
	plain.DOP = 1
	r3, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if r1.StateDigest != r3.StateDigest {
		t.Errorf("partitioning changed the committed state: digest %#x vs %#x (unpartitioned)",
			r1.StateDigest, r3.StateDigest)
	}
}

// TestSerialReplayIsDeterministic re-runs the same seed in serial mode and
// requires bit-identical outcomes, down to the digest of the final
// committed state — the property that makes seed-based failure replay work.
func TestSerialReplayIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Workers: 4, Serial: true}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *r1 != *r2 {
		t.Errorf("serial replay diverged:\n first: %+v\nsecond: %+v", *r1, *r2)
	}
	if r1.Conflicts != 0 {
		t.Errorf("serial mode saw %d write conflicts, want 0 (transactions never overlap)", r1.Conflicts)
	}
}

// TestBuildScheduleDeterministic checks that schedules are pure functions
// of the seed and that a worker's stream does not depend on how many other
// workers exist.
func TestBuildScheduleDeterministic(t *testing.T) {
	a := BuildSchedule(3, 4, 100)
	b := BuildSchedule(3, 4, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := BuildSchedule(3, 2, 100)
	if !reflect.DeepEqual(a.Workers[0], c.Workers[0]) {
		t.Error("worker 0's stream depends on the worker count")
	}
	if reflect.DeepEqual(a.Workers[0], a.Workers[1]) {
		t.Error("workers 0 and 1 drew identical streams")
	}
}

// TestInjectedIndexCorruptionReportsSeed injects a stale index entry right
// before the final invariant pass and requires (a) the index family to
// catch it, (b) the error to carry the seed, and (c) a replay with the same
// config to reproduce the identical failure.
func TestInjectedIndexCorruptionReportsSeed(t *testing.T) {
	cfg := Config{
		Seed:    7,
		Workers: 3,
		Serial:  true,
		Corrupt: func(db *engine.DB) {
			db.Index("savings_pk").Insert(nil, index.EncodeKey(storage.NewInt(1<<40)), 1<<20, 1)
		},
	}
	_, err1 := Run(cfg)
	if err1 == nil {
		t.Fatal("injected index corruption went undetected")
	}
	if !strings.Contains(err1.Error(), "seed=7") {
		t.Errorf("failure does not report the seed: %v", err1)
	}
	if !strings.Contains(err1.Error(), "stale entry") {
		t.Errorf("failure not attributed to the stale index entry: %v", err1)
	}
	_, err2 := Run(cfg)
	if err2 == nil || err1.Error() != err2.Error() {
		t.Errorf("seed replay did not reproduce the failure:\n first: %v\nsecond: %v", err1, err2)
	}
}

// TestInjectedBalanceCorruptionDetected plants a committed phantom balance
// and requires the conservation family to catch it.
func TestInjectedBalanceCorruptionDetected(t *testing.T) {
	cfg := Config{
		Seed:    5,
		Workers: 2,
		Serial:  true,
		Corrupt: func(db *engine.DB) {
			db.Table("savings").AppendCommitted(
				storage.Tuple{storage.NewInt(999_999), storage.NewFloat(1e9)}, 1)
		},
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("injected balance corruption went undetected")
	}
	if !strings.Contains(err.Error(), "conservation") || !strings.Contains(err.Error(), "seed=5") {
		t.Errorf("failure not attributed to conservation with the seed: %v", err)
	}
}

// TestDeleteKeepsIndexEntriesForOlderSnapshots pins snapshot reads through
// the primary-key indexes across a committed delete: a snapshot opened
// before the delete still finds the customer in all three tables, and the
// index entries go only once that snapshot has finished.
func TestDeleteKeepsIndexEntriesForOlderSnapshots(t *testing.T) {
	h := &harness{cfg: Config{Seed: 1, Workers: 1, Accounts: 4}, db: engine.Open(catalog.DefaultKnobs())}
	if err := h.setup(); err != nil {
		t.Fatal(err)
	}
	a := h.pickAccount(0)
	key := index.EncodeKey(storage.NewInt(a.id))
	lookups := []struct {
		tbl *storage.Table
		idx string
	}{{h.accT, "accounts_pk"}, {h.savT, "savings_pk"}, {h.chkT, "checking_pk"}}
	// count returns how many index entries exist for the customer and how
	// many of their rows st can read.
	count := func(st *txnState) (entries, visible int) {
		for _, l := range lookups {
			for _, row := range h.db.Index(l.idx).SearchEQ(nil, key, 1) {
				entries++
				if _, ok, err := h.readRow(st, l.tbl, row); err != nil {
					t.Fatal(err)
				} else if ok {
					visible++
				}
			}
		}
		return entries, visible
	}

	old := h.begin()
	if err := h.opDelete(Op{Kind: OpDelete, B: 0}); err != nil {
		t.Fatal(err)
	}
	if _, visible := count(old); visible != 3 {
		t.Fatalf("snapshot from before the delete reads custid %d in %d of 3 tables", a.id, visible)
	}
	if err := h.commit(old); err != nil {
		t.Fatal(err)
	}
	if entries, _ := count(h.begin()); entries != 0 {
		t.Fatalf("%d index entries for deleted custid %d remain after every older snapshot finished", entries, a.id)
	}
}
