// Package selfdrive closes MB2's loop (Sec 8.7). One Controller implements
// the control step: at each planning interval it (1) ingests per-template
// query counts into the forecast store, (2) advances and publishes an
// in-flight index build, (3) forecasts the next interval's volumes, (4)
// generates and ranks candidate actions — an execution-mode flip, index
// builds over hot predicate columns at several thread counts, repartition
// and DOP changes — with the what-if planner and applies the winner, and
// (5) predicts the next interval's latency under whatever is now in
// effect, scoring each prediction when the interval's actuals arrive.
//
// Three drivers feed that one Controller:
//
//   - Run drives a fresh TPC-C engine under concurrent seeded workload
//     sessions. It charges the machine model's contention to the sessions
//     and the build threads, and rehearses crash and failover drills.
//   - LiveDriver drains a live session.Registry — a wire server's process
//     list — and hands the Controller the traffic's counts and plans. It
//     has no machine model, so build threads advance at unit speed.
//   - RunCompressBench replays a synthetic high-cardinality trace through
//     the Controller's ingest and forecast phases and times them.
//
// # Determinism
//
// A fixed-seed run is bit-for-bit reproducible at any session-parallelism
// setting. Every session derives its RNG from the run seed and its own
// identity (seed ^ fnv64a("drive/interval-i/session-s")), writes only
// session-private observation buffers, and the loop merges them in session
// index order — so every float reduction happens in a fixed order. Actions
// apply at interval boundaries, on the loop goroutine, never concurrently
// with query execution.
//
// # Prediction caching
//
// All inference — planner evaluations and the Controller's own
// next-interval predictions — shares one modeling.PredictionCache keyed by
// (plan fingerprint, execution mode, action signature). The cache syncs
// against the engine's configuration version, so the knob writes and index
// publishes the Controller itself performs invalidate stale predictions
// automatically.
package selfdrive
