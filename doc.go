// Package repro reproduces "Towards Trustworthy Testbeds thanks to
// Throughout Testing" (Lucas Nussbaum, REPPAR'2017): a testing framework
// for large-scale experimental testbeds, demonstrated on a simulated
// Grid'5000-scale infrastructure.
//
// The public surface lives in the internal packages (this repository is a
// self-contained research artefact, consumed through its binaries,
// examples and benchmarks):
//
//   - internal/core — the assembled framework and operations simulation,
//     plus core.Fleet: parallel multi-seed campaign sweeps. A single
//     campaign is deterministic on one simulated clock; RunFleet
//     simulates N independently seeded campaigns concurrently on real OS
//     threads (race-free by construction — campaigns share nothing) and
//     aggregates the reliability trend and bug counters with mean ±
//     spread, the Monte-Carlo sensitivity view of the paper's
//     longitudinal result (g5ktest -seeds N is the CLI form)
//   - internal/federation — the campaign federated into per-cluster
//     micro-shards grouped under site labels, the architecture of the
//     paper's subject itself: every cluster gets a complete framework
//     (OAR, monitor, CI, faults, operators) on an independent RNG stream
//     (ShardSeed is a pure function of campaign seed, site and cluster
//     name), the site remains the unit of identity (per-site summaries
//     merge a site's micro-shards back into one report), and the
//     federation steps the shards through lockstep weekly barriers.
//     Within a tick a work-stealing scheduler queues micro-shards
//     longest-processing-time-first by node count and idle workers pull
//     the next unit, so the barrier's critical path is the mean shard,
//     not the max site; serial and work-stealing stepping are
//     bit-identical, and equal to a recorded golden (g5ktest -federated
//     is the CLI form; make race races the determinism proof).
//     Federation.Advance is the only thing that steps a shard, so a
//     site never runs ahead of the federated clock. Site-scale grid events (internal/faults:
//     site-outage, wan-partition, rolling-maintenance) inject and heal
//     deterministically off the simulated clock: downed shards freeze
//     at the barrier and replay missed ticks on heal, partitioned
//     shards drop out of merged reporting, and serial ≡ parallel stays
//     bit-identical through the whole disaster (g5kapi -chaos arms a
//     schedule; make race races the drills)
//   - internal/gateway — the unified testbed API gateway: one
//     http.Handler mounting read-optimized JSON endpoints over every
//     subsystem (OAR resources/jobs/submission, the Reference API with
//     per-version ETags and a 304 path that never re-materializes
//     snapshots, monitoring queries, the bug tracker, the status views,
//     and each site's CI REST API proxied under /sites/{site}/ci/), with
//     per-endpoint atomic request/error/latency counters at /metrics.
//     The gateway has one assembly — ForFederation, one shard per
//     cluster micro-shard — and a site's cluster count never changes a
//     wire shape: handlers hold only the owning micro-shard's read lock,
//     site-scoped routes under /sites/{site}/... touch exactly the
//     site's micro-shards, the grid-wide paths scatter-gather merges,
//     and the gateway never drives time itself: Advance is
//     Federation.Advance, whose every micro-shard step runs under that
//     shard's write lock, so live serving stays coherent and one
//     cluster's reads never queue behind another's progress (g5kapi
//     -live). Under grid
//     events the gateway degrades instead of failing: routes touching a
//     down site answer 503 with Retry-After, merges exclude lost sites
//     behind a degraded marker (absent when healthy), and POST
//     /chaos/inject | /chaos/heal drive events live
//   - internal/admit — the grid-level admission layer between the
//     gateway and the federation's shards: fully-unanchored submissions
//     scatter read-only CanStartNow probes across every live site and
//     place on the least-loaded one that can start now (integer
//     cross-multiplied load comparison, lexicographic tiebreak — serial
//     and parallel probing are bit-identical), requests no site can
//     start wait in a bounded fairness-aware reservation queue pumped
//     on every advance and chaos transition, overflow sheds with 429 +
//     Retry-After, and per-site breakers route placement away from
//     down, partitioned or persistently-refusing sites (GET
//     /admit/queue is the observability view; sched.GridPolicy defers
//     whole-cluster demands grid-wide during peak hours; make race
//     races the drills)
//   - internal/intel — the grid intelligence layer over the federation:
//     GridArchive answers "the whole grid's inventory as of sim-time T"
//     by binary-searching every live shard's Reference-API archive
//     under its read gate, joined into a version-vector ETag whose body
//     is materialized from exactly the versions the vector names (GET
//     /grid/at, /grid/diff; /sites/{site}/ref/inventory?cluster=X&at=T
//     is one store's form); Correlate folds same-signature bugs across all
//     sites' trackers into lifecycle-bearing incidents, snapshot-keyed
//     so any filing or fix anywhere re-keys the view and ?at=T replays
//     history (GET /incidents); and TrendFromFleet folds a core.Fleet
//     sweep into per-week success-rate confidence bands rendered by one
//     shared renderer — the CLI report (g5ktest -reliability) and a
//     render of the gateway's GET /reliability/trend body are
//     byte-identical (make race races the drills)
//   - internal/inproc — in-process http.RoundTripper used by the status
//     page, the gateway's internal status client and the benchmark to
//     consume HTTP APIs without a listener
//   - internal/suites — the 751 test configurations in 16 families
//   - internal/sched — the external test scheduler (the paper's core
//     custom development)
//   - internal/ci — the Jenkins-like automation server
//   - internal/simclock — the virtual clock, event queue and run-token
//     goroutines everything above runs on. Its steady state allocates
//     nothing, under one rule: a *Event returned by At or After is never
//     reused (Cancel on a fired handle stays a no-op for good), while
//     events nobody holds a handle to (Clock.Schedule, the wake-ups
//     behind Sleep) are recycled per clock, a Ticker re-arms its one
//     event, Clock.Arm schedules an event embedded in the caller's own
//     struct, and finished simulation goroutines park for the next Go
//   - internal/testbed, refapi, oar, kadeploy, kavlan, monitor, checks,
//     faults, bugs — the simulated substrate
//   - internal/lint — the custom static-analysis suite (cmd/g5kvet is
//     the driver, `make lint` the entry point): five analyzers on a
//     dependency-free go/analysis-style framework that statically
//     enforce the determinism and concurrency invariants everything
//     above relies on — walltime (no wall-clock reads in simulation
//     packages), globalrand (no process-global math/rand), maporder (no
//     map-iteration order leaking into slices or emitted output),
//     atomicfield (all-or-nothing sync/atomic per struct field) and
//     baregoroutine (in-sim goroutines go through the simclock run
//     token). Findings are suppressed only by a //g5k:allow <analyzer>
//     <reason> directive; the reason is mandatory
//
// reproduction_test.go at the repository root holds every quantitative
// claim of the paper (E1–E10), the reproduction's two simulated-time
// scaling extensions (E11 executor pool, E12 verification sweep) and four
// ablations of the paper's mechanisms against their obvious alternatives:
// TestReproduction runs each at full scale and asserts its metrics exactly
// against a table in the same file. The systems extensions E13–E21 —
// Reference API version churn, campaign fleets, the gateway's conditional
// reads and mixed workload, the federated micro-shard advance, disaster
// availability, overload shedding through grid admission, grid
// intelligence, work-stealing at scale — are held by tests of the packages
// above; README.md maps each to its test and maps the module layout.
// Performance numbers come from cmd/g5kbench (BENCHMARK.json) and nothing
// else.
package repro
