// Package intel is the grid intelligence layer: the federation-wide
// answers to the paper's archival and longitudinal questions, built on
// top of the per-site subsystems without owning any simulation state.
//
// Three pillars, one per file:
//
//   - archive.go — federated time travel. GridArchive answers "what was
//     the grid's inventory as of sim-time T" by binary-searching every
//     site's refapi.Store delta chain (Store.VersionAt), under each store's
//     own lock and no other, and "what changed anywhere between T1 and T2"
//     as a per-site-tagged diff. The version vector it computes is
//     the composite strong ETag the gateway serves, so conditional
//     re-reads cost one binary search per site and zero snapshot builds.
//   - incidents.go — cross-site incident rollup. Per-site bug trackers
//     file independently, so one root cause at two sites is two tickets;
//     Correlate folds every tracker's tickets into signature-keyed
//     incidents with first-seen/last-seen sim-times, affected-site sets
//     and an open/closed lifecycle, optionally scoped to "open as of T"
//     (composing with the archive's time travel).
//   - reliability.go — fleet reliability sweeps. A core.RunFleet result
//     (N independently seeded campaigns) becomes a Trend: per-week
//     mean ± spread confidence bands, rendered identically by the CLI
//     (g5ktest -seeds N) and the gateway (GET /reliability/trend)
//     through the one shared renderer. A sweep runs once, before the
//     gateway serves, so the gateway holds the one Trend it was given.
//
// Everything here is deterministic: inputs are read in caller-given
// (shard) order, trackers under the caller's guard and stores under their
// own locks, and every emitted collection is explicitly sorted — never map
// iteration order. The package holds no lock: it owns no mutable state
// after assembly.
package intel
