package gateway

// Assembly over a federated campaign. Kept in its own file so the
// federation dependency stays out of the core gateway machinery.

import (
	"time"

	"repro/internal/admit"
	"repro/internal/federation"
	"repro/internal/sched"
)

// ForFederation mounts one gateway shard per federation micro-shard: each
// cluster's OAR, Reference API store, monitor, bug tracker and CI server
// is served behind that micro-shard's own lock, labeled with the owning
// site. Time is wired through the federation's barrier engine in both
// directions:
//
//   - Gateway.Advance delegates to Federation.Advance, whose per-shard
//     barrier ticks run under the owning gateway shard's write lock (the
//     step gate below) — so downed sites freeze all of their micro-shards,
//     heals replay catch-up ticks, and reads against live shards keep
//     flowing throughout;
//   - Gateway.AdvanceSite steps exactly one site through
//     Federation.StepSite, which runs all of the site's micro-shards ahead
//     of the federated clock in lockstep and lets the next Advance skip
//     them rather than double-step.
//
// The federation is also installed as the gateway's chaos controller, so
// grid events injected via POST /chaos/inject (or a schedule) drive the
// degraded-mode routing: lost sites answer 503, merges exclude them.
func ForFederation(fed *federation.Federation) *Gateway {
	var shards []ShardConfig
	for _, sh := range fed.Shards() {
		f := sh.F
		shards = append(shards, ShardConfig{
			Site:    sh.Site,
			Cluster: sh.Cluster,
			Config: Config{
				Clock:   f.Clock,
				TB:      f.TB,
				OAR:     f.OAR,
				Ref:     f.Ref,
				Monitor: f.Monitor,
				Bugs:    f.Bugs,
				CI:      f.CI,
				// No per-shard Advance hook: every step — barrier ticks and
				// AdvanceSite alike — reaches the micro-shards through the
				// federation, which locks each via the step gate below.
			},
		})
	}
	gw := NewFederated(shards)
	gw.SetChaos(fed)
	gw.SetAdvance(fed.Advance)
	gw.siteAdvance = fed.StepSite
	fed.SetStepGate(func(site, cluster string, step func()) {
		s := gw.shardFor(site, cluster)
		if s == nil {
			step()
			return
		}
		s.sim.Lock()
		defer s.sim.Unlock()
		start := time.Now()
		step()
		gw.lockHold.record(time.Since(start))
	})
	// Grid admission: unanchored submissions route to the least-loaded live
	// site or queue against freed capacity; the federation's grid listener
	// pumps the queue on every advance and chaos transition so a site outage
	// fails queued reservations fast. The grid-wide peak policy defers
	// whole-cluster demands during working hours.
	policy := sched.DefaultGridPolicy()
	gw.EnableAdmission(admit.Config{Now: fed.Now, Policy: &policy})
	fed.SetGridListener(gw.pumpAdmission)
	return gw
}
