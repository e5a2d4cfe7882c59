package gateway

// Assembly over a federated campaign. Kept in its own file so the
// federation dependency stays out of the core gateway machinery.

import (
	"repro/internal/admit"
	"repro/internal/federation"
	"repro/internal/sched"
)

// ForFederation mounts one gateway shard per federation micro-shard: each
// cluster's OAR, Reference API store, monitor, bug tracker and CI server
// is served behind that micro-shard's own lock, labeled with the owning
// site. Time has one driver, the federation's barrier engine:
// Gateway.Advance is Federation.Advance, and every micro-shard step that
// makes comes back through the step gate below to run under the owning
// gateway shard's write lock — so downed sites freeze all of their
// micro-shards, heals replay catch-up ticks, and reads against shards that
// are not mid-step keep flowing throughout.
//
// The federation is also installed as the gateway's chaos controller, so
// grid events injected via POST /chaos/inject (or a schedule) drive the
// degraded-mode routing: lost sites answer 503, merges exclude them.
func ForFederation(fed *federation.Federation) *Gateway {
	shards := make([]*shard, len(fed.Shards()))
	for i, sh := range fed.Shards() {
		shards[i] = &shard{site: sh.Site, cluster: sh.Cluster, f: sh.F}
	}
	gw := assemble(shards)
	gw.chaos = fed
	gw.now = fed.Now
	// Federation.Advance fires the grid listener on return, which pumps the
	// admission queue.
	gw.advance = fed.Advance
	fed.SetStepGate(func(site, cluster string, step func()) {
		gw.shardFor(site, cluster).step(&gw.lockHold, step)
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
