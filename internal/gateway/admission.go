package gateway

// The gateway side of the grid admission layer (internal/admit): each OAR
// shard is adapted to an admit.Backend whose probes and placements run
// under the shard's own read gate, unanchored submissions route through the
// controller instead of failing, and GET /admit/queue exposes
// the queue. The admission pump runs after every campaign advance and —
// via the federation's grid listener — after every chaos transition, so a
// site outage fails queued reservations fast instead of letting them sit
// out their deadlines.

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/admit"
	"repro/internal/oar"
)

// siteBackend adapts one site's shard set to the admission controller's
// placement surface — the site is the admission unit, not its per-cluster
// micro-shards. All OAR access happens under the owning
// shard's read gate, so probes never block another shard's barrier ticks.
type siteBackend struct {
	g      *Gateway
	site   string
	shards []*shard
}

func (b *siteBackend) Site() string { return b.site }

// Available reports whether placement may consider the site: down sites
// are out, and so are partition-isolated ones — a job placed on a shard
// the merge plane cannot reach would vanish from every federated view.
func (b *siteBackend) Available() bool {
	down, unreachable := b.g.chaos.LostSites()
	for _, site := range append(down, unreachable...) {
		if site == b.site {
			return false
		}
	}
	return true
}

// Capacity sums over the site's shards — the admission layer balances
// against site-level load, never a single cluster's.
func (b *siteBackend) Capacity() (busy, total int) {
	for _, s := range b.shards {
		s.rlocked(func() {
			busy += s.f.OAR.BusyNodes()
			total += s.f.TB.TotalNodes()
		})
	}
	return busy, total
}

// CanPlace probes the site's shards in cluster order: any one that could
// start the pinned request now admits the site.
func (b *siteBackend) CanPlace(req oar.Request) bool {
	pinned := req.PinnedToSite(b.site)
	for _, s := range b.shards {
		var ok bool
		s.rlocked(func() { ok = s.f.OAR.CanStartNowReq(pinned) })
		if ok {
			return true
		}
	}
	return false
}

// Place submits on the first shard that can start the request now, falling
// back to the coordinator, which queues it.
func (b *siteBackend) Place(req oar.Request, user string) (oar.JobInfo, error) {
	if !b.Available() {
		return oar.JobInfo{}, fmt.Errorf("site %s is not accepting submissions", b.site)
	}
	pinned := req.PinnedToSite(b.site)
	target := pickSiteShard(b.shards, pinned)
	var info oar.JobInfo
	target.rlocked(func() {
		j := target.f.OAR.SubmitReq(pinned, oar.SubmitOptions{User: user})
		info, _ = target.f.OAR.JobInfoByID(j.ID)
	})
	return info, nil
}

// Admission returns the admission controller.
func (g *Gateway) Admission() *admit.Controller { return g.admission }

// pumpAdmission drains what the reservation queue can place right now.
// Wired to every campaign advance and, through the federation's grid
// listener, to every chaos inject/heal.
func (g *Gateway) pumpAdmission() { g.admission.Pump() }

func (g *Gateway) handleAdmitQueue(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, g.admission.Queue())
}

// serveAdmission routes a fully-unanchored submission through the
// admission controller: 201 placed on the least-loaded startable site, 202
// with a reservation when nothing can start it now, 429 + Retry-After when
// the queue is full. Dry runs probe without admitting.
func (g *Gateway) serveAdmission(w http.ResponseWriter, req SubmitRequest, parsed oar.Request) {
	if req.DryRun {
		site, ok := g.admission.Probe(parsed)
		writeJSON(w, SubmitResponse{Site: site, CanStartNow: &ok})
		return
	}
	user := req.User
	if user == "" {
		user = "api"
	}
	out := g.admission.Admit(parsed, user)
	switch out.Status {
	case admit.Placed:
		job := out.Job
		writeJSONStatus(w, http.StatusCreated, SubmitResponse{
			Site: out.Site, Job: &job, Admission: string(admit.Placed),
		})
	case admit.Queued:
		res := out.Reservation
		writeJSONStatus(w, http.StatusAccepted, SubmitResponse{
			Admission: string(admit.Queued), Reservation: &res,
		})
	default: // admit.Shed
		w.Header().Set("Retry-After", strconv.Itoa(out.RetryAfterSec))
		writeJSONStatus(w, http.StatusTooManyRequests, SubmitResponse{
			Admission: string(admit.Shed), RetryAfterSec: out.RetryAfterSec,
		})
	}
}
