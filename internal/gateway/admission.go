package gateway

// The gateway side of the grid admission layer (internal/admit): each site
// is adapted to an admit.Backend whose probes and placements take the
// site's own route (routeSubmission, then shard.canStart or shard.submit —
// what a POST to /sites/{site}/oar/submit takes), unanchored submissions
// route through the controller instead of failing, and GET /admit/queue
// exposes the queue. The admission pump runs after every Gateway.Advance,
// every POST /chaos/inject and every POST /chaos/heal that healed
// something, so a site outage fails queued reservations fast instead of
// letting them sit out their deadlines.

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/admit"
	"repro/internal/oar"
)

// siteBackend adapts one site to the admission controller's placement
// surface — the site is the admission unit, not its per-cluster
// micro-shards. Capacity reads under the owning shards' read gates, and a
// probe or a placement holds one shard's write gate (shard.canStart,
// shard.submit), so none blocks another shard's barrier ticks.
type siteBackend struct {
	g    *Gateway
	site string
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
	for _, s := range b.g.siteShards[b.site] {
		s.rlocked(func() {
			busy += s.f.OAR.BusyNodes()
			total += s.f.TB.TotalNodes()
		})
	}
	return busy, total
}

// CanPlace answers what a dry run on the site's route would: whether the
// shard the request routes to there could start it now.
func (b *siteBackend) CanPlace(req oar.Request) bool {
	target, pinned, err := b.g.routeSubmission(req, b.site)
	return err == nil && target.canStart(pinned)
}

// Place submits the request on the site's route.
func (b *siteBackend) Place(req oar.Request, user string) (oar.JobInfo, error) {
	if !b.Available() {
		return oar.JobInfo{}, fmt.Errorf("site %s is not accepting submissions", b.site)
	}
	target, pinned, err := b.g.routeSubmission(req, b.site)
	if err != nil {
		return oar.JobInfo{}, err
	}
	return target.submit(pinned, user), nil
}

// Admission returns the admission controller.
func (g *Gateway) Admission() *admit.Controller { return g.admission }

func (g *Gateway) handleAdmitQueue(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, g.admission.Queue())
}

// serveAdmission routes a fully-unanchored submission through the
// admission controller: 201 placed on the least-loaded startable site, 202
// with a reservation when nothing can start it now, 429 + Retry-After when
// the queue is full. Dry runs probe without admitting.
func (g *Gateway) serveAdmission(w http.ResponseWriter, req oar.Request, user string, dryRun bool) {
	if dryRun {
		site, ok := g.admission.Probe(req)
		writeJSON(w, SubmitResponse{Site: site, CanStartNow: &ok})
		return
	}
	out := g.admission.Admit(req, user)
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
