package gateway

// The site-scale chaos surface: /chaos admin endpoints drive grid events
// (site outages, WAN partitions, rolling maintenance) live against the
// served campaign, and the availability queries below are what every
// scatter-gather handler consults to keep serving during a disaster —
// merged views exclude lost shards and carry a degraded marker, site-scoped
// routes for a lost site answer 503 with Retry-After instead of hanging on
// a frozen shard.

import (
	"net/http"
	"strconv"

	"repro/internal/faults"
	"repro/internal/simclock"
)

// ChaosController is the federation-side surface the gateway's degraded-mode
// routing and /chaos endpoints consume. *federation.Federation implements
// it, and ForFederation installs it.
type ChaosController interface {
	// SiteAvailable reports whether the site's routes should serve (false
	// while an outage or maintenance window has the site down).
	SiteAvailable(site string) bool
	// LostSites lists the sites currently frozen by an outage or
	// maintenance window, and those isolated from the merge plane by a WAN
	// partition (and not also down), each in shard order — both from one
	// reading of the grid, so an event that moves a site between the lists
	// cannot make it vanish from both.
	LostSites() (down, unreachable []string)
	// InjectGrid injects a grid event at the current federated clock.
	InjectGrid(kind faults.GridKind, sites []string, window, duration simclock.Time) (faults.GridEvent, error)
	// HealGrid heals an active event now.
	HealGrid(id int) (faults.GridEvent, error)
	// ActiveGridEvents returns the active events sorted by ID.
	ActiveGridEvents() []faults.GridEvent
	// GridHistory returns every event ever injected, in injection order.
	GridHistory() []faults.GridEvent
}

// siteAvailable reports whether the named site's routes should serve: false
// while a grid event has it down.
func (g *Gateway) siteAvailable(site string) bool {
	return g.chaos.SiteAvailable(site)
}

// DegradedJSON marks a merged response assembled while part of the grid was
// lost: which sites still contributed, and which were excluded and why.
type DegradedJSON struct {
	SurvivingSites   []string `json:"surviving_sites"`
	DownSites        []string `json:"down_sites,omitempty"`
	UnreachableSites []string `json:"unreachable_sites,omitempty"`
}

// degradedMarker returns the marker for merged responses, or nil while the
// grid is healthy (so healthy wire shapes are byte-identical to the
// pre-chaos gateway).
func (g *Gateway) degradedMarker() *DegradedJSON {
	down, unreachable := g.chaos.LostSites()
	if len(down) == 0 && len(unreachable) == 0 {
		return nil
	}
	marker := &DegradedJSON{DownSites: down, UnreachableSites: unreachable}
	cut := excludedSites(marker)
	for _, site := range g.sites {
		if !cut[site] {
			marker.SurvivingSites = append(marker.SurvivingSites, site)
		}
	}
	return marker
}

// excludedSites folds a degraded marker into the set of lost site labels
// (nil while the grid is healthy).
func excludedSites(d *DegradedJSON) map[string]bool {
	if d == nil {
		return nil
	}
	cut := make(map[string]bool, len(d.DownSites)+len(d.UnreachableSites))
	for _, s := range d.DownSites {
		cut[s] = true
	}
	for _, s := range d.UnreachableSites {
		cut[s] = true
	}
	return cut
}

// liveShards drops the shards of the sites the marker names as lost. Down
// sites are frozen; unreachable (partitioned) ones keep serving their
// site-scoped routes, but merged views must not show state the merge plane
// cannot reach. Filtering by the marker the response will carry — not by a
// second look at the controller — is what makes one request see one grid
// state: an outage landing mid-request can no longer yield a body that
// omits a site yet carries no marker and no "|down:" key.
func liveShards(in []*shard, d *DegradedJSON) []*shard {
	cut := excludedSites(d)
	if len(cut) == 0 {
		return in
	}
	out := make([]*shard, 0, len(in))
	for _, s := range in {
		if !cut[s.site] {
			out = append(out, s)
		}
	}
	return out
}

// siteUnavailable answers for a route whose site is lost: 503 with a
// Retry-After hint.
func siteUnavailable(w http.ResponseWriter, site string) {
	w.Header().Set("Retry-After", "60")
	httpError(w, http.StatusServiceUnavailable, "site "+site+" is down")
}

// ---- /chaos endpoints -------------------------------------------------------

// GridEventJSON is the wire form of one grid event.
type GridEventJSON struct {
	ID            int      `json:"id"`
	Kind          string   `json:"kind"`
	Sites         []string `json:"sites"`
	Signature     string   `json:"signature"`
	InjectedAtSec float64  `json:"injected_at_sec"`
	WindowSec     float64  `json:"window_sec,omitempty"`
	Healed        bool     `json:"healed,omitempty"`
	HealedAtSec   float64  `json:"healed_at_sec,omitempty"`
}

func gridEventJSON(e faults.GridEvent) GridEventJSON {
	return GridEventJSON{
		ID:            e.ID,
		Kind:          string(e.Kind),
		Sites:         e.Sites,
		Signature:     e.Signature(),
		InjectedAtSec: e.InjectedAt.Seconds(),
		WindowSec:     e.Window.Seconds(),
		Healed:        e.Healed,
		HealedAtSec:   e.HealedAt.Seconds(),
	}
}

func gridEventsJSON(events []faults.GridEvent) []GridEventJSON {
	out := make([]GridEventJSON, len(events))
	for i, e := range events {
		out[i] = gridEventJSON(e)
	}
	return out
}

// ChaosJSON is the wire form of GET /chaos.
type ChaosJSON struct {
	Degraded         bool            `json:"degraded"`
	DownSites        []string        `json:"down_sites"`
	UnreachableSites []string        `json:"unreachable_sites"`
	Active           []GridEventJSON `json:"active"`
	History          []GridEventJSON `json:"history"`
}

func (g *Gateway) handleChaos(w http.ResponseWriter, r *http.Request) {
	out := ChaosJSON{
		Active:  gridEventsJSON(g.chaos.ActiveGridEvents()),
		History: gridEventsJSON(g.chaos.GridHistory()),
	}
	out.DownSites, out.UnreachableSites = g.chaos.LostSites()
	out.Degraded = len(out.DownSites)+len(out.UnreachableSites) > 0
	if out.DownSites == nil {
		out.DownSites = []string{}
	}
	if out.UnreachableSites == nil {
		out.UnreachableSites = []string{}
	}
	writeJSON(w, out)
}

// ChaosInjectRequest is the body of POST /chaos/inject.
type ChaosInjectRequest struct {
	// Kind accepts the canonical signatures (site-outage, wan-partition,
	// rolling-maintenance) and the schedule-string aliases (outage,
	// partition, maintenance).
	Kind  string   `json:"kind"`
	Sites []string `json:"sites"`
	// WindowSec is the per-site maintenance window (0 = one federation
	// barrier). Only rolling maintenance takes it: any other kind with a
	// nonzero window answers 400.
	WindowSec float64 `json:"window_sec,omitempty"`
	// DurationSec schedules the heal that many simulated seconds later (0 =
	// heal manually via /chaos/heal). Only outages and partitions take it:
	// rolling maintenance with a nonzero duration answers 400.
	DurationSec float64 `json:"duration_sec,omitempty"`
}

func (g *Gateway) handleChaosInject(w http.ResponseWriter, r *http.Request) {
	var req ChaosInjectRequest
	if !decodeBody(w, r, &req) {
		return
	}
	kind, ok := faults.ParseGridKind(req.Kind)
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown kind "+strconv.Quote(req.Kind))
		return
	}
	if req.WindowSec < 0 || req.DurationSec < 0 {
		httpError(w, http.StatusBadRequest, "window_sec and duration_sec must be >= 0")
		return
	}
	ev, err := g.chaos.InjectGrid(kind, req.Sites, secondsToSim(req.WindowSec), secondsToSim(req.DurationSec))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	g.admission.Pump()
	writeJSONStatus(w, http.StatusCreated, gridEventJSON(ev))
}

// ChaosHealRequest is the body of POST /chaos/heal: one event by ID, or
// every active event at once.
type ChaosHealRequest struct {
	ID  int  `json:"id,omitempty"`
	All bool `json:"all,omitempty"`
}

// ChaosHealResponse is the reply of POST /chaos/heal.
type ChaosHealResponse struct {
	Healed []GridEventJSON `json:"healed"`
}

func (g *Gateway) handleChaosHeal(w http.ResponseWriter, r *http.Request) {
	var req ChaosHealRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var healed []faults.GridEvent
	switch {
	case req.All:
		for _, e := range g.chaos.ActiveGridEvents() {
			// An event that closed since it was listed (its scheduled heal
			// fired on a live step, another operator got there first) is
			// what was asked for: skip it.
			if h, err := g.chaos.HealGrid(e.ID); err == nil {
				healed = append(healed, h)
			}
		}
	case req.ID > 0:
		h, err := g.chaos.HealGrid(req.ID)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		healed = append(healed, h)
	default:
		httpError(w, http.StatusBadRequest, `want {"id": N} or {"all": true}`)
		return
	}
	if len(healed) > 0 {
		g.admission.Pump()
	}
	writeJSON(w, ChaosHealResponse{Healed: gridEventsJSON(healed)})
}
