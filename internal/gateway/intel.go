package gateway

// The grid intelligence endpoints (internal/intel wired to HTTP):
//
//	GET /grid/at?t=S          grid inventory as of sim-time S
//	GET /grid/diff?from=&to=  what changed anywhere between two instants
//	GET /incidents[?at=S]     cross-site incident rollup (live or as-of)
//	GET /reliability/trend    fleet reliability confidence bands
//
// All four follow the /ref conditional-request discipline through the same
// serveView (view.go): the ETag is a strong composite key (archive version
// vector, tracker version vector, or trend version) computed without
// materializing anything, a matching If-None-Match short-cuts to 304, and
// the rendered body is kept under that same key, one per route. The key and
// the body are pinned to each other — vector reads happen under the shard
// gates, bodies are materialized from the exact versions the key names
// (GridArchive.Materialize / DiffVector, intel.TrackerSnapshot) — so a body
// can never be newer than its ETag even while a campaign advances
// mid-request. Degraded mode composes the same way as /ref: lost sites drop
// out of the vector and the key carries the down-set suffix, so a degraded
// body never answers a whole-grid conditional request.

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/bugs"
	"repro/internal/intel"
	"repro/internal/refapi"
	"repro/internal/wire"
)

// liveTrackers filters the assembled tracker sources down to the surviving
// sites.
func (g *Gateway) liveTrackers(exclude map[string]bool) []intel.SiteTracker {
	if len(exclude) == 0 {
		return g.trackers
	}
	out := make([]intel.SiteTracker, 0, len(g.trackers))
	for _, t := range g.trackers {
		if !exclude[t.Site] {
			out = append(out, t)
		}
	}
	return out
}

// allZero reports whether no site in the vector had a capture yet.
func allZero(vec []intel.SiteVersion) bool {
	for _, sv := range vec {
		if sv.Version != 0 {
			return false
		}
	}
	return true
}

// ---- GET /grid/at -----------------------------------------------------------

// GridSiteJSON is one store's slice of a GET /grid/at answer: one cluster
// micro-shard of a site.
type GridSiteJSON struct {
	Site       string           `json:"site"`
	Cluster    string           `json:"cluster,omitempty"`
	Version    int              `json:"version"`
	TakenAtSec float64          `json:"taken_at_sec"`
	Inventory  *refapi.Snapshot `json:"inventory"`
}

// GridAtJSON is the wire form of GET /grid/at. It deliberately does not
// echo the query's t: the body derives only from the version vector (plus
// the degraded marker), so every t that resolves to the same vector shares
// one ETag and one cached body. AsOfSec — the latest capture among the
// included sites — is the instant the view actually reflects.
type GridAtJSON struct {
	Degraded *DegradedJSON  `json:"degraded,omitempty"`
	AsOfSec  float64        `json:"as_of_sec"`
	Sites    []GridSiteJSON `json:"sites"`
}

func (g *Gateway) handleGridAt(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("t")
	if q == "" {
		httpError(w, http.StatusBadRequest, "missing t: GET /grid/at?t=<simtime seconds>")
		return
	}
	sec, err := floatParam(q, 0)
	if err != nil || sec < 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad t %q (simtime seconds)", q))
		return
	}
	degraded := g.degradedMarker()
	vec := g.archive.VersionVector(secondsToSim(sec), excludedSites(degraded))
	if len(vec) == 0 {
		w.Header().Set("Retry-After", "60")
		httpError(w, http.StatusServiceUnavailable, "every archived site is down")
		return
	}
	if allZero(vec) {
		httpError(w, http.StatusNotFound,
			fmt.Sprintf("no site had a capture at or before t=%ss", q))
		return
	}
	key := "ga" + intel.VersionKey(vec) + downSetKey(degraded)
	serveView(w, r, &g.gridAt, key, 0, false, func() (string, []byte, error) {
		snap := g.archive.Materialize(vec)
		out := GridAtJSON{
			Degraded: degraded,
			AsOfSec:  snap.AsOf.Seconds(),
			Sites:    make([]GridSiteJSON, 0, len(snap.Sites)),
		}
		for _, sc := range snap.Sites {
			out.Sites = append(out.Sites, GridSiteJSON{
				Site:       sc.Site,
				Cluster:    sc.Cluster,
				Version:    sc.Version,
				TakenAtSec: sc.TakenAt.Seconds(),
				Inventory:  sc.Snapshot,
			})
		}
		return rendered(key, out)
	})
}

// ---- GET /grid/diff ---------------------------------------------------------

// GridDiffSiteJSON is one store's section of a GET /grid/diff answer.
// FromVersion 0 means the store had no capture at the earlier instant: its
// differences read as "missing → present".
type GridDiffSiteJSON struct {
	Site        string              `json:"site"`
	Cluster     string              `json:"cluster,omitempty"`
	FromVersion int                 `json:"from_version"`
	ToVersion   int                 `json:"to_version"`
	Differences []refapi.Difference `json:"differences"`
}

// GridDiffJSON is the wire form of GET /grid/diff.
type GridDiffJSON struct {
	Degraded *DegradedJSON      `json:"degraded,omitempty"`
	Count    int                `json:"count"`
	Sites    []GridDiffSiteJSON `json:"sites"`
}

func (g *Gateway) handleGridDiff(w http.ResponseWriter, r *http.Request) {
	fromQ, toQ := r.URL.Query().Get("from"), r.URL.Query().Get("to")
	if fromQ == "" || toQ == "" {
		httpError(w, http.StatusBadRequest,
			"missing range: GET /grid/diff?from=<simtime seconds>&to=<simtime seconds>")
		return
	}
	fromSec, err := floatParam(fromQ, 0)
	if err != nil || fromSec < 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad from %q (simtime seconds)", fromQ))
		return
	}
	toSec, err := floatParam(toQ, 0)
	if err != nil || toSec < 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad to %q (simtime seconds)", toQ))
		return
	}
	if fromSec > toSec {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("from %ss > to %ss", fromQ, toQ))
		return
	}
	degraded := g.degradedMarker()
	exclude := excludedSites(degraded)
	vecFrom := g.archive.VersionVector(secondsToSim(fromSec), exclude)
	vecTo := g.archive.VersionVector(secondsToSim(toSec), exclude)
	if len(vecTo) == 0 {
		w.Header().Set("Retry-After", "60")
		httpError(w, http.StatusServiceUnavailable, "every archived site is down")
		return
	}
	if allZero(vecTo) {
		httpError(w, http.StatusNotFound,
			fmt.Sprintf("no site had a capture at or before to=%ss", toQ))
		return
	}
	key := "gd" + intel.VersionKey(vecFrom) + "-" + intel.VersionKey(vecTo) + downSetKey(degraded)
	serveView(w, r, &g.gridDiff, key, 0, false, func() (string, []byte, error) {
		diff := g.archive.DiffVector(vecFrom, vecTo)
		out := GridDiffJSON{
			Degraded: degraded,
			Count:    diff.Count,
			Sites:    make([]GridDiffSiteJSON, 0, len(diff.Sites)),
		}
		for _, sd := range diff.Sites {
			out.Sites = append(out.Sites, GridDiffSiteJSON{
				Site:        sd.Site,
				Cluster:     sd.Cluster,
				FromVersion: sd.FromVersion,
				ToVersion:   sd.ToVersion,
				Differences: sd.Differences,
			})
		}
		return rendered(key, out)
	})
}

// ---- GET /incidents ---------------------------------------------------------

// IncidentJSON is one row of GET /incidents.
type IncidentJSON struct {
	Signature    string   `json:"signature"`
	Title        string   `json:"title,omitempty"`
	Family       string   `json:"family,omitempty"`
	Sites        []string `json:"sites"`
	Tickets      int      `json:"tickets"`
	OpenTickets  int      `json:"open_tickets"`
	Occurrences  int      `json:"occurrences"`
	Reopens      int      `json:"reopens"`
	State        string   `json:"state"` // open | closed
	FirstSeenSec float64  `json:"first_seen_sec"`
	LastSeenSec  float64  `json:"last_seen_sec"`
}

// IncidentsJSON is the wire form of GET /incidents. AtSec is present only
// on time-scoped (?at=) queries.
type IncidentsJSON struct {
	Degraded  *DegradedJSON  `json:"degraded,omitempty"`
	AtSec     *float64       `json:"at_sec,omitempty"`
	Count     int            `json:"count"`
	Incidents []IncidentJSON `json:"incidents"`
}

func (g *Gateway) handleIncidents(w http.ResponseWriter, r *http.Request) {
	state, err := parseBugState(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts := intel.CorrelateOptions{At: intel.AtNow, IncludeClosed: state == "all"}
	atLabel := "now"
	var atSec *float64
	if q := r.URL.Query().Get("at"); q != "" {
		sec, err := floatParam(q, 0)
		if err != nil || sec < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad at %q (simtime seconds)", q))
			return
		}
		opts.At = secondsToSim(sec)
		atLabel = strconv.FormatFloat(sec, 'g', -1, 64)
		atSec = &sec
	}
	degraded := g.degradedMarker()
	keyOf := func(snaps []intel.TrackerSnapshot) string {
		return "inc" + intel.VersionKey64(snaps) + "|" + state + "|at:" + atLabel + downSetKey(degraded)
	}
	trackers := g.liveTrackers(excludedSites(degraded))
	serveView(w, r, &g.incidents, keyOf(intel.SnapshotVersions(trackers)), 0, false, func() (string, []byte, error) {
		snaps := intel.SnapshotTrackers(trackers)
		incidents := intel.CorrelateSnapshots(snaps, opts)
		out := IncidentsJSON{
			Degraded:  degraded,
			AtSec:     atSec,
			Count:     len(incidents),
			Incidents: make([]IncidentJSON, 0, len(incidents)),
		}
		for _, in := range incidents {
			st := "closed"
			if in.Open {
				st = "open"
			}
			out.Incidents = append(out.Incidents, IncidentJSON{
				Signature:    in.Signature,
				Title:        in.Title,
				Family:       in.Family,
				Sites:        in.Sites,
				Tickets:      in.Tickets,
				OpenTickets:  in.OpenTickets,
				Occurrences:  in.Occurrences,
				Reopens:      in.Reopens,
				State:        st,
				FirstSeenSec: in.FirstSeen.Seconds(),
				LastSeenSec:  in.LastSeen.Seconds(),
			})
		}
		return rendered(keyOf(snaps), out)
	})
}

// ---- GET /reliability/trend -------------------------------------------------

// SetReliabilityTrend installs a computed fleet reliability trend and
// returns its version (sweeps are expensive — N whole campaigns — so they
// run out-of-band and the gateway only ever serves the stored result).
func (g *Gateway) SetReliabilityTrend(t *intel.Trend) int {
	return g.reliability.Put(t)
}

func (g *Gateway) handleReliabilityTrend(w http.ResponseWriter, r *http.Request) {
	trend, ver := g.reliability.Latest()
	if trend == nil {
		httpError(w, http.StatusNotFound,
			"no reliability trend computed yet; run a fleet sweep (g5ktest -reliability) and install it with SetReliabilityTrend")
		return
	}
	key := "r" + strconv.Itoa(ver)
	serveView(w, r, &g.trend, key, 0, false, func() (string, []byte, error) {
		// Served verbatim: a client decoding this body holds the exact Trend
		// the CLI renders, which is what the shared-renderer equality rests
		// on. The body has always ended with the Encoder's newline.
		body, err := wire.MarshalIndent(trend)
		return key, append(body, '\n'), err
	})
}

// rollupFromSnapshots folds pre-read tracker snapshots into the /bugs/rollup
// accumulator (the snapshot already copied each site's tickets, so no
// further gating is needed).
func rollupFromSnapshots(snaps []intel.TrackerSnapshot, state string) map[string]*bugs.RollupEntry {
	acc := map[string]*bugs.RollupEntry{}
	for i := range snaps {
		tickets := snaps[i].List
		list := make([]*bugs.Bug, 0, len(tickets))
		for k := range tickets {
			if state == "all" || tickets[k].State == bugs.Open {
				list = append(list, &tickets[k])
			}
		}
		bugs.RollupInto(acc, snaps[i].Site, list)
	}
	return acc
}
