package gateway

// The Reference API endpoints. These are the gateway's hottest reads —
// scripts poll the testbed description constantly — so every one of them
// is a key and a render function handed to serveView (view.go), and the
// keys are built from the stores' version counters, which only grow:
//
//   - the ETag of one store's inventory at ?version=N is "vN"; its current
//     inventory's ETag advances exactly when Store.Update archives a new
//     version;
//   - a conditional request whose ETag still matches returns 304 before any
//     snapshot is materialized or marshaled;
//   - rendered bodies are kept per key — one per route, except a store's
//     archived versions, of which the newest few asked for stay (view.store
//     has the rule and the measurement behind it) — so even non-conditional
//     hot reads marshal each version once.
//
// A /ref body answers one of two questions. What one store held at any
// archived version (serveShardInventory, serveShardDiff): ?cluster=X on a
// site's scoped paths. Or where every store stands now (serveVector): the
// unscoped paths and a site's scoped ones read the current version vector
// of an intel.GridArchive — the gateway's whole one, or the site's own —
// whose key is the ETag ("v3.1.7"; "sv…", "dv…", "sdv…" for the other
// three), so a conditional hit answers 304 without touching any snapshot,
// and whose Materialize / DiffVector give the sections, nested per site,
// one entry per cluster store. Archived-version queries (?version=, ?at=,
// ?from=, ?to=) are per store by nature: the vector paths reject them with
// a pointer to /sites/{site}/ref/... and ?cluster=X.

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/intel"
	"repro/internal/refapi"
	"repro/internal/simclock"
)

// parseVersion reads a 1-based version query parameter; 0 means "not
// given".
func parseVersion(r *http.Request, key string) (int, error) {
	q := r.URL.Query().Get(key)
	if q == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("bad %s %q", key, q)
	}
	return v, nil
}

// clusterList renders a site's micro-shard cluster labels for error hints.
func clusterList(shards []*shard) string {
	names := make([]string, len(shards))
	for i, s := range shards {
		names[i] = s.cluster
	}
	return strings.Join(names, ", ")
}

// downSetKey suffixes a merged view's cache/ETag key with the lost-site set, so
// a degraded merge never serves (or matches a conditional request against)
// a body rendered while the grid was whole, and vice versa.
func downSetKey(d *DegradedJSON) string {
	if d == nil {
		return ""
	}
	lost := append(append([]string(nil), d.DownSites...), d.UnreachableSites...)
	return "|down:" + strings.Join(lost, "+")
}

// serveShardInventory is the single-store path: full ?version= archive
// access with per-version ETags, plus ?at= time travel (the version that
// was current at a sim-time, resolved by one binary search — same ETag and
// cache identity as asking for that version by number).
func (g *Gateway) serveShardInventory(s *shard, w http.ResponseWriter, r *http.Request) {
	st := s.f.Ref
	ver, err := parseVersion(r, "version")
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if atQ := r.URL.Query().Get("at"); atQ != "" {
		if ver != 0 {
			httpError(w, http.StatusBadRequest, "pick one of ?version= and ?at=")
			return
		}
		sec, err := floatParam(atQ, 0)
		if err != nil || sec < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad at %q (simtime seconds)", atQ))
			return
		}
		var ok bool
		s.rlocked(func() { ver, ok = st.VersionAt(secondsToSim(sec)) })
		if !ok {
			httpError(w, http.StatusNotFound,
				fmt.Sprintf("no capture at or before t=%ss (the first capture postdates it)", atQ))
			return
		}
	}
	// Read last: versions only grow, so one VersionAt resolved is never
	// above it, however many steps land in between.
	var cur int
	s.rlocked(func() { cur = st.VersionCount() })
	if ver == 0 {
		ver = cur
	}
	if ver > cur {
		httpError(w, http.StatusNotFound, fmt.Sprintf("version %d not archived (latest is %d)", ver, cur))
		return
	}
	key := "v" + strconv.Itoa(ver)
	// Archived versions are immutable: let clients cache them hard.
	serveView(w, r, &s.inv, key, ver, ver < cur, func() (string, []byte, error) {
		var snap *refapi.Snapshot
		s.rlocked(func() { snap = st.Version(ver) })
		if snap == nil {
			return "", nil, fmt.Errorf("version %d vanished", ver)
		}
		body, err := snap.MarshalJSONIndent()
		return key, body, err
	})
}

// ClusterInventoryJSON is one cluster store's slice of a site inventory
// section.
type ClusterInventoryJSON struct {
	Cluster   string           `json:"cluster,omitempty"`
	Version   int              `json:"version"`
	Inventory *refapi.Snapshot `json:"inventory"`
}

// SiteInventoryJSON is one site's section of a federated (or joined
// site-scoped) inventory: its stores in cluster order.
type SiteInventoryJSON struct {
	Site     string                 `json:"site"`
	Clusters []ClusterInventoryJSON `json:"clusters"`
}

// FederatedInventoryJSON is the wire form of GET /ref/inventory: one
// per-site section per surviving site, in shard order.
type FederatedInventoryJSON struct {
	Degraded *DegradedJSON       `json:"degraded,omitempty"`
	Sites    []SiteInventoryJSON `json:"sites"`
}

// latest is past every capture: the archive's version vector at it names
// each store's current version.
const latest = simclock.Time(math.MaxInt64)

// serveVector is the one path of the four merged /ref views: arc's current
// version vector over the surviving sites, behind prefix, is the key, and
// body renders the answer from exactly the versions it names.
func serveVector(w http.ResponseWriter, r *http.Request, cache *view, arc *intel.GridArchive, prefix string,
	degraded *DegradedJSON, body func(vec []intel.SiteVersion) (any, error)) {
	vec := arc.VersionVector(latest, excludedSites(degraded))
	key := prefix + intel.VersionKey(vec) + downSetKey(degraded)
	serveView(w, r, cache, key, 0, false, func() (string, []byte, error) {
		v, err := body(vec)
		if err != nil {
			return "", nil, err
		}
		return rendered(key, v)
	})
}

func (g *Gateway) handleRefInventory(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("version") != "" {
		httpError(w, http.StatusBadRequest,
			"archived versions are per-site; use /sites/{site}/ref/inventory?version=N "+
				"(or time travel with ?at=<simtime seconds> there, and /grid/at?t= for the whole grid)")
		return
	}
	degraded := g.degradedMarker()
	serveVector(w, r, &g.fedInv, g.archive, "v", degraded, func(vec []intel.SiteVersion) (any, error) {
		sites, err := inventorySites(g.archive, vec)
		return FederatedInventoryJSON{Degraded: degraded, Sites: sites}, err
	})
}

// vanished is the error of a vector naming a version its archive cannot
// produce (versions are never dropped, so only a bug gets here).
func vanished(vec []intel.SiteVersion) error {
	return fmt.Errorf("version vector %s names a version that vanished", intel.VersionKey(vec))
}

// inventorySites materializes the vector: one section per site, in archive
// order (site-grouped), each listing its stores at the versions named. A
// version the archive cannot produce is an error, never a shorter body.
func inventorySites(arc *intel.GridArchive, vec []intel.SiteVersion) ([]SiteInventoryJSON, error) {
	snap := arc.Materialize(vec)
	if len(snap.Sites) != len(vec) {
		return nil, vanished(vec)
	}
	out := []SiteInventoryJSON{}
	for _, sc := range snap.Sites {
		if n := len(out); n == 0 || out[n-1].Site != sc.Site {
			out = append(out, SiteInventoryJSON{Site: sc.Site})
		}
		site := &out[len(out)-1]
		site.Clusters = append(site.Clusters,
			ClusterInventoryJSON{Cluster: sc.Cluster, Version: sc.Version, Inventory: sc.Snapshot})
	}
	return out, nil
}

// RefDiffJSON is one store's diff: the wire form of a ?cluster=X
// /sites/{site}/ref/diff, and one entry of a site's section.
type RefDiffJSON struct {
	Cluster     string              `json:"cluster,omitempty"` // set in sections
	From        int                 `json:"from"`
	To          int                 `json:"to"`
	Count       int                 `json:"count"`
	Differences []refapi.Difference `json:"differences"`
}

// SiteDiffJSON is one site's section of a federated (or joined
// site-scoped) diff: each store's latest-step diff, in cluster order.
type SiteDiffJSON struct {
	Site     string        `json:"site"`
	Count    int           `json:"count"`
	Clusters []RefDiffJSON `json:"clusters"`
}

// FederatedDiffJSON is the wire form of GET /ref/diff: one per-site
// section per surviving site, in shard order.
type FederatedDiffJSON struct {
	Degraded *DegradedJSON  `json:"degraded,omitempty"`
	Count    int            `json:"count"`
	Sites    []SiteDiffJSON `json:"sites"`
}

func (g *Gateway) serveShardDiff(s *shard, w http.ResponseWriter, r *http.Request) {
	st := s.f.Ref
	var cur int
	s.rlocked(func() { cur = st.VersionCount() })
	from, err := parseVersion(r, "from")
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	to, err := parseVersion(r, "to")
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if to == 0 {
		to = cur
	}
	if from == 0 {
		// Default: what changed in the latest version.
		from = to - 1
		if from < 1 {
			from = 1
		}
	}
	if from > cur || to > cur {
		httpError(w, http.StatusNotFound, fmt.Sprintf("version range %d..%d exceeds latest %d", from, to, cur))
		return
	}
	if from > to {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("from %d > to %d", from, to))
		return
	}
	// A single body suffices: traffic overwhelmingly asks for the same
	// (latest-1, latest) pair until the store moves on.
	key := fmt.Sprintf("v%d-v%d", from, to)
	serveView(w, r, &s.diff, key, 0, to < cur, func() (string, []byte, error) {
		var a, b *refapi.Snapshot
		s.rlocked(func() { a, b = st.Version(from), st.Version(to) })
		if a == nil || b == nil {
			return "", nil, fmt.Errorf("version range %d..%d vanished", from, to)
		}
		diffs := refapi.DiffSnapshots(a, b)
		if diffs == nil {
			diffs = []refapi.Difference{}
		}
		return rendered(key, RefDiffJSON{From: from, To: to, Count: len(diffs), Differences: diffs})
	})
}

func (g *Gateway) handleRefDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("from") != "" || q.Get("to") != "" {
		httpError(w, http.StatusBadRequest,
			"version ranges are per-site; use /sites/{site}/ref/diff?from=&to=")
		return
	}
	degraded := g.degradedMarker()
	serveVector(w, r, &g.fedDiff, g.archive, "dv", degraded, func(vec []intel.SiteVersion) (any, error) {
		out := FederatedDiffJSON{Degraded: degraded}
		var err error
		out.Sites, err = diffSites(g.archive, vec)
		for _, site := range out.Sites {
			out.Count += site.Count
		}
		return out, err
	})
}

// diffSites renders each store's latest step — the version before the one
// the vector names (or the first, against itself) to it — sectioned like
// inventorySites, and as strict about a version the archive lost.
func diffSites(arc *intel.GridArchive, vec []intel.SiteVersion) ([]SiteDiffJSON, error) {
	from := make([]intel.SiteVersion, len(vec))
	for i, sv := range vec {
		sv.Version = max(sv.Version-1, 1)
		from[i] = sv
	}
	diff := arc.DiffVector(from, vec)
	if len(diff.Sites) != len(vec) {
		return nil, vanished(vec)
	}
	out := []SiteDiffJSON{}
	for i, sd := range diff.Sites {
		if sd.FromVersion != from[i].Version || sd.ToVersion != vec[i].Version {
			return nil, vanished(vec)
		}
		if n := len(out); n == 0 || out[n-1].Site != sd.Site {
			out = append(out, SiteDiffJSON{Site: sd.Site})
		}
		site := &out[len(out)-1]
		site.Clusters = append(site.Clusters, RefDiffJSON{Cluster: sd.Cluster, From: sd.FromVersion, To: sd.ToVersion,
			Count: len(sd.Differences), Differences: sd.Differences})
		site.Count += len(sd.Differences)
	}
	return out, nil
}

// ---- site-scoped views ------------------------------------------------------

// siteViews holds one site's own archive — its stores in cluster order —
// and the joined /sites/{site}/ref bodies rendered from it.
type siteViews struct {
	archive   *intel.GridArchive
	inv, diff view
}

// serveSiteRef dispatches a /sites/{site}/ref route. A site serves the
// joined per-cluster view by default (joined), whether it has one cluster
// or seven, and requires ?cluster=X for the parameters in perStore —
// archived access, which then has full single-store semantics against that
// cluster's store (one).
func (g *Gateway) serveSiteRef(w http.ResponseWriter, r *http.Request, site, what string, perStore []string,
	one func(*shard, http.ResponseWriter, *http.Request), joined func(*siteViews)) {
	q := r.URL.Query()
	if cl := q.Get("cluster"); cl != "" {
		if s := g.shardFor(site, cl); s != nil {
			one(s, w, r)
			return
		}
		httpError(w, http.StatusNotFound, fmt.Sprintf("no cluster %q at site %q", cl, site))
		return
	}
	for _, param := range perStore {
		if q.Get(param) != "" {
			httpError(w, http.StatusBadRequest, fmt.Sprintf(
				"site %q is micro-sharded and %s per cluster store; add ?cluster=X (one of: %s)",
				site, what, clusterList(g.siteShards[site])))
			return
		}
	}
	joined(g.siteRef[site])
}

// serveSiteInventory implements /sites/{site}/ref/inventory; the joined
// view's ETag is "sv3.1.7" over the site's stores' version counters.
func (g *Gateway) serveSiteInventory(w http.ResponseWriter, r *http.Request, site string) {
	g.serveSiteRef(w, r, site, "archives are", []string{"version", "at"}, g.serveShardInventory, func(sv *siteViews) {
		serveVector(w, r, &sv.inv, sv.archive, "sv", nil, func(vec []intel.SiteVersion) (any, error) {
			sites, err := inventorySites(sv.archive, vec)
			if err != nil {
				return nil, err
			}
			return sites[0], nil
		})
	})
}

// serveSiteDiff implements /sites/{site}/ref/diff; the joined view is each
// store's latest step ("sdv"-prefixed ETag).
func (g *Gateway) serveSiteDiff(w http.ResponseWriter, r *http.Request, site string) {
	g.serveSiteRef(w, r, site, "version ranges are", []string{"from", "to"}, g.serveShardDiff, func(sv *siteViews) {
		serveVector(w, r, &sv.diff, sv.archive, "sdv", nil, func(vec []intel.SiteVersion) (any, error) {
			sites, err := diffSites(sv.archive, vec)
			if err != nil {
				return nil, err
			}
			return sites[0], nil
		})
	})
}
