package gateway

// The Reference API endpoints. These are the gateway's hottest reads —
// scripts poll the testbed description constantly — so every one of them
// is a key and a render function handed to serveView (view.go), and the
// keys are built from the stores' monotone version counters:
//
//   - the ETag of /ref/inventory?version=N is "vN"; the current inventory's
//     ETag advances exactly when Store.Update archives a new version;
//   - a conditional request whose ETag still matches returns 304 before any
//     snapshot is materialized or marshaled;
//   - rendered bodies are kept per key — one per route, except a store's
//     archived versions, of which the newest few asked for stay (view.store
//     has the rule and the measurement behind it) — so even non-conditional
//     hot reads marshal each version once.
//
// On a federated gateway the unscoped paths scatter-gather: the ETag joins
// every shard's version counter ("v3.1.7"), a conditional hit answers 304
// without touching any store, and the merged body nests one per-site
// section, each listing its cluster stores (one per micro-shard).
// Archived-version queries (?version=, ?from=, ?to=) are per store by
// nature and live on /sites/{site}/ref/...; the federated paths reject
// them with a pointer there. A micro-sharded site's scoped routes serve a
// joined per-cluster view by default ("sv"/"sd" ETags) and require
// ?cluster=X for archived access, which then has full single-store
// semantics.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/refapi"
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

// refShardsOf filters a shard set down to those carrying a Reference API
// store.
func refShardsOf(shards []*shard) []*shard {
	var out []*shard
	for _, s := range shards {
		if s.cfg.Ref != nil {
			out = append(out, s)
		}
	}
	return out
}

// clusterList renders a site's micro-shard cluster labels for error hints.
func clusterList(shards []*shard) string {
	names := make([]string, len(shards))
	for i, s := range shards {
		names[i] = s.cluster
	}
	return strings.Join(names, ", ")
}

func (g *Gateway) handleRefInventory(w http.ResponseWriter, r *http.Request) {
	g.serveRef(w, r, g.serveShardInventory, g.serveFederatedInventory)
}

func (g *Gateway) handleRefDiff(w http.ResponseWriter, r *http.Request) {
	g.serveRef(w, r, g.serveShardDiff, g.serveFederatedDiff)
}

// serveRef dispatches an unscoped /ref route: a gateway over one store
// serves it with single-store semantics, a federated one the merged view.
func (g *Gateway) serveRef(w http.ResponseWriter, r *http.Request,
	one func(*shard, http.ResponseWriter, *http.Request), merged func([]*shard, http.ResponseWriter, *http.Request)) {
	shards := refShardsOf(g.shards)
	switch len(shards) {
	case 0:
		notConfigured(w, "reference API")
	case 1:
		if g.shardDown(shards[0]) {
			siteUnavailable(w, shards[0].site)
			return
		}
		one(shards[0], w, r)
	default:
		merged(shards, w, r)
	}
}

// downSetKey suffixes a federated cache/ETag key with the lost-site set, so
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
	st := s.cfg.Ref
	var cur int
	s.rlocked(func() { cur = st.VersionCount() })
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

// ClusterInventoryJSON is one store's slice of a site inventory section —
// a whole-site store (Cluster empty) or one cluster micro-shard.
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

// FederatedInventoryJSON is the wire form of GET /ref/inventory on a
// federated gateway: one per-site section per surviving site, in shard
// order.
type FederatedInventoryJSON struct {
	Degraded *DegradedJSON       `json:"degraded,omitempty"`
	Sites    []SiteInventoryJSON `json:"sites"`
}

// joinedVersions snapshots every shard's version counter (each under its
// own gate) and renders the combined ETag payload, e.g. "v3.1.7".
func joinedVersions(shards []*shard) (string, []int) {
	vers := make([]int, len(shards))
	var sb strings.Builder
	sb.WriteByte('v')
	for i, s := range shards {
		s.rlocked(func() { vers[i] = s.cfg.Ref.VersionCount() })
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.Itoa(vers[i]))
	}
	return sb.String(), vers
}

func (g *Gateway) serveFederatedInventory(shards []*shard, w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("version") != "" {
		httpError(w, http.StatusBadRequest,
			"archived versions are per-site; use /sites/{site}/ref/inventory?version=N "+
				"(or time travel with ?at=<simtime seconds> there, and /grid/at?t= for the whole grid)")
		return
	}
	degraded := g.degradedMarker()
	shards = liveShards(shards, degraded)
	key, vers := joinedVersions(shards)
	key += downSetKey(degraded)
	serveView(w, r, &g.fedInv, key, 0, false, func() (string, []byte, error) {
		sites, err := inventorySections(shards, vers, "")
		if err != nil {
			return "", nil, err
		}
		return rendered(key, FederatedInventoryJSON{Degraded: degraded, Sites: sites})
	})
}

// inventorySections renders each shard's store at the version named for it:
// one section per shard site label, in shard order — or, when as is set, a
// single section of that name (a site's joined view over its own shards).
func inventorySections(shards []*shard, vers []int, as string) ([]SiteInventoryJSON, error) {
	out := []SiteInventoryJSON{}
	idxOf := map[string]int{}
	for i, s := range shards {
		var snap *refapi.Snapshot
		s.rlocked(func() { snap = s.cfg.Ref.Version(vers[i]) })
		if snap == nil {
			return nil, fmt.Errorf("site %q cluster %q version %d vanished", s.site, s.cluster, vers[i])
		}
		site := as
		if site == "" {
			site = s.site
		}
		j, ok := idxOf[site]
		if !ok {
			j = len(out)
			idxOf[site] = j
			out = append(out, SiteInventoryJSON{Site: site})
		}
		out[j].Clusters = append(out[j].Clusters,
			ClusterInventoryJSON{Cluster: s.cluster, Version: vers[i], Inventory: snap})
	}
	return out, nil
}

// RefDiffJSON is the wire form of GET /ref/diff.
type RefDiffJSON struct {
	Site        string              `json:"site,omitempty"`    // set in federated sections
	Cluster     string              `json:"cluster,omitempty"` // micro-shard sections
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

// FederatedDiffJSON is the wire form of GET /ref/diff on a federated
// gateway: one per-site section per surviving site, in shard order.
type FederatedDiffJSON struct {
	Degraded *DegradedJSON  `json:"degraded,omitempty"`
	Count    int            `json:"count"`
	Sites    []SiteDiffJSON `json:"sites"`
}

func (g *Gateway) serveShardDiff(s *shard, w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Ref
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
		diffs, err := s.diffSlice(from, to)
		if err != nil {
			return "", nil, err
		}
		return rendered(key, RefDiffJSON{From: from, To: to, Count: len(diffs), Differences: diffs})
	})
}

// diffSlice computes the differences between two archived versions under
// the shard gate.
func (s *shard) diffSlice(from, to int) ([]refapi.Difference, error) {
	var a, b *refapi.Snapshot
	s.rlocked(func() { a, b = s.cfg.Ref.Version(from), s.cfg.Ref.Version(to) })
	if a == nil || b == nil {
		return nil, fmt.Errorf("version range %d..%d vanished", from, to)
	}
	diffs := refapi.DiffSnapshots(a, b)
	if diffs == nil {
		diffs = []refapi.Difference{}
	}
	return diffs, nil
}

func (g *Gateway) serveFederatedDiff(shards []*shard, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("from") != "" || q.Get("to") != "" {
		httpError(w, http.StatusBadRequest,
			"version ranges are per-site; use /sites/{site}/ref/diff?from=&to=")
		return
	}
	degraded := g.degradedMarker()
	shards = liveShards(shards, degraded)
	key, vers := joinedVersions(shards)
	key = "d" + key + downSetKey(degraded)
	serveView(w, r, &g.fedDiff, key, 0, false, func() (string, []byte, error) {
		out := FederatedDiffJSON{Degraded: degraded}
		var err error
		if out.Sites, err = diffSections(shards, vers, ""); err != nil {
			return "", nil, err
		}
		for _, site := range out.Sites {
			out.Count += site.Count
		}
		return rendered(key, out)
	})
}

// diffSections renders each shard's latest-step diff at the version named
// for it, sectioned like inventorySections.
func diffSections(shards []*shard, vers []int, as string) ([]SiteDiffJSON, error) {
	out := []SiteDiffJSON{}
	idxOf := map[string]int{}
	for i, s := range shards {
		to := vers[i]
		from := max(to-1, 1)
		diffs, err := s.diffSlice(from, to)
		if err != nil {
			return nil, err
		}
		site := as
		if site == "" {
			site = s.site
		}
		j, ok := idxOf[site]
		if !ok {
			j = len(out)
			idxOf[site] = j
			out = append(out, SiteDiffJSON{Site: site})
		}
		out[j].Clusters = append(out[j].Clusters,
			RefDiffJSON{Cluster: s.cluster, From: from, To: to, Count: len(diffs), Differences: diffs})
		out[j].Count += len(diffs)
	}
	return out, nil
}

// ---- site-scoped views over micro-shards ------------------------------------

// siteViews holds the joined /sites/{site}/ref bodies of one site.
type siteViews struct{ inv, diff view }

// serveSiteRef dispatches a /sites/{site}/ref route. A site with a single
// store keeps full single-store semantics on the bare path (one). A
// micro-sharded site serves a joined per-cluster view by default (joined)
// and requires ?cluster=X for the parameters in perStore — archived access,
// which then has full single-store semantics against that cluster's store.
func (g *Gateway) serveSiteRef(w http.ResponseWriter, r *http.Request, site, what string, perStore []string,
	one func(*shard, http.ResponseWriter, *http.Request), joined func([]*shard)) {
	shards := refShardsOf(g.siteShards[site])
	if len(shards) == 0 {
		notConfigured(w, "reference API")
		return
	}
	if len(shards) == 1 {
		one(shards[0], w, r)
		return
	}
	q := r.URL.Query()
	if cl := q.Get("cluster"); cl != "" {
		for _, s := range shards {
			if s.cluster == cl {
				one(s, w, r)
				return
			}
		}
		httpError(w, http.StatusNotFound, fmt.Sprintf("no cluster %q at site %q", cl, site))
		return
	}
	for _, param := range perStore {
		if q.Get(param) != "" {
			httpError(w, http.StatusBadRequest, fmt.Sprintf(
				"site %q is micro-sharded and %s per cluster store; add ?cluster=X (one of: %s)",
				site, what, clusterList(shards)))
			return
		}
	}
	joined(shards)
}

// serveSiteInventory implements /sites/{site}/ref/inventory; the joined
// view's ETag is "sv3.1.7" over the site's stores' version counters.
func (g *Gateway) serveSiteInventory(w http.ResponseWriter, r *http.Request, site string) {
	g.serveSiteRef(w, r, site, "archives are", []string{"version", "at"}, g.serveShardInventory, func(shards []*shard) {
		key, vers := joinedVersions(shards)
		key = "s" + key
		serveView(w, r, &g.siteRef[site].inv, key, 0, false, func() (string, []byte, error) {
			sections, err := inventorySections(shards, vers, site)
			if err != nil {
				return "", nil, err
			}
			return rendered(key, sections[0])
		})
	})
}

// serveSiteDiff implements /sites/{site}/ref/diff; the joined view is each
// store's latest step ("sd"-prefixed ETag).
func (g *Gateway) serveSiteDiff(w http.ResponseWriter, r *http.Request, site string) {
	g.serveSiteRef(w, r, site, "version ranges are", []string{"from", "to"}, g.serveShardDiff, func(shards []*shard) {
		key, vers := joinedVersions(shards)
		key = "sd" + key
		serveView(w, r, &g.siteRef[site].diff, key, 0, false, func() (string, []byte, error) {
			sections, err := diffSections(shards, vers, site)
			if err != nil {
				return "", nil, err
			}
			return rendered(key, sections[0])
		})
	})
}
