package gateway

// The Reference API endpoints. These are the gateway's hottest reads —
// scripts poll the testbed description constantly — so both are built
// around the store's monotone version counter:
//
//   - the ETag of /ref/inventory?version=N is "vN"; the current inventory's
//     ETag advances exactly when Store.Update archives a new version;
//   - a conditional request whose ETag still matches returns 304 before any
//     snapshot is materialized or marshaled;
//   - rendered bodies are cached per version, so even non-conditional hot
//     reads marshal each version once.
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
	"repro/internal/wire"
)

func versionETag(v int) string { return `"v` + strconv.Itoa(v) + `"` }

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

// refShards returns the shards carrying a Reference API store.
func (g *Gateway) refShards() []*shard {
	return refShardsOf(g.shards)
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

// siteClusterShard finds the shard in a site's set labeled with the named
// cluster.
func siteClusterShard(shards []*shard, cluster string) *shard {
	for _, s := range shards {
		if s.cluster == cluster {
			return s
		}
	}
	return nil
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
	shards := g.refShards()
	switch len(shards) {
	case 0:
		notConfigured(w, "reference API")
	case 1:
		if g.shardDown(shards[0]) {
			siteUnavailable(w, shards[0].site)
			return
		}
		g.serveShardInventory(shards[0], w, r)
	default:
		g.serveFederatedInventory(shards, w, r)
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
	etag := versionETag(ver)
	w.Header().Set("ETag", etag)
	if ver < cur {
		// Archived versions are immutable: let clients cache them hard.
		w.Header().Set("Cache-Control", "public, max-age=86400")
	}
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, err := s.inventoryBody(ver)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
}

// inventoryBody returns the rendered JSON of one archived version, from the
// per-version cache when possible. The cache is bounded: campaigns archive
// thousands of versions but traffic concentrates on the newest few. The
// render happens outside invMu — cache hits (the hot path) must never
// queue behind a cache miss marshaling a multi-thousand-node snapshot; a
// duplicate render per version under contention is the cheaper price.
func (s *shard) inventoryBody(ver int) ([]byte, error) {
	s.invMu.Lock()
	body, ok := s.invCache[ver]
	s.invMu.Unlock()
	if ok {
		return body, nil
	}
	var snap *refapi.Snapshot
	s.rlocked(func() { snap = s.cfg.Ref.Version(ver) })
	if snap == nil {
		return nil, fmt.Errorf("version %d vanished", ver)
	}
	body, err := snap.MarshalJSONIndent()
	if err != nil {
		return nil, err
	}
	s.invMu.Lock()
	defer s.invMu.Unlock()
	if cached, ok := s.invCache[ver]; ok {
		return cached, nil // raced with another renderer; keep its copy
	}
	// Bounded: evict oldest versions first, never the one just rendered —
	// under churn the hot current version must stay cached. When every
	// cached entry is newer (a client scraping history oldest-ward), skip
	// caching entirely rather than grow past the bound.
	for len(s.invCache) >= 8 {
		oldest := ver
		for v := range s.invCache {
			if v < oldest {
				oldest = v
			}
		}
		if oldest == ver {
			return body, nil
		}
		delete(s.invCache, oldest)
	}
	s.invCache[ver] = body
	return body, nil
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
	shards = g.availableShards(shards)
	key, vers := joinedVersions(shards)
	key += downSetKey(degraded)
	etag := `"` + key + `"`
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	g.fedMu.Lock()
	body := g.fedInvBody
	hit := g.fedInvKey == key && body != nil
	g.fedMu.Unlock()
	if !hit {
		out := FederatedInventoryJSON{Degraded: degraded, Sites: []SiteInventoryJSON{}}
		idxOf := map[string]int{}
		for i, s := range shards {
			var snap *refapi.Snapshot
			s.rlocked(func() { snap = s.cfg.Ref.Version(vers[i]) })
			if snap == nil {
				httpError(w, http.StatusInternalServerError,
					fmt.Sprintf("site %q version %d vanished", s.site, vers[i]))
				return
			}
			j, ok := idxOf[s.site]
			if !ok {
				j = len(out.Sites)
				idxOf[s.site] = j
				out.Sites = append(out.Sites, SiteInventoryJSON{Site: s.site})
			}
			out.Sites[j].Clusters = append(out.Sites[j].Clusters,
				ClusterInventoryJSON{Cluster: s.cluster, Version: vers[i], Inventory: snap})
		}
		var err error
		body, err = wire.MarshalIndent(out)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		g.fedMu.Lock()
		g.fedInvKey, g.fedInvBody = key, body
		g.fedMu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
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

func (g *Gateway) handleRefDiff(w http.ResponseWriter, r *http.Request) {
	shards := g.refShards()
	switch len(shards) {
	case 0:
		notConfigured(w, "reference API")
	case 1:
		if g.shardDown(shards[0]) {
			siteUnavailable(w, shards[0].site)
			return
		}
		g.serveShardDiff(shards[0], w, r)
	default:
		g.serveFederatedDiff(shards, w, r)
	}
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
	etag := fmt.Sprintf(`"v%d-v%d"`, from, to)
	w.Header().Set("ETag", etag)
	if to < cur {
		w.Header().Set("Cache-Control", "public, max-age=86400")
	}
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, err := s.refDiffBody(from, to)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
}

// refDiffBody renders (and memoizes) the diff between two archived
// versions. A single-entry cache suffices: traffic overwhelmingly asks for
// the same (latest-1, latest) pair until the store moves on.
func (s *shard) refDiffBody(from, to int) ([]byte, error) {
	s.diffMu.Lock()
	defer s.diffMu.Unlock()
	if s.diffBody != nil && s.diffFrom == from && s.diffTo == to {
		return s.diffBody, nil
	}
	diffs, err := s.diffSlice(from, to)
	if err != nil {
		return nil, err
	}
	out := RefDiffJSON{From: from, To: to, Count: len(diffs), Differences: diffs}
	body, err := wire.MarshalIndent(out)
	if err != nil {
		return nil, err
	}
	s.diffFrom, s.diffTo, s.diffBody = from, to, body
	return body, nil
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
	shards = g.availableShards(shards)
	key, vers := joinedVersions(shards)
	key = "d" + key + downSetKey(degraded)
	etag := `"` + key + `"`
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	g.fedMu.Lock()
	body := g.fedDiffBody
	hit := g.fedDiffKey == key && body != nil
	g.fedMu.Unlock()
	if !hit {
		out := FederatedDiffJSON{Degraded: degraded, Sites: []SiteDiffJSON{}}
		idxOf := map[string]int{}
		for i, s := range shards {
			to := vers[i]
			from := to - 1
			if from < 1 {
				from = 1
			}
			diffs, err := s.diffSlice(from, to)
			if err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
			j, ok := idxOf[s.site]
			if !ok {
				j = len(out.Sites)
				idxOf[s.site] = j
				out.Sites = append(out.Sites, SiteDiffJSON{Site: s.site})
			}
			out.Sites[j].Clusters = append(out.Sites[j].Clusters,
				RefDiffJSON{Cluster: s.cluster, From: from, To: to,
					Count: len(diffs), Differences: diffs})
			out.Sites[j].Count += len(diffs)
			out.Count += len(diffs)
		}
		var err error
		body, err = wire.MarshalIndent(out)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		g.fedMu.Lock()
		g.fedDiffKey, g.fedDiffBody = key, body
		g.fedMu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
}

// ---- site-scoped views over micro-shards ------------------------------------

// siteRefCache is one rendered joined site view plus the joined version
// key it was rendered at.
type siteRefCache struct {
	key  string
	body []byte
}

// serveSiteInventory implements /sites/{site}/ref/inventory. A site with a
// single store keeps full single-store semantics on the bare path
// (?version=, ?at=, per-version ETags). A micro-sharded site serves a
// joined per-cluster view by default — ETag "sv3.1.7" over its stores'
// version counters, conditional 304s, body cached per joined version —
// and requires ?cluster=X for archived access, which then has full
// single-store semantics against that cluster's store.
func (g *Gateway) serveSiteInventory(w http.ResponseWriter, r *http.Request, site string) {
	shards := refShardsOf(g.siteShards[site])
	if len(shards) == 0 {
		notConfigured(w, "reference API")
		return
	}
	if len(shards) == 1 {
		g.serveShardInventory(shards[0], w, r)
		return
	}
	q := r.URL.Query()
	if cl := q.Get("cluster"); cl != "" {
		s := siteClusterShard(shards, cl)
		if s == nil {
			httpError(w, http.StatusNotFound, fmt.Sprintf("no cluster %q at site %q", cl, site))
			return
		}
		g.serveShardInventory(s, w, r)
		return
	}
	if q.Get("version") != "" || q.Get("at") != "" {
		httpError(w, http.StatusBadRequest, fmt.Sprintf(
			"site %q is micro-sharded and archives are per cluster store; add ?cluster=X (one of: %s)",
			site, clusterList(shards)))
		return
	}
	key, vers := joinedVersions(shards)
	key = "s" + key
	etag := `"` + key + `"`
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	g.siteRefMu.Lock()
	cached := g.siteInvCache[site]
	g.siteRefMu.Unlock()
	body := cached.body
	if cached.key != key || body == nil {
		out := SiteInventoryJSON{Site: site}
		for i, s := range shards {
			var snap *refapi.Snapshot
			s.rlocked(func() { snap = s.cfg.Ref.Version(vers[i]) })
			if snap == nil {
				httpError(w, http.StatusInternalServerError,
					fmt.Sprintf("cluster %q version %d vanished", s.cluster, vers[i]))
				return
			}
			out.Clusters = append(out.Clusters,
				ClusterInventoryJSON{Cluster: s.cluster, Version: vers[i], Inventory: snap})
		}
		var err error
		body, err = wire.MarshalIndent(out)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		g.siteRefMu.Lock()
		if g.siteInvCache == nil {
			g.siteInvCache = map[string]siteRefCache{}
		}
		g.siteInvCache[site] = siteRefCache{key: key, body: body}
		g.siteRefMu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
}

// serveSiteDiff implements /sites/{site}/ref/diff with the same shape as
// serveSiteInventory: single-store semantics for a one-store site or with
// ?cluster=X, a joined latest-step per-cluster view ("sd"-prefixed ETag)
// otherwise; ?from=/?to= on the joined view point at ?cluster=.
func (g *Gateway) serveSiteDiff(w http.ResponseWriter, r *http.Request, site string) {
	shards := refShardsOf(g.siteShards[site])
	if len(shards) == 0 {
		notConfigured(w, "reference API")
		return
	}
	if len(shards) == 1 {
		g.serveShardDiff(shards[0], w, r)
		return
	}
	q := r.URL.Query()
	if cl := q.Get("cluster"); cl != "" {
		s := siteClusterShard(shards, cl)
		if s == nil {
			httpError(w, http.StatusNotFound, fmt.Sprintf("no cluster %q at site %q", cl, site))
			return
		}
		g.serveShardDiff(s, w, r)
		return
	}
	if q.Get("from") != "" || q.Get("to") != "" {
		httpError(w, http.StatusBadRequest, fmt.Sprintf(
			"site %q is micro-sharded and version ranges are per cluster store; add ?cluster=X (one of: %s)",
			site, clusterList(shards)))
		return
	}
	key, vers := joinedVersions(shards)
	key = "sd" + key
	etag := `"` + key + `"`
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	g.siteRefMu.Lock()
	cached := g.siteDiffCache[site]
	g.siteRefMu.Unlock()
	body := cached.body
	if cached.key != key || body == nil {
		out := SiteDiffJSON{Site: site}
		for i, s := range shards {
			to := vers[i]
			from := to - 1
			if from < 1 {
				from = 1
			}
			diffs, err := s.diffSlice(from, to)
			if err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
			out.Clusters = append(out.Clusters,
				RefDiffJSON{Cluster: s.cluster, From: from, To: to,
					Count: len(diffs), Differences: diffs})
			out.Count += len(diffs)
		}
		var err error
		body, err = wire.MarshalIndent(out)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		g.siteRefMu.Lock()
		if g.siteDiffCache == nil {
			g.siteDiffCache = map[string]siteRefCache{}
		}
		g.siteDiffCache[site] = siteRefCache{key: key, body: body}
		g.siteRefMu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
}
