package gateway

// The site-scoped routes: /sites lists the federation layout, and
// /sites/{site}/... exposes the site's per-cluster micro-shards merged.
// These are the endpoints whose latency is immune to other sites' campaign
// progress: /sites/{site}/... takes only the owning shards' read gates, and
// /sites takes none at all (topology is precomputed at assembly; node
// states are read through the testbed's own mutex). (The mux predates Go
// 1.22 pattern wildcards, so the subtree is dispatched by hand; every route
// under /sites/ shares one metrics bucket.)

import (
	"fmt"
	"net/http"
	"strings"
)

// SiteJSON is one entry of GET /sites. Shard is the index of the site's
// coordinator shard (its first micro-shard).
type SiteJSON struct {
	Name     string         `json:"name"`
	Shard    int            `json:"shard"`
	Clusters []string       `json:"clusters,omitempty"`
	Nodes    int            `json:"nodes,omitempty"`
	Cores    int            `json:"cores,omitempty"`
	States   map[string]int `json:"states,omitempty"`
	// Down and Unreachable flag sites lost to an active grid event: down
	// sites answer 503 on their scoped routes, unreachable (partitioned)
	// sites still serve but are excluded from merged views.
	Down        bool `json:"down,omitempty"`
	Unreachable bool `json:"unreachable,omitempty"`
}

// SitesJSON is the wire form of GET /sites.
type SitesJSON struct {
	Shards   int           `json:"shards"`
	Degraded *DegradedJSON `json:"degraded,omitempty"`
	Sites    []SiteJSON    `json:"sites"`
}

// handleSites lists the federation layout, each site folding its
// micro-shards in cluster order. Deliberately gate-free: the topology is
// the assembly-time snapshot and node states go through the testbed's own
// mutex, so this listing never queues behind any shard's Advance.
func (g *Gateway) handleSites(w http.ResponseWriter, r *http.Request) {
	out := SitesJSON{Shards: len(g.shards), Degraded: g.degradedMarker()}
	down := map[string]bool{}
	unreachable := map[string]bool{}
	if out.Degraded != nil {
		for _, name := range out.Degraded.DownSites {
			down[name] = true
		}
		for _, name := range out.Degraded.UnreachableSites {
			unreachable[name] = true
		}
	}
	for _, site := range g.sites {
		ss := g.siteShards[site]
		entry := SiteJSON{Name: site, Shard: ss[0].idx, States: map[string]int{},
			Down: down[site], Unreachable: unreachable[site]}
		for _, s := range ss {
			entry.Clusters = append(entry.Clusters, s.cluster)
			entry.Nodes += len(s.nodes)
			entry.Cores += s.cores
			for _, name := range s.nodes {
				state, _ := s.f.TB.NodeState(name)
				entry.States[state.String()]++
			}
		}
		out.Sites = append(out.Sites, entry)
	}
	writeJSON(w, out)
}

// handleSiteScoped dispatches /sites/{site}/... to the shards owning the
// site: reads merge over the site's cluster shards, submissions are
// validated against — and pinned to — the site and probe its shards in
// cluster order, and the ci subtree proxies to the coordinator cluster's
// server.
func (g *Gateway) handleSiteScoped(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sites/")
	site, sub, _ := strings.Cut(rest, "/")
	if site == "" {
		http.NotFound(w, r)
		return
	}
	ss := g.siteShards[site]
	if len(ss) == 0 {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown site %q", site))
		return
	}
	if !g.siteAvailable(site) {
		// The site is lost to an active grid event: every scoped view of it
		// is 503-by-design until heal. Partitioned sites do not take this
		// path — their shard is alive, only the merge plane lost them.
		siteUnavailable(w, site)
		return
	}
	requireMethod := func(m string) bool {
		if r.Method == m {
			return true
		}
		w.Header().Set("Allow", m)
		httpError(w, http.StatusMethodNotAllowed, "method not allowed")
		return false
	}
	switch sub {
	case "oar/resources":
		if requireMethod(http.MethodGet) {
			g.serveOARResources(w, r, site)
		}
	case "oar/jobs":
		if requireMethod(http.MethodGet) {
			g.serveOARJobs(w, r, ss)
		}
	case "oar/submit":
		if requireMethod(http.MethodPost) {
			g.serveOARSubmit(w, r, ss, site)
		}
	case "monitor/metrics":
		if requireMethod(http.MethodGet) {
			g.serveMonitorMetrics(w, r, site)
		}
	case "ref/inventory":
		if requireMethod(http.MethodGet) {
			g.serveSiteInventory(w, r, site)
		}
	case "ref/diff":
		if requireMethod(http.MethodGet) {
			g.serveSiteDiff(w, r, site)
		}
	default:
		if sub == "ci" || strings.HasPrefix(sub, "ci/") {
			// The site's CI view is its coordinator cluster's server: that is
			// where the federation files grid tickets, so the scoped tree
			// stays one coherent Jenkins.
			target := ss[0]
			proxy := http.StripPrefix("/sites/"+site+"/ci", target.f.CI.Handler())
			target.rlocked(func() { proxy.ServeHTTP(w, r) })
			return
		}
		http.NotFound(w, r)
	}
}
