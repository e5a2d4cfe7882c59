package gateway

// The site-scoped routes: /sites lists the federation layout, and
// /sites/{site}/... exposes the shard(s) owning the site — one whole-grid
// shard narrowed to the site (monolithic), or all of the site's
// per-cluster micro-shards merged (federated). These are the endpoints
// whose latency is immune to other sites' campaign progress:
// /sites/{site}/... takes only the owning shards' read gates, and /sites
// takes none at all (topology is precomputed at assembly; node states are
// read through the testbed's own mutex). (The mux predates Go 1.22
// pattern wildcards, so the subtree is dispatched by hand; every route
// under /sites/ shares one metrics bucket.)

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/testbed"
)

// SiteJSON is one entry of GET /sites. Shard is the index of the site's
// coordinator shard (its first micro-shard, when cluster-carved).
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

// siteTopo is one site's precomputed layout: everything except node
// states, which are live.
type siteTopo struct {
	entry SiteJSON // States left nil; filled per request
	nodes []string
}

// siteTopology snapshots a shard's site layout at assembly time, when no
// campaign is advancing — the topology (names, clusters, core counts)
// never changes afterwards.
func siteTopology(tb *testbed.Testbed) []siteTopo {
	var out []siteTopo
	for _, site := range tb.Sites {
		st := siteTopo{entry: SiteJSON{Name: site.Name}}
		for _, cl := range site.Clusters {
			st.entry.Clusters = append(st.entry.Clusters, cl.Name)
			st.entry.Cores += cl.Cores()
		}
		for _, n := range site.Nodes() {
			st.nodes = append(st.nodes, n.Name)
			st.entry.Nodes++
		}
		out = append(out, st)
	}
	return out
}

// handleSites lists the federation layout. Deliberately gate-free: the
// topology is the assembly-time snapshot and node states go through the
// testbed's own mutex, so this listing never queues behind any shard's
// Advance.
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
	idxOf := map[string]int{} // site name → position in out.Sites
	for i, s := range g.shards {
		for _, st := range s.sites {
			var states map[string]int
			if len(st.nodes) > 0 {
				states = make(map[string]int, 2)
				for _, name := range st.nodes {
					state, _ := s.f.TB.NodeState(name)
					states[state.String()]++
				}
			}
			j, seen := idxOf[st.entry.Name]
			if !seen {
				entry := st.entry
				entry.Clusters = append([]string(nil), st.entry.Clusters...)
				entry.Shard = i
				entry.Down = down[entry.Name]
				entry.Unreachable = unreachable[entry.Name]
				entry.States = states
				idxOf[entry.Name] = len(out.Sites)
				out.Sites = append(out.Sites, entry)
				continue
			}
			// Another micro-shard of an already-listed site: fold it in.
			// Shard stays the coordinator's index.
			e := &out.Sites[j]
			e.Clusters = append(e.Clusters, st.entry.Clusters...)
			e.Nodes += st.entry.Nodes
			e.Cores += st.entry.Cores
			for k, v := range states {
				if e.States == nil {
					e.States = map[string]int{}
				}
				e.States[k] += v
			}
		}
	}
	writeJSON(w, out)
}

// handleSiteScoped dispatches /sites/{site}/... to the shards owning the
// site. Monolithic gateways serve these too: the single shard owns every
// site and each view narrows to the requested one (resources and
// monitoring filter by site; jobs list only jobs tied to the site;
// submissions are validated against — and pinned to — the site). Under
// micro-sharding reads merge over the site's cluster shards and
// submissions probe them in cluster order; the ci subtree proxies to the
// coordinator cluster's server.
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
			g.serveOARJobs(w, r, ss, site)
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
			// The site's CI view is its coordinator cluster's server: under
			// micro-sharding that is where the federation files grid tickets,
			// so the scoped tree stays one coherent Jenkins.
			target := ss[0]
			proxy := http.StripPrefix("/sites/"+site+"/ci", target.f.CI.Handler())
			target.rlocked(func() { proxy.ServeHTTP(w, r) })
			return
		}
		http.NotFound(w, r)
	}
}
