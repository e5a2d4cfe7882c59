package gateway

// The site-scoped routes: /sites lists the federation layout, and
// /sites/{site}/... exposes the site's per-cluster micro-shards merged.
// Each scoped route is its own mux pattern behind siteRoute, served by the
// grid route's handler, which reads the site from the path. These are the
// endpoints whose latency is immune to other sites' campaign progress:
// /sites/{site}/... and /sites take only the owning shards' gates
// (topology is precomputed at assembly).

import (
	"fmt"
	"net/http"
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
// micro-shards in cluster order, whose node states it counts under each
// shard's read gate in turn.
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
			entry.Nodes += s.nodes
			entry.Cores += s.cores
			s.rlocked(func() {
				for _, n := range s.f.TB.Nodes() {
					entry.States[n.State.String()]++
				}
			})
		}
		out.Sites = append(out.Sites, entry)
	}
	writeJSON(w, out)
}

// siteRoute gates a /sites/{site}/... route: an unknown site answers 404,
// and a site lost to an active grid event answers 503 until heal, whatever
// the route. Partitioned sites pass: their shards are alive, only the merge
// plane lost them.
func (g *Gateway) siteRoute(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		site := r.PathValue("site")
		switch {
		case len(g.siteShards[site]) == 0:
			httpError(w, http.StatusNotFound, fmt.Sprintf("unknown site %q", site))
		case !g.siteAvailable(site):
			siteUnavailable(w, site)
		default:
			fn(w, r)
		}
	}
}

// serveSiteCI proxies /sites/{site}/ci/... to the site's coordinator
// cluster's CI server: that is where the federation files grid tickets, so
// the scoped tree stays one coherent Jenkins. Any method but GET or HEAD
// may trigger a build, so it takes the write gate.
func (g *Gateway) serveSiteCI(w http.ResponseWriter, r *http.Request) {
	site := r.PathValue("site")
	target := g.siteShards[site][0]
	proxy := http.StripPrefix("/sites/"+site+"/ci", target.f.CI.Handler())
	gate := target.locked
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		gate = target.rlocked
	}
	gate(func() { proxy.ServeHTTP(w, r) })
}
