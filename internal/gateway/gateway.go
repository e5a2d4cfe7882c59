// Package gateway is the testbed's unified HTTP front door: one
// http.Handler mounting read-optimized JSON endpoints over every subsystem
// of a campaign — OAR's resource manager, the Reference API, monitoring,
// the bug tracker, the status page views and the CI server's own REST API.
//
// On the real Grid'5000 these are separate REST services (the OAR API, the
// Reference API, Jenkins' JSON API) that operators, dashboards and scripts
// hammer constantly; here they share one mux so a single campaign can be
// served, scraped and load-tested as a production system.
//
// Endpoints (all JSON):
//
//	GET  /                 endpoint index
//	GET  /sites            the federation layout: one entry per site
//	GET  /oar/resources    node allocation states (?cluster=X, ?site=Y narrow)
//	GET  /oar/jobs         recent jobs, newest first (?limit=N, 0 = all)
//	POST /oar/submit       submit a resource request (or dry-run probe);
//	                       unanchored submissions route through the
//	                       admission layer (201 placed / 202 queued /
//	                       429 shed + Retry-After)
//	GET  /admit/queue      admission state: counters, waiting reservations,
//	                       recently resolved, per-site breakers
//	GET  /ref/inventory    testbed description, every store at its current
//	                       version (ETag/304)
//	GET  /ref/diff         every store's latest step (ETag/304)
//	GET  /monitor/metrics  1 Hz samples (?metric=&node=&site=&from_sec=&to_sec=)
//	GET  /bugs             bug reports (?state=open|all, ?family=F)
//	GET  /bugs/rollup      cross-site rollup: one row per signature
//	                       (version-vector ETag/304)
//	GET  /grid/at          grid inventory as of sim-time T (?t=S;
//	                       composite ETag/304, see intel.go)
//	GET  /grid/diff        what changed anywhere between two instants
//	                       (?from=S&to=S; per-site sections)
//	GET  /incidents        cross-site incident rollup (?state=, ?at=S
//	                       for the as-of view)
//	GET  /reliability/trend fleet reliability confidence bands (stored
//	                       sweep; ETag/304)
//	GET  /chaos            grid-event state: degraded set, active, history
//	POST /chaos/inject     inject a site-scale event (outage/partition/...)
//	POST /chaos/heal       heal one event ({"id":N}) or all ({"all":true})
//	GET  /status/grid      family × target status matrix
//	GET  /status/trend     historical success rate (?bucket_sec=S)
//	GET  /metrics          per-endpoint request/error/latency counters
//	     /ci/...           421: there is one CI server per cluster, under
//	                       /sites/{site}/ci/
//	     /sites/{site}/... site-scoped views over the shards owning the
//	                       site: oar/resources, oar/jobs, oar/submit,
//	                       monitor/metrics, ref/inventory and ref/diff
//	                       (?cluster=X for one store's archive: ?version=N,
//	                       ?at=S, ?from=&to=), ci/... (the coordinator
//	                       cluster's CI REST API)
//
// # Sharding and concurrency
//
// A *shard* is one complete core.Framework behind its own gate, and there
// is one assembly: ForFederation mounts one shard per cluster *micro-shard*
// of a federation — each with its own OAR, monitor, Reference API store, CI
// server and bug tracker, as internal/federation carves them — labeled with
// the site that owns it plus its cluster. The *site* is the unit of
// identity for routing: /sites/{site}/... addresses all of a site's
// micro-shards at once (merging where the route reads, probing in cluster
// order where it writes), chaos freezes and heals whole sites, admission
// places against site-level capacity, and the intel archives report
// per-store versions under the site label. How many clusters a site has
// never changes a wire shape: a site of one answers the same joined
// envelopes as a site of seven.
//
// Each shard carries its own RWMutex: request handlers hold the read side
// of only the shard(s) they touch, and a campaign step holds a shard's
// write side only while that micro-shard steps (shard.step — the one place
// the write side is taken). The gateway itself never drives time: Advance
// is Federation.Advance, whose barrier ticks come back through shard.step
// as the federation's step gate. A site-scoped read
// (/sites/A/oar/resources) therefore never waits on an Advance that is busy
// stepping site B, and a read against cluster A1 does not even wait on a
// step of A2; that read-availability property is asserted by
// TestSiteReadsUnblockedByOtherShardAdvance.
// Merged endpoints (/oar/resources and friends) scatter over the shards,
// snapshotting each under its own read lock, and gather the merged answer
// outside any lock. Subsystems guard their own state with their own
// mutexes; the shard gates only serialize requests against campaign
// progress. Monitoring queries additionally serialize per shard because a
// flaky-kwapi roll draws from that shard's campaign RNG.
//
// The /ref, /grid, /incidents, /bugs/rollup and /reliability/trend routes
// are read-optimized, all through one path (serveView in view.go): a
// response carries a strong ETag derived from version counters alone (a
// store's, an archive's version vector, a tracker version vector), a
// conditional request short-cuts to 304 before any snapshot is
// materialized or marshaled, and each route keeps its last rendered body
// under that key. A /ref body has two renderers (ref.go) because it
// answers two questions: one store at any archived version (?cluster=X on
// a site's routes), or the current version vector of an intel.GridArchive
// — the one /grid/at reads, or a site's own. Only a store's archived
// versions keep more — eight, the lowest version leaving first, because a
// scraper walking more versions than that in a cycle would miss every time
// under oldest-first eviction (measured on the benchmark's cold walk: 8
// hits in 11 instead of 0).
//
// # Degraded mode
//
// The federation is the gateway's chaos controller, and site-scale events
// reroute traffic instead of breaking it: the site-scoped routes of a lost
// site answer 503 with a Retry-After hint, merges exclude lost shards and
// carry a "degraded" marker naming the survivors, and POST
// /chaos/inject|heal drive grid events live against the running campaign.
// See chaos.go.
package gateway

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/intel"
	"repro/internal/simclock"
	"repro/internal/status"
	"repro/internal/wire"
)

// shard is one cluster micro-shard of the served federation — a complete
// campaign framework behind its own gate — labeled with its site and
// cluster.
type shard struct {
	site    string
	cluster string
	idx     int // position in Gateway.shards (the /sites "shard" column)
	f       *core.Framework

	// nodes and cores are the cluster's topology — immutable after
	// assembly, so the /sites listing never takes the shard gate (see
	// handleSites).
	nodes []string
	cores int

	// sim is the shard's campaign gate (see the package comment).
	sim sync.RWMutex

	// monMu serializes this shard's monitoring queries (campaign RNG).
	monMu sync.Mutex

	// statusClient reads the shard CI's REST API in process to assemble
	// the /status views, the same code path the external status page uses.
	statusClient *status.Client

	// Rendered bodies of the shard's single-store /ref routes: its newest
	// requested versions, and its last diff.
	inv, diff view
}

// rlocked runs fn under the shard's read gate.
func (s *shard) rlocked(fn func()) {
	s.sim.RLock()
	defer s.sim.RUnlock()
	fn()
}

// step runs one campaign step under the shard's write gate and records in
// hold how long readers were shut out.
func (s *shard) step(hold *latencyStat, fn func()) {
	s.sim.Lock()
	defer s.sim.Unlock()
	start := time.Now()
	fn()
	hold.record(time.Since(start))
}

// Gateway is the front door. It implements http.Handler.
type Gateway struct {
	mux     *http.ServeMux
	started time.Time

	// fed is the served federation: its clock is the gateway's, and its
	// barrier engine the only thing that moves it (Advance).
	fed    *federation.Federation
	shards []*shard
	// sites keeps the site names in shard order; siteShards maps a site
	// name to the shards serving it, one per cluster. A site's first shard
	// is its *coordinator* (the federation files grid tickets there, and the
	// site CI proxy targets it). siteRef holds each site's own archive and
	// joined /sites/{site}/ref bodies. All three are built at assembly and
	// only read afterwards.
	sites      []string
	siteShards map[string][]*shard
	siteRef    map[string]*siteViews

	// metrics is keyed by mux pattern; read-only after assembly.
	metrics map[string]*endpointMetrics

	// chaos is fed as degraded-mode routing sees it: lost sites answer 503,
	// merged views exclude them and carry a degraded marker, and the /chaos
	// endpoints inject and heal grid events (see chaos.go).
	chaos ChaosController

	// lockHold samples how long campaign steps hold shard write locks —
	// the advance-side half of the E16 p99 investigation (AdvanceLockStats).
	lockHold latencyStat

	// admission routes unanchored submissions through the grid admission
	// layer: least-loaded placement, a bounded reservation queue and 429
	// load shedding (see admission.go).
	admission *admit.Controller

	// Grid intelligence (internal/intel): the archive and tracker sources
	// assembled over the shards at construction, and the stored fleet
	// reliability trend (see intel.go).
	archive     *intel.GridArchive
	trackers    []intel.SiteTracker
	reliability *intel.TrendStore

	// Rendered bodies of the merged conditional-GET routes, one each (see
	// view.go).
	fedInv, fedDiff, gridAt, gridDiff, incidents, rollup, trend view
}

// ForFederation mounts one gateway shard per federation micro-shard: each
// cluster's OAR, Reference API store, monitor, bug tracker and CI server
// is served behind that micro-shard's own lock, labeled with the owning
// site; shards sharing a site serve it together in cluster order. Time has
// one driver, the federation's barrier engine: Gateway.Advance is
// Federation.Advance, and every micro-shard step that makes comes back
// through the step gate below to run under the owning gateway shard's write
// lock — so downed sites freeze all of their micro-shards, heals replay
// catch-up ticks, and reads against shards that are not mid-step keep
// flowing throughout.
//
// The federation is also the gateway's chaos controller, so grid events
// injected via POST /chaos/inject (or a schedule) drive the degraded-mode
// routing: lost sites answer 503, merges exclude them.
func ForFederation(fed *federation.Federation) *Gateway {
	g := &Gateway{
		mux:         http.NewServeMux(),
		started:     time.Now(),
		fed:         fed,
		chaos:       fed,
		metrics:     map[string]*endpointMetrics{},
		siteShards:  map[string][]*shard{},
		siteRef:     map[string]*siteViews{},
		reliability: &intel.TrendStore{},
	}
	// The grid intelligence sources: every archived store and every
	// tracker, each behind its own shard's read gate and under its site's
	// label.
	var arcs []intel.SiteArchive
	siteArcs := map[string][]intel.SiteArchive{}
	for i, sh := range fed.Shards() {
		s := &shard{site: sh.Site, cluster: sh.Cluster, idx: i, f: sh.F}
		s.inv.bound = archivedBodies
		s.statusClient = status.NewLocalClient(s.f.CI.Handler())
		for _, n := range s.f.TB.Nodes() {
			s.nodes = append(s.nodes, n.Name)
		}
		s.cores = s.f.TB.Cluster(s.cluster).Cores()
		g.shards = append(g.shards, s)
		arc := intel.SiteArchive{Site: s.site, Cluster: s.cluster, Ref: s.f.Ref, Gate: s.rlocked}
		arcs = append(arcs, arc)
		g.trackers = append(g.trackers, intel.SiteTracker{Site: s.site, Bugs: s.f.Bugs, Gate: s.rlocked})
		if len(g.siteShards[s.site]) == 0 {
			g.sites = append(g.sites, s.site)
		}
		g.siteShards[s.site] = append(g.siteShards[s.site], s)
		siteArcs[s.site] = append(siteArcs[s.site], arc)
	}
	g.archive = intel.NewGridArchive(arcs)
	for _, site := range g.sites {
		g.siteRef[site] = &siteViews{archive: intel.NewGridArchive(siteArcs[site])}
	}

	g.handle("/", http.MethodGet, g.handleIndex)
	g.handle("/sites", http.MethodGet, g.handleSites)
	g.handle("/sites/", "", g.handleSiteScoped)
	g.handle("/oar/resources", http.MethodGet, g.handleOARResources)
	g.handle("/oar/jobs", http.MethodGet, g.handleOARJobs)
	g.handle("/oar/submit", http.MethodPost, g.handleOARSubmit)
	g.handle("/admit/queue", http.MethodGet, g.handleAdmitQueue)
	g.handle("/ref/inventory", http.MethodGet, g.handleRefInventory)
	g.handle("/ref/diff", http.MethodGet, g.handleRefDiff)
	g.handle("/monitor/metrics", http.MethodGet, g.handleMonitorMetrics)
	g.handle("/bugs", http.MethodGet, g.handleBugs)
	g.handle("/bugs/rollup", http.MethodGet, g.handleBugsRollup)
	g.handle("/grid/at", http.MethodGet, g.handleGridAt)
	g.handle("/grid/diff", http.MethodGet, g.handleGridDiff)
	g.handle("/incidents", http.MethodGet, g.handleIncidents)
	g.handle("/reliability/trend", http.MethodGet, g.handleReliabilityTrend)
	g.handle("/chaos", http.MethodGet, g.handleChaos)
	g.handle("/chaos/inject", http.MethodPost, g.handleChaosInject)
	g.handle("/chaos/heal", http.MethodPost, g.handleChaosHeal)
	g.handle("/status/grid", http.MethodGet, g.handleStatusGrid)
	g.handle("/status/trend", http.MethodGet, g.handleStatusTrend)
	g.handle("/metrics", http.MethodGet, g.handleMetrics)
	g.handle("/ci/", "", g.handleCIProxy)

	fed.SetStepGate(func(site, cluster string, step func()) {
		g.shardFor(site, cluster).step(&g.lockHold, step)
	})
	// Grid admission over every site (micro-shards group under their site):
	// unanchored submissions route to the least-loaded live site or queue
	// against freed capacity; the federation's grid listener pumps the queue
	// on every advance and chaos transition so a site outage fails queued
	// reservations fast.
	var backends []admit.Backend
	for _, site := range g.sites {
		backends = append(backends, &siteBackend{g: g, site: site, shards: g.siteShards[site]})
	}
	g.admission = admit.New(fed.Now, backends)
	fed.SetGridListener(g.pumpAdmission)
	return g
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Advance steps the served campaign by d of simulated time — it is
// Federation.Advance, which fires the grid listener (the admission pump) on
// return; requests against a shard that is not mid-step proceed throughout.
func (g *Gateway) Advance(d simclock.Time) { g.fed.Advance(d) }

// shardFor returns the site's shard carrying the given cluster label, or
// nil.
func (g *Gateway) shardFor(site, cluster string) *shard {
	for _, s := range g.siteShards[site] {
		if s.cluster == cluster {
			return s
		}
	}
	return nil
}

// shardForCluster finds the shard whose testbed owns the named cluster.
// Cluster names are not globally unique on the real grid (two sites can
// both run a "grisou"), so when several shards own the name the choice is
// deterministic: the lexicographically smallest live site wins, falling
// back to the smallest site overall when every owner is down — the caller
// then answers 503 for that site instead of silently picking another.
func (g *Gateway) shardForCluster(name string) *shard {
	var best *shard
	for _, s := range g.shards {
		if s.f.TB.Cluster(name) == nil {
			continue
		}
		if best == nil {
			best = s
			continue
		}
		bestDown, sDown := !g.siteAvailable(best.site), !g.siteAvailable(s.site)
		if (bestDown && !sDown) || (bestDown == sDown && s.site < best.site) {
			best = s
		}
	}
	return best
}

// handle registers an instrumented endpoint. allow is the accepted method
// ("" lets the wrapped handler enforce methods itself, used by the CI
// proxy and the /sites/ subtree).
func (g *Gateway) handle(pattern, allow string, fn http.HandlerFunc) {
	m := &endpointMetrics{}
	g.metrics[pattern] = m
	g.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, ctx: r.Context()}
		switch {
		case pattern == "/" && r.URL.Path != "/":
			// The root pattern catches every unregistered path; a missing
			// resource is 404 regardless of method.
			http.NotFound(sw, r)
		case allow != "" && r.Method != allow:
			sw.Header().Set("Allow", allow)
			http.Error(sw, "method not allowed", http.StatusMethodNotAllowed)
		default:
			fn(sw, r)
		}
		m.record(sw.Code(), time.Since(start))
	})
}

// handleCIProxy answers the unscoped /ci/...: there is one CI server per
// cluster, and their trees live under /sites/{site}/ci/.
func (g *Gateway) handleCIProxy(w http.ResponseWriter, r *http.Request) {
	httpError(w, http.StatusMisdirectedRequest,
		"federated gateway: use /sites/{site}/ci/...")
}

// ---- instrumentation --------------------------------------------------------

// latencyStat is a lock-free count, total and maximum of durations:
// recording never takes a lock, so it never contends with the requests (or
// the readers a write-lock hold blocks) it measures.
type latencyStat struct {
	count   atomic.Int64
	totalNs atomic.Int64
	maxNs   atomic.Int64
}

func (l *latencyStat) record(d time.Duration) {
	ns := d.Nanoseconds()
	l.count.Add(1)
	l.totalNs.Add(ns)
	for {
		cur := l.maxNs.Load()
		if ns <= cur || l.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// micros returns the count with the mean and the maximum in microseconds.
func (l *latencyStat) micros() (count int64, avgUs, maxUs float64) {
	count = l.count.Load()
	if count > 0 {
		avgUs = float64(l.totalNs.Load()) / float64(count) / 1e3
	}
	return count, avgUs, float64(l.maxNs.Load()) / 1e3
}

// endpointMetrics is the per-endpoint counter set; latency counts the
// requests.
type endpointMetrics struct {
	latency     latencyStat
	errors      atomic.Int64
	notModified atomic.Int64
}

func (m *endpointMetrics) record(code int, d time.Duration) {
	m.latency.record(d)
	if code >= 400 {
		m.errors.Add(1)
	}
	if code == http.StatusNotModified {
		m.notModified.Add(1)
	}
}

// LockHoldStats reports the advance-side write-lock hold distribution:
// how many per-shard campaign steps ran and the mean and worst hold. Read
// next to an endpoint's p99 latency, it says whether slow reads were
// *blocked* (holds comparable to the p99) or merely slow themselves.
type LockHoldStats struct {
	Steps     int64   `json:"steps"`
	AvgMicros float64 `json:"avg_us"`
	MaxMicros float64 `json:"max_us"`
}

// AdvanceLockStats snapshots the write-lock hold sampling accumulated by
// every campaign step since assembly (each pass through shard.step).
func (g *Gateway) AdvanceLockStats() LockHoldStats {
	var out LockHoldStats
	out.Steps, out.AvgMicros, out.MaxMicros = g.lockHold.micros()
	return out
}

// statusWriter captures the response code for the instrumentation layer,
// and sends nothing once ctx, the request's, is done: a read that sat out a
// campaign step behind a shard gate may find its client has hung up.
type statusWriter struct {
	http.ResponseWriter
	ctx  context.Context
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	if w.ctx.Err() == nil {
		w.ResponseWriter.WriteHeader(code)
	}
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if err := w.ctx.Err(); err != nil {
		return 0, err
	}
	return w.ResponseWriter.Write(p)
}

// Code returns the response status (200 when the handler never wrote one).
func (w *statusWriter) Code() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// EndpointMetrics is the wire form of one endpoint's counters.
type EndpointMetrics struct {
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	NotModified int64   `json:"not_modified,omitempty"`
	AvgMicros   float64 `json:"avg_us"`
	MaxMicros   float64 `json:"max_us"`
}

// MetricsReport is the wire form of GET /metrics.
type MetricsReport struct {
	UptimeSec float64                    `json:"uptime_sec"`
	SimNowSec float64                    `json:"sim_now_sec,omitempty"`
	Shards    int                        `json:"shards,omitempty"`
	Requests  int64                      `json:"requests"`
	Errors    int64                      `json:"errors"`
	Admission *admit.StatsJSON           `json:"admission,omitempty"`
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
}

// Metrics snapshots the gateway's counters (what GET /metrics serves).
func (g *Gateway) Metrics() MetricsReport {
	admission := g.admission.Stats()
	rep := MetricsReport{
		UptimeSec: time.Since(g.started).Seconds(),
		SimNowSec: g.fed.Now().Seconds(),
		Shards:    len(g.shards),
		Admission: &admission,
		Endpoints: make(map[string]EndpointMetrics, len(g.metrics)),
	}
	for pattern, m := range g.metrics {
		em := EndpointMetrics{Errors: m.errors.Load(), NotModified: m.notModified.Load()}
		em.Requests, em.AvgMicros, em.MaxMicros = m.latency.micros()
		rep.Requests += em.Requests
		rep.Errors += em.Errors
		rep.Endpoints[pattern] = em
	}
	return rep
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, g.Metrics())
}

func (g *Gateway) handleIndex(w http.ResponseWriter, r *http.Request) {
	patterns := make([]string, 0, len(g.metrics))
	for p := range g.metrics {
		if p != "/" {
			patterns = append(patterns, p)
		}
	}
	sort.Strings(patterns)
	writeJSON(w, struct {
		Service   string   `json:"service"`
		Shards    int      `json:"shards"`
		Endpoints []string `json:"endpoints"`
	}{"testbed API gateway", len(g.shards), patterns})
}

// ---- shared helpers ---------------------------------------------------------

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus renders v before the status line goes out: a value that
// does not encode answers 500 — and counts as the endpoint's error — not
// code with an empty body.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	if err := wire.WriteIndent(w, code, v); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	http.Error(w, msg, code)
}
