package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/simclock"
)

// grid is a federated campaign behind its gateway, plus the names the
// request scripts draw from.
type grid struct {
	fed      *federation.Federation
	gw       *gateway.Gateway
	sites    []string
	clusters []clusterRef // every micro-shard, in shard order
	days     int
}

type clusterRef struct {
	site, cluster string
	nodes         []string
	sh            *federation.Shard
}

// fixtureSeed is the campaign seed behind every served gateway. The served
// campaign is a fixture, like the loaded database of a query benchmark:
// -seed generates the traffic (scripts, arrival trains, the describer's
// picks), not the state it is served from. What a campaign's heaviest hours
// cost differs from seed to seed by more than the bounds on a tail, and the
// two campaign workloads are where campaigns vary with the seed.
const fixtureSeed = 1

// buildGrid assembles a federation and its gateway the way g5kapi -shards
// does (gateway first, so every tick runs under the shard locks), then
// advances it day by day. After each day a seeded "describer" re-describes
// one node per store from its live inventory, so every store archives one
// version per day: no campaign code calls Store.Update, and without this
// the archives would hold a single version and no cache bound would ever
// be reached. With hourly set, days are advanced in one-hour steps, the
// step length a live gateway uses.
func buildGrid(seed int64, days int, hourly bool) *grid {
	// The federation steps serially: on one processor barrier workers buy
	// nothing, and campaign-fed is where they are measured.
	fed := federation.New(federation.Config{Seed: fixtureSeed, Workers: 1})
	fed.Start()
	g := &grid{fed: fed, gw: gateway.ForFederation(fed), sites: fed.Sites(), days: days}
	for _, sh := range fed.Shards() {
		ref := clusterRef{site: sh.Site, cluster: sh.Cluster, sh: sh}
		for _, n := range sh.F.TB.Nodes() {
			ref.nodes = append(ref.nodes, n.Name)
		}
		g.clusters = append(g.clusters, ref)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x64657363)) // "desc"
	for d := 0; d < days; d++ {
		if hourly {
			for h := 0; h < 24; h++ {
				g.gw.Advance(simclock.Hour)
			}
		} else {
			g.gw.Advance(simclock.Day)
		}
		g.describe(rng)
	}
	return g
}

// describe archives one new version in every store.
func (g *grid) describe(rng *rand.Rand) {
	for i := range g.clusters {
		g.describeOne(&g.clusters[i], rng)
	}
}

func (g *grid) describeOne(c *clusterRef, rng *rand.Rand) {
	f := c.sh.F
	n := f.TB.Node(c.nodes[rng.Intn(len(c.nodes))])
	if err := f.Ref.Update(f.Clock.Now(), n.Name, n.Inv); err != nil {
		panic(fmt.Sprintf("g5kbench: describer: %v", err)) // the node came from this store's own testbed
	}
}

// pick draws one element.
func pick[T any](rng *rand.Rand, v []T) T { return v[rng.Intn(len(v))] }

// weighted is a request generator with its share of the script.
type weighted struct {
	weight int
	gen    func(rng *rand.Rand, i int) reqSpec
}

// script generates n requests from the weighted generators. The mix is
// exact, not drawn: every run of as many requests as the weights sum to
// holds each class exactly its weight's times, in a seeded shuffle. How
// many dear requests a script holds, and how they spread over the run,
// then does not vary with the seed; which resources they name does.
func script(rng *rand.Rand, n int, mix []weighted) []reqSpec {
	var block []int // generator index, once per unit of weight
	for gi, w := range mix {
		for k := 0; k < w.weight; k++ {
			block = append(block, gi)
		}
	}
	out := make([]reqSpec, n)
	for i := range out {
		if k := i % len(block); k == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		out[i] = mix[block[i%len(block)]].gen(rng, i)
	}
	return out
}

// scrapeMix is the serve-scrape traffic: weights are per mille. The hot
// 70 % repeats a small set of resources, conditionally where the route has
// an ETag, so the gateway's caches and 304 paths carry it. The cold 30 %
// walks archives and distinct instants and windows, so each request
// misses whatever was cached for the previous one. /grid/at and
// /grid/diff are a hundred times dearer than the rest when cold (a whole
// grid is materialized and rendered) and get a small share, so that the
// p99 sits inside the archived-inventory class and not on its edge.
func (g *grid) scrapeMix() []weighted {
	horizon := float64(g.days) * 86400
	hotT := horizon * 0.75 // the one instant the hot /grid/at repeats
	cond := func(path string, k kind) func(*rand.Rand, int) reqSpec {
		return func(*rand.Rand, int) reqSpec { return reqSpec{path: path, cond: true, kind: k} }
	}
	site := func(suffix string) func(*rand.Rand, int) reqSpec {
		return func(rng *rand.Rand, _ int) reqSpec {
			return reqSpec{path: "/sites/" + pick(rng, g.sites) + suffix, kind: kindSite}
		}
	}
	return []weighted{
		// hot
		{90, cond("/ref/inventory", kindMerge)},
		{90, cond("/ref/diff", kindMerge)},
		{90, cond("/bugs/rollup", kindMerge)},
		{90, cond("/incidents", kindMerge)},
		{60, cond(fmt.Sprintf("/grid/at?t=%.0f", hotT), kindArchive)},
		{70, func(*rand.Rand, int) reqSpec { return reqSpec{path: "/sites", kind: kindSite} }},
		{70, func(rng *rand.Rand, _ int) reqSpec {
			return reqSpec{path: "/oar/resources?cluster=" + pick(rng, g.clusters).cluster, kind: kindSite}
		}},
		{70, site("/oar/resources")},
		{70, site("/oar/jobs?limit=25")},
		// cold
		{150, func(_ *rand.Rand, i int) reqSpec {
			// Every store's versions in turn: consecutive requests never
			// share a version, and a store's cycle is longer than the
			// gateway's 8-entry per-version body cache.
			c := g.clusters[i%len(g.clusters)]
			v := 1 + (i/len(g.clusters))%(g.days+1)
			return reqSpec{path: fmt.Sprintf("/sites/%s/ref/inventory?cluster=%s&version=%d", c.site, c.cluster, v),
				cold: true, kind: kindArchive}
		}},
		{140, func(rng *rand.Rand, _ int) reqSpec {
			c := pick(rng, g.clusters)
			from := rng.Intn(int(horizon) - 30)
			return reqSpec{path: fmt.Sprintf("/sites/%s/monitor/metrics?metric=power_w&node=%s&from_sec=%d&to_sec=%d",
				c.site, pick(rng, c.nodes), from, from+30), cold: true, kind: kindMonitor, exp: expMonitor}
		}},
		{7, func(rng *rand.Rand, _ int) reqSpec {
			from := rng.Float64() * horizon / 2
			return reqSpec{path: fmt.Sprintf("/grid/diff?from=%.0f&to=%.0f", from, from+rng.Float64()*horizon/2),
				cold: true, kind: kindArchive}
		}},
		{3, func(rng *rand.Rand, _ int) reqSpec {
			return reqSpec{path: fmt.Sprintf("/grid/at?t=%.0f", rng.Float64()*horizon), cold: true, kind: kindArchive}
		}},
	}
}

// rateBlock is how many consecutive requests are timed together for the
// request rate. It is the length of one exact mix of scrapeMix, so every
// block does the same work.
const rateBlock = 1000

// runClosedLoop sends the script, each request after the previous one's
// answer, and returns how long each block of rateBlock requests took.
func runClosedLoop(c *client, specs []reqSpec, parent int32) (blockSec []float64) {
	blockStart := time.Now()
	for i := range specs {
		c.do(&specs[i], int64(i), time.Time{}, parent)
		if i%rateBlock == rateBlock-1 {
			now := time.Now()
			blockSec = append(blockSec, now.Sub(blockStart).Seconds())
			blockStart = now
		}
	}
	return blockSec
}

// staticGrid is the set-up shared by serve-scrape and serve-dashboard: a
// finished campaign that nothing advances while it is served.
func staticGrid(cfg runConfig, buf *spanBuf, root int32) (*grid, float64) {
	sp := buf.open("setup", root, 0)
	defer buf.close(sp)
	return repeatSetup(cfg.sz.setups, func() *grid {
		return buildGrid(cfg.seed, cfg.sz.staticDays, false)
	})
}

// release lets the grid's campaign be collected (see releaseFramework).
func (g *grid) release() { releaseFederation(g.fed) }

// runServeScrape is the serve-scrape workload.
func runServeScrape(cfg runConfig) *result {
	res := &result{Workload: "serve-scrape", Metrics: map[string]metric{}}
	var t tally
	mb := cfg.tr.buf()
	root := mb.open("workload", noSpan, 0)
	g, setupSec := staticGrid(cfg, mb, root)
	defer g.release()

	c := newClient(g.gw, cfg.tr, 100)
	specs := script(rand.New(rand.NewSource(cfg.seed*7919)), cfg.sz.requests, g.scrapeMix())
	before := storeMaterializations(g)

	run := mb.open("run", root, 0)
	start := time.Now()
	sp := c.buf.open("client", noSpan, 0)
	blockSec := runClosedLoop(c, specs, sp)
	c.buf.close(sp)
	elapsed := time.Since(start)
	mb.close(run)
	mb.close(root)

	heap := c.heap
	heap.final()
	recs := c.recs
	t.merge(&c.t)
	checkGridIdle(&t, g, cfg.sz.staticDays)
	res.Golden = "none"
	// Requests per second over the median block; a run too short for a
	// block falls back to the whole run.
	res.headline = float64(len(recs)) / elapsed.Seconds()
	if len(blockSec) > 0 {
		res.headline = rateBlock / median(blockSec)
	}
	res.note("%d monitor queries answered 502 by design (flaky kwapi or miswired probe), accepted and counted apart", c.badGateway)

	if cfg.tr == nil {
		res.endToEnd(setupSec, &heap, len(blockSec), latenciesMs(recs), 99)
		t.into(res)
		return res
	}

	gatewayRows(res, g, recs)
	hot := storeMaterializations(g)
	res.set("refapi.materializations", float64(hot-before), "count")
	probeFederation(res, g.fed, cfg.sz.probeCalls)
	probeGateway(res, g, cfg.sz.probeCalls)
	t.into(res)
	return res
}

// dashboardPaths is one refresh of the operator dashboard.
var dashboardPaths = []reqSpec{
	{path: "/status/grid", kind: kindStatusGrid},
	{path: "/status/trend", kind: kindStatusTrend},
	{path: "/bugs?state=open", kind: kindMerge},
	{path: "/bugs/rollup", cond: true, kind: kindMerge},
	{path: "/incidents", cond: true, kind: kindMerge},
	{path: "/chaos", kind: kindOther},
	{path: "/metrics", kind: kindOther},
}

// runServeDashboard is the serve-dashboard workload: one operator
// refreshing the status page against the static gateway.
func runServeDashboard(cfg runConfig) *result {
	res := &result{Workload: "serve-dashboard", Metrics: map[string]metric{}}
	var t tally
	mb := cfg.tr.buf()
	root := mb.open("workload", noSpan, 0)
	g, setupSec := staticGrid(cfg, mb, root)
	defer g.release()

	c := newClient(g.gw, cfg.tr, 1)
	var refreshMs []float64
	run := mb.open("run", root, 0)
	for i := 0; i < cfg.sz.refreshes; i++ {
		sp := c.buf.open("refresh", noSpan, int64(i))
		refreshStart := time.Now()
		for j := range dashboardPaths {
			c.do(&dashboardPaths[j], int64(i)<<8|int64(j), time.Time{}, sp)
		}
		refreshMs = append(refreshMs, ms(time.Since(refreshStart)))
		c.buf.close(sp)
	}
	mb.close(run)
	mb.close(root)

	heap := c.heap
	heap.final()
	recs := c.recs
	t.merge(&c.t)
	checkGridIdle(&t, g, cfg.sz.staticDays)
	res.Golden = "none"
	res.headline = 1e3 / median(refreshMs) // one client, closed loop: the median refresh's rate

	if cfg.tr == nil {
		res.endToEnd(setupSec, &heap, len(refreshMs), refreshMs, 90)
		t.into(res)
		return res
	}

	gatewayRows(res, g, recs)
	probeFederation(res, g.fed, cfg.sz.probeCalls)
	probeGateway(res, g, cfg.sz.probeCalls)
	t.into(res)
	return res
}

// checkGridIdle verifies that serving moved nothing: a static gateway's
// campaign must end the run where set-up left it.
func checkGridIdle(t *tally, g *grid, days int) {
	want := simclock.Time(days) * simclock.Day
	t.check(g.fed.Now() == want, "static gateway's clock moved to %v (set-up left it at %v)", g.fed.Now(), want)
	for _, c := range g.clusters {
		if n := c.sh.F.Ref.VersionCount(); n != days+1 {
			t.check(false, "store %s/%s holds %d versions, want %d", c.site, c.cluster, n, days+1)
			return
		}
	}
	t.check(true, "")
}

func storeMaterializations(g *grid) int64 {
	var n int64
	for _, c := range g.clusters {
		n += c.sh.F.Ref.Materializations()
	}
	return n
}
