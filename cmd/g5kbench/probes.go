package main

import (
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/checks"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/intel"
	"repro/internal/monitor"
	"repro/internal/oar"
	"repro/internal/simclock"
	"repro/internal/status"
)

// The probes time calls into each package's public functions from outside,
// on the state the workload built, after its measured phase and its
// checks. Some of them mutate that state (a submit, a re-description, a
// filed bug), which is why they run last.

// perCallNs times n calls of fn and returns the mean cost of one.
func perCallNs(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// layerCounts is how often a campaign called into each probed layer.
type layerCounts struct {
	events    float64
	submitted float64
	started   float64
	decisions float64
	checkRuns float64
	filings   float64
	builds    float64
}

// countsOf reads one framework's counters.
func countsOf(f *core.Framework) layerCounts {
	c := layerCounts{
		events:    float64(f.Clock.Fired()),
		decisions: float64(len(f.Sched.Decisions())),
		checkRuns: float64(f.Checker.Runs()),
		builds:    float64(f.CI.TotalBuilds()),
	}
	sub, started, _ := f.OAR.Stats()
	c.submitted, c.started = float64(sub), float64(started)
	for _, b := range f.Bugs.All() {
		c.filings += float64(b.Occurrences)
	}
	return c
}

func (c *layerCounts) add(o layerCounts) {
	c.events += o.events
	c.submitted += o.submitted
	c.started += o.started
	c.decisions += o.decisions
	c.checkRuns += o.checkRuns
	c.filings += o.filings
	c.builds += o.builds
}

// rows reports the counts: over every campaign of campaign-mono, over
// every micro-shard of a federation.
func (c layerCounts) rows(res *result) {
	res.set("simclock.events_fired", c.events, "count")
	res.set("oar.submitted", c.submitted, "count")
	res.set("oar.started", c.started, "count")
	res.set("sched.decisions", c.decisions, "count")
	res.set("checks.runs", c.checkRuns, "count")
	res.set("ci.builds_total", c.builds, "count")
}

// attributedNs prices the counts with the probed per-call costs already
// stored in res: the part of a campaign's host time the probed layers
// explain. The rest (suites, kadeploy, kavlan, faults, ci, the operations
// model) is core.unattributed_share.
func (c layerCounts) attributedNs(res *result) float64 {
	v := func(name string) float64 { return res.Metrics[name].Value }
	return c.events*v("simclock.schedule_fire_ns") +
		c.submitted*v("oar.submit_release_ns") +
		c.decisions*v("oar.can_start_ns") +
		c.checkRuns*v("checks.node_check_ns") +
		c.filings*v("bugs.file_dedup_ns")
}

// probeFramework fills the cost rows of the layers inside one campaign
// framework.
func probeFramework(res *result, f *core.Framework, calls int) {
	// simclock: schedule and fire synthetic events on a clock of its own.
	const clockEvents = 100000
	clk := simclock.New(1)
	fired := 0
	start := time.Now()
	for i := 0; i < clockEvents; i++ {
		clk.After(simclock.Time(i%1000)*simclock.Second, func() { fired++ })
	}
	for clk.Step() {
	}
	res.set("simclock.schedule_fire_ns", float64(time.Since(start))/clockEvents, "ns")

	// oar: an anchored and an unanchored placement probe, a submit and its
	// release, and a resource listing, on the server the campaign left.
	cl := f.TB.Clusters()[0].Name
	anchored := oar.MustParseRequest("cluster='" + cl + "'/nodes=2,walltime=0:30:00")
	unanchored := oar.MustParseRequest("nodes=2,walltime=0:30:00")
	res.set("oar.can_start_ns", perCallNs(calls, func(int) { f.OAR.CanStartNowReq(anchored) }), "ns")
	res.set("oar.can_start_grid_ns", perCallNs(calls, func(int) { f.OAR.CanStartNowReq(unanchored) }), "ns")
	one := oar.MustParseRequest("cluster='" + cl + "'/nodes=1,walltime=0:10:00")
	res.set("oar.submit_release_ns", perCallNs(calls, func(int) {
		j := f.OAR.SubmitReq(one, oar.SubmitOptions{User: "g5kbench"})
		if f.OAR.Release(j.ID) != nil {
			f.OAR.Cancel(j.ID) //nolint:errcheck // a job that never started is canceled instead
		}
	}), "ns")
	res.set("oar.resources_ns", perCallNs(calls/10, func(int) { f.OAR.Resources(cl) }), "ns")

	res.set("sched.poll_ns", perCallNs(calls/10, func(int) { f.Sched.Poll() }), "ns")

	nodes := f.TB.Nodes()
	var rep checks.Report
	res.set("checks.node_check_ns", perCallNs(calls, func(i int) {
		f.Checker.CheckNodeInto(nodes[i%len(nodes)].Name, &rep) //nolint:errcheck // the node comes from this testbed
	}), "ns")

	// bugs: re-filing a known signature is the dedup path nightly
	// re-detections take.
	f.Bugs.File("g5kbench:probe", "probe", "bench", "probe")
	res.set("bugs.file_dedup_ns", perCallNs(calls, func(int) { f.Bugs.File("g5kbench:probe", "", "bench", "probe") }), "ns")

	now := f.Clock.Now()
	res.set("monitor.query_30s_ns", perCallNs(calls/10, func(i int) {
		from := simclock.Time(i%1000) * simclock.Minute
		if from > now {
			from = 0
		}
		f.Monitor.Query(monitor.MetricPowerW, nodes[i%len(nodes)].Name, from, from+30*simclock.Second) //nolint:errcheck // a flaky kwapi is part of what a query costs
	}), "ns")

	// ci and status: the CI server's own REST handler, and the status page
	// assembling its grid through that handler in process.
	h := f.CI.Handler()
	res.set("ci.api_json_us", perCallNs(calls/100, func(int) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/api/json", nil))
	})/1e3, "us")
	sc := status.NewLocalClient(h)
	res.set("status.build_grid_ms", perCallNs(5, func(int) { sc.BuildGrid() })/1e6, "ms") //nolint:errcheck

	// refapi: a one-node update, the version lookup behind every archival
	// ETag, and materializing versions nobody has read yet.
	n0 := nodes[0]
	res.set("refapi.update_ns", perCallNs(calls/10, func(int) {
		f.Ref.Update(now, n0.Name, n0.Inv) //nolint:errcheck // n0 comes from this store's testbed
	}), "ns")
	res.set("refapi.version_at_ns", perCallNs(calls, func(i int) { f.Ref.VersionAt(simclock.Time(i%1000) * simclock.Minute) }), "ns")
	top := f.Ref.VersionCount()
	const fresh = 20
	res.set("refapi.materialize_us", perCallNs(fresh, func(i int) { f.Ref.Materialize(top - i) })/1e3, "us")
}

// biggestShard is the micro-shard with the most nodes (first on ties).
func biggestShard(fed *federation.Federation) *federation.Shard {
	var best *federation.Shard
	for _, sh := range fed.Shards() {
		if best == nil || sh.Nodes > best.Nodes {
			best = sh
		}
	}
	return best
}

// probeFederation fills the per-framework rows from the federation's
// biggest micro-shard, the counts from all of them, and the intel rows
// over all their stores and trackers.
func probeFederation(res *result, fed *federation.Federation, calls int) {
	var arcs []intel.SiteArchive
	var trackers []intel.SiteTracker
	var counts layerCounts
	var mats float64
	for _, sh := range fed.Shards() {
		f := sh.F
		arcs = append(arcs, intel.SiteArchive{Site: sh.Site, Cluster: sh.Cluster, Ref: f.Ref})
		trackers = append(trackers, intel.SiteTracker{Site: sh.Site, Bugs: f.Bugs})
		counts.add(countsOf(f))
		mats += float64(f.Ref.Materializations())
	}
	counts.rows(res)
	if _, done := res.Metrics["refapi.materializations"]; !done {
		res.set("refapi.materializations", mats, "count") // serve-scrape reports the measured phase's alone
	}

	// intel first, on the archives as the workload left them.
	now := fed.Now()
	archive := intel.NewGridArchive(arcs)
	res.set("intel.version_vector_us", perCallNs(calls/10, func(i int) {
		archive.VersionVector(now*simclock.Time(i%97)/97, nil)
	})/1e3, "us")
	res.set("intel.materialize_ms", perCallNs(5, func(i int) {
		archive.Materialize(archive.VersionVector(now*simclock.Time(i+1)/6, nil))
	})/1e6, "ms")
	res.set("intel.correlate_us", perCallNs(20, func(int) {
		intel.Correlate(trackers, intel.CorrelateOptions{At: intel.AtNow, IncludeClosed: true})
	})/1e3, "us")

	probeFramework(res, biggestShard(fed).F, calls)
}

// probeGateway fills the admission rows: placement probes and real
// admissions through the gateway's controller.
func probeGateway(res *result, g *grid, calls int) {
	ctl := g.gw.Admission()
	req := oar.MustParseRequest("nodes=1,walltime=0:10:00")
	res.set("admit.probe_us", perCallNs(calls/20, func(int) { ctl.Probe(req) })/1e3, "us")
	res.set("admit.admit_us", perCallNs(calls/100, func(int) { ctl.Admit(req, "g5kbench") })/1e3, "us")
	st := ctl.Stats()
	res.set("admit.placed", float64(st.Placed), "count")
	res.set("admit.queued", float64(st.Queued), "count")
	res.set("admit.shed", float64(st.Shed), "count")
}

// gatewayRows fills the rows measured by the timing handler around the
// gateway, grouped by route class, and the transport's overhead.
func gatewayRows(res *result, g *grid, recs []reqRec) {
	ok := func(keep func(*reqRec) bool) func(*reqRec) bool {
		return func(r *reqRec) bool { return !r.failed && keep(r) }
	}
	row := func(name string, p float64, scale float64, unit string, keep func(*reqRec) bool) {
		v := handlerUs(recs, ok(keep))
		res.setN(name, pctOr0(v, p)/scale, unit, len(v))
	}
	row("gateway.hot304_p50_us", 50, 1, "us", func(r *reqRec) bool { return r.status == http.StatusNotModified })
	row("gateway.cold_p50_us", 50, 1, "us", func(r *reqRec) bool { return r.cold })
	row("gateway.cold_p99_us", 99, 1, "us", func(r *reqRec) bool { return r.cold })
	row("gateway.merge_p50_us", 50, 1, "us", func(r *reqRec) bool { return r.kind == kindMerge })
	row("gateway.site_p50_us", 50, 1, "us", func(r *reqRec) bool { return r.kind == kindSite })
	row("gateway.submit_p50_us", 50, 1, "us", func(r *reqRec) bool { return r.kind == kindSubmit || r.kind == kindProbe })
	row("gateway.submit_p99_us", 99, 1, "us", func(r *reqRec) bool { return r.kind == kindSubmit || r.kind == kindProbe })
	row("gateway.status_grid_p50_ms", 50, 1e3, "ms", func(r *reqRec) bool { return r.kind == kindStatusGrid })
	row("gateway.status_trend_p50_ms", 50, 1e3, "ms", func(r *reqRec) bool { return r.kind == kindStatusTrend })

	var bytes float64
	var overheadNs []float64
	for i := range recs {
		bytes += float64(recs[i].bytes)
		if !recs[i].failed {
			overheadNs = append(overheadNs, float64(recs[i].rtNs-recs[i].handlerNs))
		}
	}
	res.set("gateway.bytes_per_req", bytes/float64(len(recs)), "B")
	res.setN("inproc.overhead_ns", median(overheadNs), "ns", len(overheadNs))

	// The gateway's own counters, so the ratio is measured where the work
	// happens; they include the handful of requests set-up made.
	m := g.gw.Metrics()
	var notMod int64
	for _, ep := range m.Endpoints {
		notMod += ep.NotModified
	}
	res.set("gateway.not_modified_share", float64(notMod)/float64(m.Requests), "share")
}
