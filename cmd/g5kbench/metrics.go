package main

// The metric tables. BENCHMARK.json lists the same names, units and
// directions (main_test.go holds the two together); a traced run reports
// every per-layer row on every workload, 0 where the workload gives the
// layer nothing to do.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. The pipeline wants every
// metric on every workload, so the names are generic and one operation is,
// per workload: a simulated hour advanced (campaign-mono, and campaign-fed
// on the 2-worker federation), a request send→done (serve-scrape), a whole
// dashboard refresh (serve-dashboard), a read that fell due while a live
// step was running, timed from due (serve-live). work_per_s is work per
// second over the median stretch of the measured phase (a week, a federated
// day, a block of 1000 requests, a refresh, a live step). op_tail_x is the
// operation time's tail percentile as a multiple of its median in the same
// run: p99 on serve-scrape's 84 000 requests, p90 on campaign-mono,
// campaign-fed and serve-dashboard, p85 on serve-live; each is the highest
// that sits on a smooth stretch of its distribution, not on the edge of or
// inside the nightly-hours class, where a few operations crossing over move
// a percentile by half.
//
// serve-live is bounded on both sides of its trade: work_per_s is the step,
// op_p50_ms and op_tail_x are what the step makes its readers wait. Only
// the reads that met a step count as operations. The other five sixths take
// the handler's own time, and a request every 5 ms between steps that sweep
// the heap runs cache-cold: on the shared sandbox that time followed the
// neighbours' use of the memory by a factor of three from one few-minute
// stretch to the next, and a bound cannot hold a number the host moves that
// far. All requests together are per-layer rows (bench.due_p50_us,
// bench.due_p99_us, bench.slow_share).
//
// The bounds on times are the widest the pipeline allows. What the
// sandbox's neighbours leave it of the cache and the memory moved the same
// single-threaded run's rates by 5–20 % between one few-minute stretch and
// the next (README, "One processor"), and a bound the host's own drift can
// cross would refuse innocent changes. The tail is a ratio for the same
// reason: across those stretches a raw tail moved twice as far as its
// median, the ratio half as far.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.15},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_x", "x", "lower", 0.25},
}

const (
	lower  = "lower"
	higher = "higher"
)

var perLayer = []metricDef{
	{Name: "simclock.events_fired", Unit: "count", Better: lower},
	{Name: "simclock.host_ns_per_event", Unit: "ns", Better: lower},
	{Name: "simclock.schedule_fire_ns", Unit: "ns", Better: lower},
	{Name: "core.new_start_ms", Unit: "ms", Better: lower},
	{Name: "core.week_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.week_max_ms", Unit: "ms", Better: lower},
	{Name: "core.allocs_per_sim_week", Unit: "count", Better: lower},
	{Name: "core.alloc_mb_per_sim_week", Unit: "MB", Better: lower},
	{Name: "core.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "core.unattributed_share", Unit: "share", Better: lower},
	{Name: "core.builds", Unit: "count", Better: higher},
	{Name: "core.bugs_filed", Unit: "count", Better: higher},
	{Name: "core.first_week_ok_pct", Unit: "%", Better: higher},
	{Name: "core.final_weeks_ok_pct", Unit: "%", Better: higher},
	{Name: "oar.can_start_ns", Unit: "ns", Better: lower},
	{Name: "oar.can_start_grid_ns", Unit: "ns", Better: lower},
	{Name: "oar.submit_release_ns", Unit: "ns", Better: lower},
	{Name: "oar.resources_ns", Unit: "ns", Better: lower},
	{Name: "oar.submitted", Unit: "count", Better: lower},
	{Name: "oar.started", Unit: "count", Better: higher},
	{Name: "sched.poll_ns", Unit: "ns", Better: lower},
	{Name: "sched.decisions", Unit: "count", Better: lower},
	{Name: "checks.node_check_ns", Unit: "ns", Better: lower},
	{Name: "checks.runs", Unit: "count", Better: lower},
	{Name: "bugs.file_dedup_ns", Unit: "ns", Better: lower},
	{Name: "monitor.query_30s_ns", Unit: "ns", Better: lower},
	{Name: "ci.builds_total", Unit: "count", Better: higher},
	{Name: "ci.api_json_us", Unit: "us", Better: lower},
	{Name: "status.build_grid_ms", Unit: "ms", Better: lower},
	{Name: "refapi.update_ns", Unit: "ns", Better: lower},
	{Name: "refapi.materialize_us", Unit: "us", Better: lower},
	{Name: "refapi.version_at_ns", Unit: "ns", Better: lower},
	{Name: "refapi.materializations", Unit: "count", Better: lower},
	{Name: "federation.tick_p50_ms", Unit: "ms", Better: lower},
	{Name: "federation.tick_serial_p50_ms", Unit: "ms", Better: lower},
	{Name: "federation.speedup_w2", Unit: "x", Better: higher},
	{Name: "federation.shard_step_p50_ms", Unit: "ms", Better: lower},
	{Name: "federation.shard_step_max_ms", Unit: "ms", Better: lower},
	{Name: "federation.step_sum_ms", Unit: "ms", Better: lower},
	{Name: "federation.idle_share", Unit: "share", Better: lower},
	{Name: "federation.summary_us", Unit: "us", Better: lower},
	{Name: "federation.cost_vs_mono_x", Unit: "x", Better: lower},
	{Name: "gateway.hot304_p50_us", Unit: "us", Better: lower},
	{Name: "gateway.cold_p50_us", Unit: "us", Better: lower},
	{Name: "gateway.cold_p99_us", Unit: "us", Better: lower},
	{Name: "gateway.merge_p50_us", Unit: "us", Better: lower},
	{Name: "gateway.site_p50_us", Unit: "us", Better: lower},
	{Name: "gateway.submit_p50_us", Unit: "us", Better: lower},
	{Name: "gateway.submit_p99_us", Unit: "us", Better: lower},
	{Name: "gateway.status_grid_p50_ms", Unit: "ms", Better: lower},
	{Name: "gateway.status_trend_p50_ms", Unit: "ms", Better: lower},
	{Name: "gateway.bytes_per_req", Unit: "B", Better: lower},
	{Name: "gateway.not_modified_share", Unit: "share", Better: higher},
	{Name: "gateway.lock_hold_avg_us", Unit: "us", Better: lower},
	{Name: "gateway.lock_hold_max_us", Unit: "us", Better: lower},
	{Name: "gateway.lock_steps", Unit: "count", Better: lower},
	{Name: "gateway.wait_p90_us", Unit: "us", Better: lower},
	{Name: "gateway.advance_step_p50_ms", Unit: "ms", Better: lower},
	{Name: "gateway.advance_step_p95_ms", Unit: "ms", Better: lower},
	{Name: "admit.probe_us", Unit: "us", Better: lower},
	{Name: "admit.admit_us", Unit: "us", Better: lower},
	{Name: "admit.placed", Unit: "count", Better: higher},
	{Name: "admit.queued", Unit: "count", Better: lower},
	{Name: "admit.shed", Unit: "count", Better: lower},
	{Name: "intel.version_vector_us", Unit: "us", Better: lower},
	{Name: "intel.materialize_ms", Unit: "ms", Better: lower},
	{Name: "intel.correlate_us", Unit: "us", Better: lower},
	{Name: "inproc.overhead_ns", Unit: "ns", Better: lower},
	{Name: "bench.gen_late_p50_us", Unit: "us", Better: lower},
	{Name: "bench.gen_late_p99_us", Unit: "us", Better: lower},
	{Name: "bench.due_p50_us", Unit: "us", Better: lower},
	{Name: "bench.due_p99_us", Unit: "us", Better: lower},
	{Name: "bench.queued_share", Unit: "share", Better: lower},
	{Name: "bench.achieved_rate", Unit: "1/s", Better: higher},
	{Name: "bench.slow_share", Unit: "share", Better: lower},
	{Name: "bench.fail_share", Unit: "share", Better: lower},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: lower},
}

// exactLayer names the per-layer rows that are counts of simulated work or
// simulated statistics on the two campaign workloads: they repeat exactly
// between runs of the same code, seed and size, and -compare marks any
// difference at all.
var exactLayer = map[string]bool{
	"simclock.events_fired":   true,
	"core.builds":             true,
	"core.bugs_filed":         true,
	"core.first_week_ok_pct":  true,
	"core.final_weeks_ok_pct": true,
	"ci.builds_total":         true,
	"checks.runs":             true,
	"oar.submitted":           true,
	"oar.started":             true,
	"sched.decisions":         true,
}

// workloadDef names a workload, says why it exists, and runs it.
type workloadDef struct {
	Name string
	Why  string
	run  func(runConfig) *result
}

var workloads = []workloadDef{
	{"campaign-mono", "The paper's testing campaign on the monolithic engine, hour by hour: simclock, ci, sched, oar, checks, suites and bugs do all the work, federation and gateway none.", runCampaignMono},
	{"campaign-fed", "A serial and a 2-worker federation of 32 micro-shards advanced in turn: plan, step, barrier and merge dominate; equal summaries are the determinism check.", runCampaignFed},
	{"serve-scrape", "Closed loop on a static federated gateway: 70 % hot conditional reads, 30 % cold archive walks, so a cache that helps one class and costs the other shows.", runServeScrape},
	{"serve-dashboard", "Closed loop, 1 client refreshing the status page: gateway to status to 32 CI REST servers, a path serve-scrape never touches.", runServeDashboard},
	{"serve-live", "Open loop at 200 req/s timed from due while the campaign steps an hour every 100 ms: reads wait on write-held shard locks, so step speed and read tail trade.", runServeLive},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
