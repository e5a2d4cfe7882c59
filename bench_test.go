// Benchmark harness regenerating every quantitative claim of the paper
// (each bench's comment names the slide it reproduces). Absolute
// wall-clock numbers are Go performance; the *reported metrics* (sim_* and
// count metrics) are the reproduced results.
//
// Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/inproc"
	"repro/internal/loadgen"
	"repro/internal/refapi"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// benchExperiment runs one experiment of reproduction_test.go's table b.N
// times and reports its metrics, so what `make bench` records for E1–E12
// and the ablations is what TestReproduction asserts.
func benchExperiment(b *testing.B, name string) {
	for _, e := range experiments {
		if e.name != name {
			continue
		}
		var m metrics
		for i := 0; i < b.N; i++ {
			m = e.run(b)
		}
		for unit, v := range m {
			b.ReportMetric(v, unit)
		}
		return
	}
	b.Fatalf("no experiment %q in the reproduction table", name)
}

// ---- E1–E12: the paper's numbers and the two simulated-time scaling -------
// extensions; bodies and recorded values in reproduction_test.go.

func BenchmarkE1_TestbedScale(b *testing.B)       { benchExperiment(b, "E1_TestbedScale") }
func BenchmarkE2_NodeVerification(b *testing.B)   { benchExperiment(b, "E2_NodeVerification") }
func BenchmarkE3_Deploy200Nodes(b *testing.B)     { benchExperiment(b, "E3_Deploy") }
func BenchmarkE4_MonitoringRate(b *testing.B)     { benchExperiment(b, "E4_MonitoringRate") }
func BenchmarkE5_MatrixEnvironments(b *testing.B) { benchExperiment(b, "E5_MatrixEnvironments") }
func BenchmarkE6_SchedulerPolicies(b *testing.B)  { benchExperiment(b, "E6_SchedulerPolicies") }
func BenchmarkE7_TestCoverage(b *testing.B)       { benchExperiment(b, "E7_TestCoverage") }
func BenchmarkE8_BugCampaign(b *testing.B)        { benchExperiment(b, "E8_BugCampaign") }
func BenchmarkE9_ReliabilityTrend(b *testing.B)   { benchExperiment(b, "E9_ReliabilityTrend") }
func BenchmarkE10_StatusAggregation(b *testing.B) { benchExperiment(b, "E10_StatusAggregation") }
func BenchmarkE11_ExecutorScaling(b *testing.B)   { benchExperiment(b, "E11_ExecutorScaling") }
func BenchmarkE12_SweepScaling(b *testing.B)      { benchExperiment(b, "E12_SweepScaling") }

// ---- E14: parallel multi-seed campaign fleet (reproduction extension) -------
//
// core.Fleet runs N independently seeded campaigns across real OS threads
// (each owns its simclock, so the sweep is race-free by construction) and
// aggregates the trend with mean ± spread. This bench runs the same 4-seed
// paper-profile sweep serially and at 4-way parallelism: per-seed results
// must be bit-identical, and wall-clock throughput must scale with the
// cores actually available — ≥3x at 4 workers on a ≥4-core machine. The
// assertion normalises to min(4, GOMAXPROCS) so the gate stays meaningful
// on smaller CI machines, and trips only below 60% efficiency to leave
// room for noisy-neighbor jitter on shared runners (the exact ratio is
// still recorded as speedup_x4 / parallel_efficiency_pct; determinism is
// asserted unconditionally).

func BenchmarkE14_CampaignFleet(b *testing.B) {
	const nSeeds = 4
	fc := core.FleetConfig{
		Seeds:    core.SeedRange(42, nSeeds),
		Duration: 2 * simclock.Week,
	}
	run := func(parallel int) (*core.FleetResult, float64) {
		fc.Parallel = parallel
		start := time.Now()
		res := core.RunFleet(fc)
		return res, time.Since(start).Seconds()
	}

	var speedup, eff float64
	var serial *core.FleetResult
	for i := 0; i < b.N; i++ {
		r1, t1 := run(1)
		r4, t4 := run(4)
		serial = r1
		for k := range r1.Campaigns {
			if r1.Campaigns[k].Summary != r4.Campaigns[k].Summary {
				b.Fatalf("seed %d diverged between serial and parallel sweeps",
					r1.Campaigns[k].Seed)
			}
		}
		speedup = t1 / t4
		ideal := min(nSeeds, runtime.GOMAXPROCS(0))
		eff = speedup / float64(ideal)
		if eff < 0.6 {
			b.Fatalf("fleet speedup %.2fx at 4 workers is <60%% of the %dx this %d-core machine allows",
				speedup, ideal, runtime.GOMAXPROCS(0))
		}
	}
	if serial.FirstWeek.N != nSeeds || serial.FirstWeek.Mean > 0.92 {
		b.Fatalf("fleet trend shape off: %+v", serial.FirstWeek)
	}
	b.ReportMetric(speedup, "speedup_x4")
	b.ReportMetric(100*eff, "parallel_efficiency_pct")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(nSeeds), "seeds")
	b.ReportMetric(100*serial.FirstWeek.Mean, "first_week_mean_pct")
	b.ReportMetric(100*serial.FirstWeek.Std, "first_week_std_pct")
	b.ReportMetric(100*serial.FinalWeeks.Mean, "final_weeks_mean_pct")
	b.ReportMetric(serial.BugsFiled.Mean, "bugs_filed_mean")
	b.ReportMetric(serial.BugsFiled.Std, "bugs_filed_std")
}

// ---- E13: Reference API version churn is O(changed nodes) -------------------
//
// Before the copy-on-write store, every single-node Update deep-copied the
// whole snapshot — O(total nodes) time and memory per version. This bench
// drives the same churn (20k single-node corrections) against the paper
// testbed and a 4x-scaled one (testbed.Scaled(4), 3576 nodes): with the
// delta chain the per-update cost must not grow with testbed size, and
// archived versions stay readable afterwards.

func BenchmarkE13_RefAPIVersionChurn(b *testing.B) {
	const updates = 20000
	// churn returns wall ns and heap allocations per single-node Update.
	// The assertion rides on allocations: they are deterministic (wall time
	// at -benchtime=1x is at the mercy of GC cycles whose scan cost grows
	// with the larger testbed's live heap) and they are exactly what the
	// old full-snapshot Clone made O(total nodes) — ~2.7k allocs per update
	// at 1x, ~10.7k at 4x, versus a flat handful for the delta chain.
	churn := func(scale int) (float64, float64) {
		tb := testbed.Scaled(scale)
		st := refapi.NewStore(tb, 0)
		nodes := tb.Nodes()
		u := 0
		start := time.Now()
		allocs := testing.AllocsPerRun(updates-1, func() {
			n := nodes[(u*131)%len(nodes)]
			inv := n.Inv.Clone()
			inv.RAMGB = 8 + u%64
			if err := st.Update(simclock.Time(u+1)*simclock.Second, n.Name, inv); err != nil {
				b.Fatal(err)
			}
			u++
		})
		elapsed := time.Since(start)
		if st.VersionCount() != updates+1 {
			b.Fatalf("versions = %d, want %d", st.VersionCount(), updates+1)
		}
		// Archival queries still answer after churn (binary search + lazy
		// materialization).
		if s := st.At(simclock.Time(updates/2) * simclock.Second); s == nil || s.Version != updates/2+1 {
			b.Fatalf("At(mid-churn) = %v", s)
		}
		return float64(elapsed.Nanoseconds()) / updates, allocs
	}

	var ns1, ns4, al1, al4 float64
	for i := 0; i < b.N; i++ {
		ns1, al1 = churn(1)
		ns4, al4 = churn(4)
	}
	// O(total nodes) behaviour would make the 4x testbed allocate ~4x more
	// per update; the delta chain keeps the cost flat and tiny.
	if al4 > 2*al1 || al4 > 50 {
		b.Fatalf("per-update allocations grew with testbed size: %.1f at 1x vs %.1f at 4x", al1, al4)
	}
	b.ReportMetric(ns1, "ns_per_update_x1")
	b.ReportMetric(ns4, "ns_per_update_x4")
	b.ReportMetric(al1, "allocs_per_update_x1")
	b.ReportMetric(al4, "allocs_per_update_x4")
	b.ReportMetric(al4/al1, "scale_penalty_x4")
}

// ---- E15: API gateway throughput scaling (reproduction extension) -----------
//
// The unified gateway (internal/gateway) serves a finished one-week
// campaign to the loadgen scraper mix: conditional Reference API reads
// (almost all answered from the ETag/304 path), per-cluster resource
// listings and CI root reads, dispatched through the in-process transport
// so only the service code is measured. The reproduced result is
// requests/sec scaling from 1 to 4 client workers. Like E14, the gate
// normalises to the cores actually available: ≥3x at 4 workers on a
// ≥4-core machine, ≥60% parallel efficiency below that.

func BenchmarkE15_GatewayThroughput(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Seed = 15
	cfg.InitialFaults = 10
	cfg.EnvMatrixPeriod = 0
	f := core.New(cfg)
	f.Start()
	f.RunFor(simclock.Week)
	gw := gateway.ForFramework(f)
	var clusters []string
	for _, cl := range f.TB.Clusters()[:8] {
		clusters = append(clusters, cl.Name)
	}

	const iters = 1200
	run := func(workers int) *loadgen.Report {
		rep, err := loadgen.Run(loadgen.Config{
			Workers:  workers,
			Requests: iters,
			Mix:      loadgen.ScrapeOnlyMix(clusters),
			Seed:     1,
			NewClient: func(int) (*http.Client, string) {
				return inproc.Client(gw), "http://gateway.local"
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors != 0 {
			b.Fatalf("%d errors at %d workers", rep.Errors, workers)
		}
		return rep
	}
	// Best of two runs per worker count damps scheduler noise at
	// -benchtime=1x.
	best := func(workers int) *loadgen.Report {
		r1, r2 := run(workers), run(workers)
		if r2.Throughput > r1.Throughput {
			return r2
		}
		return r1
	}

	var rps1, rps4, speedup float64
	var hot *loadgen.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1 := best(1)
		r4 := best(4)
		rps1, rps4 = r1.Throughput, r4.Throughput
		speedup = rps4 / rps1
		hot = r4
		// Conditional Reference API reads must ride the 304 path: the mix
		// issues 2 conditional reads per iteration and only each worker's
		// first read of inventory and diff pays a full response (2 per
		// worker, 4 workers).
		if want := int64(2*iters - 2*4); hot.NotModified < want {
			b.Fatalf("only %d of ≥%d conditional reads hit 304", hot.NotModified, want)
		}
		ideal := min(4, runtime.GOMAXPROCS(0))
		required := 0.6 * float64(ideal)
		if ideal >= 4 {
			required = 3.0
		}
		if speedup < required {
			b.Fatalf("gateway throughput scaled %.2fx from 1→4 workers, need ≥%.1fx on this %d-core machine",
				speedup, required, runtime.GOMAXPROCS(0))
		}
	}
	b.ReportMetric(rps1, "iters_per_sec_x1")
	b.ReportMetric(rps4, "iters_per_sec_x4")
	b.ReportMetric(speedup, "speedup_x4")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(hot.NotModified), "hits_304")
	b.ReportMetric(float64(hot.Latency.P50.Microseconds()), "p50_us")
	b.ReportMetric(float64(hot.Latency.P99.Microseconds()), "p99_us")
}

// ---- E16: mixed production workload on the gateway (repro extension) --------
//
// The full loadgen mix — operator dashboards (status grid, trend, open
// bugs), API scrapers (conditional Reference API + resources) and
// submission-heavy tooling (dry-run probes through OAR's CanStartNow path
// plus real submissions) — against one gateway, 4 workers, with a
// background driver advancing the campaign underneath the whole time. The
// reproduced result is the workload completing error-free with every
// consumer population served, plus the latency spread and the
// p99-vs-lock-hold comparison: how much of the read tail is reads queued
// behind the advance's write-lock hold.

func BenchmarkE16_MixedWorkload(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Seed = 16
	cfg.InitialFaults = 15
	cfg.EnvMatrixPeriod = 0
	f := core.New(cfg)
	f.Start()
	f.RunFor(simclock.Week)
	gw := gateway.ForFramework(f)
	var clusters []string
	for _, cl := range f.TB.Clusters()[:8] {
		clusters = append(clusters, cl.Name)
	}

	const iters = 300
	var rep *loadgen.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Advance pressure: a background driver steps the campaign an hour
		// at a time while the workload runs, so the reported p99 is
		// measured against live write-lock churn. AdvanceLockStats then
		// says how long each advance actually held the shard write lock —
		// the p99-vs-lock-hold comparison below is the E16 investigation's
		// reproducible form.
		stop := make(chan struct{})
		advDone := make(chan struct{})
		go func() {
			defer close(advDone)
			for {
				select {
				case <-stop:
					return
				default:
					gw.Advance(simclock.Hour)
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
		var err error
		rep, err = loadgen.Run(loadgen.Config{
			Workers:  4,
			Requests: iters,
			Mix:      loadgen.DefaultMix(clusters),
			Seed:     2,
			NewClient: func(int) (*http.Client, string) {
				return inproc.Client(gw), "http://gateway.local"
			},
		})
		close(stop)
		<-advDone
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors != 0 {
			b.Fatalf("%d errors in mixed workload:\n%s", rep.Errors, rep)
		}
		for _, s := range rep.Scenarios {
			if s.Iterations == 0 {
				b.Fatalf("scenario %s never ran", s.Name)
			}
		}
	}
	m := gw.Metrics()
	if m.Endpoints["/oar/submit"].Requests == 0 || m.Endpoints["/status/grid"].Requests == 0 {
		b.Fatalf("endpoint coverage hole: %+v", m.Endpoints)
	}
	b.ReportMetric(rep.Throughput, "iters_per_sec")
	b.ReportMetric(float64(rep.HTTPRequests), "http_requests")
	b.ReportMetric(float64(rep.NotModified), "hits_304")
	b.ReportMetric(float64(rep.Latency.P50.Microseconds()), "p50_us")
	b.ReportMetric(float64(rep.Latency.P99.Microseconds()), "p99_us")
	// The p99 investigation's verdict: reads queue behind the advance's
	// write lock, so the read tail is bounded below by the longest hold.
	// On a monolithic gateway the whole campaign steps under one lock —
	// the per-cluster micro-shards (E21) shrink exactly this hold.
	lh := gw.AdvanceLockStats()
	b.ReportMetric(float64(lh.Steps), "advance_lock_steps")
	b.ReportMetric(lh.AvgMicros, "advance_lock_avg_us")
	b.ReportMetric(lh.MaxMicros, "advance_lock_max_us")
	if lh.MaxMicros > 0 {
		b.ReportMetric(float64(rep.Latency.P99.Microseconds())/lh.MaxMicros, "p99_over_lock_hold_x")
	}
	for _, s := range rep.Scenarios {
		b.ReportMetric(float64(s.Iterations), s.Name+"_iters")
	}
}

// ---- E17: federated campaign advance (reproduction extension) ----------------
//
// The campaign federated into per-cluster micro-shards (internal/federation):
// each cluster owns its OAR, monitor, CI, fault/operator processes and RNG
// stream under its site's label, and the federation steps them through
// weekly barriers. Three properties gate here:
//
//  1. determinism — stepping the 32 micro-shards serially or on 4 workers
//     yields bit-identical per-site and merged campaign summaries;
//  2. throughput — the parallel advance must be ≥2.5x the serial one at
//     4 shard workers on a ≥4-core machine (the uneven real site sizes —
//     nancy is ~2x luxembourg — cost part of the ideal 4x). Below 4 cores
//     the gate normalises to ≥62.5% parallel efficiency, like E14/E15;
//  3. read availability — while a serial whole-grid Advance works its way
//     through the other 30 micro-shards, one write lock at a time, reads
//     against luxembourg keep completing through the federated gateway's
//     per-shard locks.

func BenchmarkE17_FederatedAdvance(b *testing.B) {
	const weeks = 2
	shardProfile := func(site string, seed int64) core.Config {
		cfg := core.DefaultConfig()
		cfg.InitialFaults = 10
		cfg.EnvMatrixPeriod = 0
		return cfg
	}
	run := func(workers int) (*federation.Federation, float64) {
		fed := federation.New(federation.Config{Seed: 17, Workers: workers, Configure: shardProfile})
		fed.Start()
		start := time.Now()
		fed.Advance(weeks * simclock.Week)
		return fed, time.Since(start).Seconds()
	}

	var speedup, eff float64
	var reads, shardCount int
	var merged federation.Summary
	for i := 0; i < b.N; i++ {
		fedS, t1 := run(1)
		fedP, t4 := run(4)
		shardCount = len(fedP.Shards())
		sumS, sumP := fedS.Summary(), fedP.Summary()
		merged = sumS
		if len(sumS.Sites) != 8 || len(sumP.Sites) != 8 {
			b.Fatalf("federation has %d/%d sites, want 8", len(sumS.Sites), len(sumP.Sites))
		}
		for k := range sumS.Sites {
			if sumS.Sites[k] != sumP.Sites[k] {
				b.Fatalf("site %s diverged between serial and parallel shard stepping:\nserial:   %+v\nparallel: %+v",
					sumS.Sites[k].Site, sumS.Sites[k].Summary, sumP.Sites[k].Summary)
			}
		}
		if sumS.Merged != sumP.Merged {
			b.Fatalf("merged summary diverged:\nserial:   %+v\nparallel: %+v", sumS.Merged, sumP.Merged)
		}
		if !reflect.DeepEqual(fedS.WeeklyReport(), fedP.WeeklyReport()) {
			b.Fatal("merged weekly reports diverged between serial and parallel stepping")
		}

		speedup = t1 / t4
		ideal := min(4, runtime.GOMAXPROCS(0))
		eff = speedup / float64(ideal)
		required := 0.625 * float64(ideal)
		if ideal >= 4 {
			required = 2.5
		}
		if speedup < required {
			b.Fatalf("federated advance scaled %.2fx at 4 shard workers, need ≥%.2fx on this %d-core machine",
				speedup, required, runtime.GOMAXPROCS(0))
		}

		// Read availability: luxembourg reads must complete while a serial
		// advance of the whole grid is in flight — it holds one micro-shard's
		// write lock at a time, luxembourg's two for a sixteenth of the tick.
		// One simulated day: long enough for thousands of reads, short enough
		// that their allocations stay a small part of the tracked allocs/op.
		gw := gateway.ForFederation(fedS)
		c := inproc.Client(gw)
		readA := func() {
			resp, err := c.Get("http://gw.local/sites/luxembourg/oar/resources")
			if err != nil {
				b.Fatalf("site-A read: %v", err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("site-A read status = %d", resp.StatusCode)
			}
		}
		readA() // warm path before the advance starts
		var done atomic.Bool
		go func() {
			gw.Advance(simclock.Day)
			done.Store(true)
		}()
		reads = 0
		for !done.Load() {
			readA()
			reads++
		}
		if reads == 0 {
			b.Fatal("no luxembourg read completed while the grid's advance was in flight")
		}
	}
	if merged.Merged.Builds == 0 || merged.Merged.BugsFiled == 0 {
		b.Fatalf("federated campaign shape off: %+v", merged.Merged)
	}
	b.ReportMetric(speedup, "speedup_x4")
	b.ReportMetric(100*eff, "parallel_efficiency_pct")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(shardCount), "shards")
	b.ReportMetric(8, "sites")
	b.ReportMetric(float64(reads), "reads_during_advance")
	b.ReportMetric(float64(merged.Merged.Builds), "builds")
	b.ReportMetric(float64(merged.Merged.BugsFiled), "bugs_filed")
	b.ReportMetric(100*merged.Merged.FirstWeek.Rate(), "first_week_pct")
	b.ReportMetric(100*merged.Merged.LastWeek.Rate(), "last_week_pct")
}

// ---- E18: disaster availability (site-scale chaos) --------------------------
//
// The robustness gate over the chaos layer: a deterministic disaster
// schedule (site outage + WAN partition) must leave serial and parallel
// federated advances bit-identical, a live outage must cost the surviving
// sites no availability (merged and surviving routes keep serving; only the
// lost site answers 503-by-design with Retry-After), and healing must
// restore full service with the lost shard caught back up to lockstep.

func BenchmarkE18_DisasterAvailability(b *testing.B) {
	chaosSites := []string{"luxembourg", "nantes", "lyon", "sophia"}
	spec := func() []testbed.ClusterSpec {
		want := map[string]bool{}
		for _, s := range chaosSites {
			want[s] = true
		}
		var out []testbed.ClusterSpec
		for _, cs := range testbed.DefaultSpec {
			if want[cs.Site] {
				out = append(out, cs)
			}
		}
		return out
	}()
	shardProfile := func(site string, seed int64) core.Config {
		cfg := core.DefaultConfig()
		cfg.InitialFaults = 10
		cfg.EnvMatrixPeriod = 0
		return cfg
	}
	schedule := []faults.ScheduleEntry{
		{Kind: faults.SiteOutage, Sites: []string{"lyon"}, At: simclock.Week, Duration: simclock.Week},
		{Kind: faults.WANPartition, Sites: []string{"nantes"}, At: simclock.Week, Duration: 2 * simclock.Week},
	}
	runDisaster := func(workers int) *federation.Federation {
		fed := federation.New(federation.Config{
			Seed: 18, Workers: workers, Spec: spec, Configure: shardProfile,
		})
		fed.Start()
		if err := fed.ScheduleChaos(schedule...); err != nil {
			b.Fatalf("schedule: %v", err)
		}
		fed.Advance(3 * simclock.Week)
		return fed
	}

	var surviving, lost float64
	var tolerated int64
	for i := 0; i < b.N; i++ {
		// Phase 1 — fault-schedule determinism: the same disaster campaign,
		// stepped serially and on 4 shard workers, must be bit-identical
		// (frozen weeks, catch-up ticks, grid tickets and all).
		fedS, fedP := runDisaster(1), runDisaster(4)
		sumS, sumP := fedS.Summary(), fedP.Summary()
		for k := range sumS.Sites {
			if sumS.Sites[k] != sumP.Sites[k] {
				b.Fatalf("site %s diverged through the disaster:\nserial:   %+v\nparallel: %+v",
					sumS.Sites[k].Site, sumS.Sites[k], sumP.Sites[k])
			}
		}
		if sumS.Merged != sumP.Merged {
			b.Fatalf("merged summary diverged:\nserial:   %+v\nparallel: %+v", sumS.Merged, sumP.Merged)
		}
		if !reflect.DeepEqual(fedS.WeeklyReport(), fedP.WeeklyReport()) {
			b.Fatal("merged weekly reports diverged through the disaster")
		}
		for _, sh := range fedP.Shards() {
			if got := sh.F.Clock.Now(); got != 3*simclock.Week {
				b.Fatalf("site %s clock = %v after heal + catch-up, want %v", sh.Site, got, 3*simclock.Week)
			}
		}

		// Phase 2 — availability under a live outage: front a fresh
		// federation with the gateway, take lyon down, and drive the
		// disaster mix. Tolerated 503s (the lost site's by-design answers)
		// are split from real errors; surviving sites must serve ≥99%
		// without a single 503.
		fed := federation.New(federation.Config{
			Seed: 18, Workers: 4, Spec: spec, Configure: shardProfile,
		})
		fed.Start()
		gw := gateway.ForFederation(fed)
		gw.Advance(simclock.Week)
		ev, err := fed.InjectGrid(faults.SiteOutage, []string{"lyon"}, 0, 0)
		if err != nil {
			b.Fatalf("inject: %v", err)
		}
		// Micro-shards are per cluster; the load generator targets sites, so
		// fold each site's shards into one target.
		var targets []loadgen.SiteTarget
		siteIdx := map[string]int{}
		for _, sh := range fed.Shards() {
			ti, ok := siteIdx[sh.Site]
			if !ok {
				ti = len(targets)
				siteIdx[sh.Site] = ti
				targets = append(targets, loadgen.SiteTarget{Site: sh.Site})
			}
			for _, cl := range sh.F.TB.Clusters() {
				targets[ti].Clusters = append(targets[ti].Clusters, cl.Name)
			}
			if nodes := sh.F.TB.Nodes(); len(targets[ti].Nodes) == 0 && len(nodes) > 0 {
				targets[ti].Nodes = []string{nodes[0].Name}
			}
		}
		newClient := func(int) (*http.Client, string) { return inproc.Client(gw), "http://gw.local" }
		rep, err := loadgen.Run(loadgen.Config{
			Workers: 4, Requests: 400, Seed: 18,
			Mix: loadgen.DisasterMix(targets), NewClient: newClient,
		})
		if err != nil {
			b.Fatalf("loadgen: %v", err)
		}
		if rep.Errors != 0 {
			b.Fatalf("disaster run produced %d real errors (503-by-design should be tolerated)", rep.Errors)
		}
		av := rep.Availability()
		tolerated = av.Tolerated503
		if tolerated == 0 {
			b.Fatal("no tolerated 503s: the outage never reached the wire")
		}
		surviving, lost = 1, 0
		for _, site := range av.Sites {
			if site.Site == "lyon" {
				lost = site.Availability
				if site.Tolerated503 == 0 {
					b.Fatalf("lost site saw no 503s: %+v", site)
				}
				continue
			}
			if site.Availability < surviving {
				surviving = site.Availability
			}
			if site.Tolerated503 != 0 {
				b.Fatalf("surviving site %s answered %d × 503", site.Site, site.Tolerated503)
			}
		}
		if surviving < 0.99 {
			b.Fatalf("surviving-site availability %.4f, gate needs ≥0.99", surviving)
		}
		if lost < 0.99 {
			b.Fatalf("lost-site availability %.4f (503-by-design must not count as errors)", lost)
		}

		// Phase 3 — heal and full recovery: the lost shard catches up to
		// lockstep and a second run sees zero 503s anywhere.
		if _, err := fed.HealGrid(ev.ID); err != nil {
			b.Fatalf("heal: %v", err)
		}
		gw.Advance(simclock.Week)
		for _, sh := range fed.Shards() {
			if got := sh.F.Clock.Now(); got != 2*simclock.Week {
				b.Fatalf("site %s clock = %v after heal, want %v", sh.Site, got, 2*simclock.Week)
			}
		}
		rep, err = loadgen.Run(loadgen.Config{
			Workers: 4, Requests: 200, Seed: 19,
			Mix: loadgen.DisasterMix(targets), NewClient: newClient,
		})
		if err != nil {
			b.Fatalf("recovery loadgen: %v", err)
		}
		if rep.Errors != 0 || rep.Tolerated503 != 0 {
			b.Fatalf("recovery run: %d errors, %d × 503 (want 0, 0)", rep.Errors, rep.Tolerated503)
		}
		if fed.Degraded() {
			b.Fatal("federation still degraded after heal")
		}
	}
	b.ReportMetric(100*surviving, "surviving_availability_pct")
	b.ReportMetric(100*lost, "lost_site_availability_pct")
	b.ReportMetric(float64(tolerated), "tolerated_503")
	b.ReportMetric(float64(len(chaosSites)), "sites")
	b.ReportMetric(float64(len(schedule)), "grid_events")
}

// ---- E19: grid admission & overload shedding (robustness) -------------------
//
// The overload gate over the admission layer (internal/admit): unanchored
// submissions route through grid-level admission, and when open-loop
// traffic drives the grid past its capacity knee the layer must degrade
// by contract, not collapse. Three properties gate:
//
//  1. determinism — the same submission sequence, probed serially or with
//     the goroutine fan-out, yields a bit-identical placement trace
//     (status, site per request) and identical admission counters;
//  2. bounded overload — past the knee the reservation queue never grows
//     beyond its cap, load is shed with 429, ≥99% of sheds carry
//     Retry-After, and nothing surfaces as a real error;
//  3. admitted latency — at a fixed fraction of grid capacity every
//     request places immediately and p99 (measured open-loop from the
//     scheduled arrival, so queueing cannot hide) stays under 250ms.

func BenchmarkE19_OverloadShedding(b *testing.B) {
	admitSites := map[string]bool{"luxembourg": true, "nantes": true}
	var spec []testbed.ClusterSpec
	for _, cs := range testbed.DefaultSpec {
		if admitSites[cs.Site] {
			spec = append(spec, cs)
		}
	}
	shardProfile := func(site string, seed int64) core.Config {
		cfg := core.DefaultConfig()
		cfg.InitialFaults = 0
		cfg.EnvMatrixPeriod = 0
		return cfg
	}
	newGrid := func(queueCap int, scatter func([]func())) (*federation.Federation, *gateway.Gateway) {
		fed := federation.New(federation.Config{
			Seed: 19, Workers: 4, Spec: spec, Configure: shardProfile,
		})
		fed.Start()
		gw := gateway.ForFederation(fed)
		gw.Advance(simclock.Hour)
		policy := sched.DefaultGridPolicy()
		gw.EnableAdmission(admit.Config{
			Now: fed.Now, Policy: &policy, QueueCap: queueCap, Scatter: scatter,
		})
		return fed, gw
	}
	serialScatter := func(tasks []func()) {
		for _, t := range tasks {
			t()
		}
	}
	submit := func(c *http.Client, body string) (int, gateway.SubmitResponse) {
		resp, err := c.Post("http://gw.local/oar/submit", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatalf("submit: %v", err)
		}
		defer resp.Body.Close()
		var sub gateway.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			b.Fatalf("submit decode: %v", err)
		}
		return resp.StatusCode, sub
	}

	var stats admit.StatsJSON
	var hintedPct, offered, achieved, p99Admitted float64
	var gridNodes int
	for i := 0; i < b.N; i++ {
		// Phase 1 — placement determinism: the same 140-submission sequence
		// (small demands that place and drain capacity, oversized ones that
		// queue) through serial and parallel probing must leave identical
		// traces and identical counters. Placement is a pure function of the
		// gathered probe slots; the fan-out must not change a single routing.
		trace := func(scatter func([]func())) ([]string, admit.StatsJSON) {
			_, gw := newGrid(0, scatter)
			c := inproc.Client(gw)
			out := make([]string, 0, 140)
			for n := 0; n < 140; n++ {
				nodes := 1 + n%5
				if n%17 == 0 {
					nodes = 999 // startable nowhere: exercises the queue path
				}
				code, sub := submit(c, fmt.Sprintf(`{"request":"nodes=%d,walltime=12","user":"e19"}`, nodes))
				out = append(out, fmt.Sprintf("%d:%s:%s", code, sub.Admission, sub.Site))
			}
			return out, gw.Admission().Stats()
		}
		traceS, statsS := trace(serialScatter)
		traceP, statsP := trace(nil) // nil = the gateway's goroutine fan-out
		if !reflect.DeepEqual(traceS, traceP) {
			for k := range traceS {
				if traceS[k] != traceP[k] {
					b.Fatalf("placement %d diverged: serial %s, parallel %s", k, traceS[k], traceP[k])
				}
			}
		}
		if statsS != statsP {
			b.Fatalf("admission counters diverged:\nserial:   %+v\nparallel: %+v", statsS, statsP)
		}

		// Phase 2 — overload shedding: open-loop arrivals far past what the
		// grid can absorb (every placement holds its nodes for 12 simulated
		// hours and nothing advances, so capacity only drains). The queue
		// must stay within its cap, the excess must shed as 429 with
		// Retry-After, and none of it may count as a real error.
		fed, gw := newGrid(16, nil)
		gridNodes = 0
		for _, sh := range fed.Shards() {
			gridNodes += sh.F.TB.TotalNodes()
		}
		newClient := func(int) (*http.Client, string) { return inproc.Client(gw), "http://gw.local" }
		mixFor := func(accept ...int) []loadgen.Scenario {
			return []loadgen.Scenario{{Name: "grid-submit", Weight: 1, Run: func(c *loadgen.Ctx) error {
				return c.PostJSONAccept("/oar/submit", `{"request":"nodes=4,walltime=12","user":"e19"}`, accept...)
			}}}
		}
		olr, err := loadgen.RunOpenLoop(loadgen.OpenLoopConfig{
			Rate: 3000, Requests: 500, Workers: 4, Seed: 19, JitterFrac: 0.2,
			Mix: mixFor(http.StatusTooManyRequests), NewClient: newClient,
		})
		if err != nil {
			b.Fatalf("overload run: %v", err)
		}
		stats = gw.Admission().Stats()
		if olr.Errors != 0 {
			b.Fatalf("overload run surfaced %d real errors (sheds must be 429-by-contract)", olr.Errors)
		}
		if stats.Placed == 0 || stats.Shed == 0 {
			b.Fatalf("knee not crossed: %+v", stats)
		}
		if stats.MaxDepth > stats.Capacity {
			b.Fatalf("queue grew to %d past its cap of %d", stats.MaxDepth, stats.Capacity)
		}
		if olr.Tolerated429 != stats.Shed {
			b.Fatalf("wire saw %d × 429, controller shed %d", olr.Tolerated429, stats.Shed)
		}
		if 100*olr.Hinted429 < 99*olr.Tolerated429 {
			b.Fatalf("only %d of %d sheds carried Retry-After, gate needs ≥99%%", olr.Hinted429, olr.Tolerated429)
		}
		hintedPct = 100 * float64(olr.Hinted429) / float64(olr.Tolerated429)
		offered, achieved = olr.OfferedRate, olr.AchievedRate

		// Phase 3 — admitted latency: a fresh grid offered demand for half
		// its free capacity (the campaign's own jobs hold some nodes) at a
		// modest rate. Everything must place immediately (no queue, no shed)
		// and p99 — charged from the scheduled arrival, the
		// coordinated-omission-safe measure — stays under 250ms.
		fed3, gw3 := newGrid(0, nil)
		gw = gw3
		free := 0
		for _, sh := range fed3.Shards() {
			free += sh.F.TB.TotalNodes() - sh.F.OAR.BusyNodes()
		}
		newClient = func(int) (*http.Client, string) { return inproc.Client(gw), "http://gw.local" }
		admitN := free / 2 / 4 // nodes=4 per request → half the free capacity
		rep, err := loadgen.RunOpenLoop(loadgen.OpenLoopConfig{
			Rate: 400, Requests: admitN, Workers: 4, Seed: 20, JitterFrac: 0.2,
			Mix: mixFor(), NewClient: newClient,
		})
		if err != nil {
			b.Fatalf("admitted run: %v", err)
		}
		ast := gw.Admission().Stats()
		if rep.Errors != 0 || ast.Queued != 0 || ast.Shed != 0 || ast.Placed != int64(admitN) {
			b.Fatalf("half-capacity demand did not all place: %d errors, %+v", rep.Errors, ast)
		}
		p99Admitted = float64(rep.Latency.P99.Microseconds())
		if rep.Latency.P99 > 250*time.Millisecond {
			b.Fatalf("admitted p99 = %v, gate needs ≤250ms", rep.Latency.P99)
		}
	}
	b.ReportMetric(float64(gridNodes), "grid_nodes")
	b.ReportMetric(float64(stats.Placed), "placed")
	b.ReportMetric(float64(stats.Queued), "queued")
	b.ReportMetric(float64(stats.Shed), "shed_429")
	b.ReportMetric(float64(stats.MaxDepth), "queue_max_depth")
	b.ReportMetric(float64(stats.Capacity), "queue_cap")
	b.ReportMetric(hintedPct, "retry_after_pct")
	b.ReportMetric(offered, "offered_rps")
	b.ReportMetric(achieved, "achieved_rps")
	b.ReportMetric(p99Admitted, "admitted_p99_us")
}

// ---- E20: grid intelligence (archive determinism & incident rollup) ---------
//
// The gate over the grid intelligence layer (internal/intel) as served by
// the gateway. Three properties:
//
//  1. federated time-travel determinism — the same disaster campaign
//     (outage + WAN partition on the E18 schedule), stepped serially and
//     on 4 shard workers, must serve bit-identical /grid/at, /grid/diff,
//     /incidents and /bugs/rollup bodies for every probed instant: frozen
//     weeks and catch-up ticks must not leak into the archive;
//  2. conditional-request economics — hot conditional /grid/at re-reads
//     answer 304 and unconditional re-reads serve the cached body while
//     the summed per-store materialization counters stay flat, so a
//     historical read costs one binary search per site, not a snapshot
//     rebuild;
//  3. incident-rollup stability — the outage's ticket burst (one ticket
//     per surviving shard, same signature) folds into exactly one
//     incident spanning those sites, with one ticket per affected site.

func BenchmarkE20_GridIntelligence(b *testing.B) {
	chaosSites := []string{"luxembourg", "nantes", "lyon", "sophia"}
	spec := func() []testbed.ClusterSpec {
		want := map[string]bool{}
		for _, s := range chaosSites {
			want[s] = true
		}
		var out []testbed.ClusterSpec
		for _, cs := range testbed.DefaultSpec {
			if want[cs.Site] {
				out = append(out, cs)
			}
		}
		return out
	}()
	shardProfile := func(site string, seed int64) core.Config {
		cfg := core.DefaultConfig()
		cfg.InitialFaults = 10
		cfg.EnvMatrixPeriod = 0
		return cfg
	}
	schedule := []faults.ScheduleEntry{
		{Kind: faults.SiteOutage, Sites: []string{"lyon"}, At: simclock.Week, Duration: simclock.Week},
		{Kind: faults.WANPartition, Sites: []string{"nantes"}, At: simclock.Week, Duration: 2 * simclock.Week},
	}
	runIntel := func(workers int) (*federation.Federation, *gateway.Gateway) {
		fed := federation.New(federation.Config{
			Seed: 20, Workers: workers, Spec: spec, Configure: shardProfile,
		})
		fed.Start()
		if err := fed.ScheduleChaos(schedule...); err != nil {
			b.Fatalf("schedule: %v", err)
		}
		gw := gateway.ForFederation(fed)
		gw.Advance(3 * simclock.Week)
		return fed, gw
	}
	fetch := func(c *http.Client, path string) (string, []byte) {
		resp, err := c.Get("http://gw.local" + path)
		if err != nil {
			b.Fatalf("GET %s: %v", path, err)
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: status %d (read err %v): %s", path, resp.StatusCode, rerr, body)
		}
		return resp.Header.Get("ETag"), body
	}
	conditional := func(c *http.Client, path, etag string) int {
		req, _ := http.NewRequest(http.MethodGet, "http://gw.local"+path, nil)
		req.Header.Set("If-None-Match", etag)
		resp, err := c.Do(req)
		if err != nil {
			b.Fatalf("conditional GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}

	var versions, hot304, incidentCount, outageSites float64
	for i := 0; i < b.N; i++ {
		// Phase 1 — serial ≡ parallel: every intel body bit-identical.
		_, gwS := runIntel(1)
		fedP, gwP := runIntel(4)
		cS, cP := inproc.Client(gwS), inproc.Client(gwP)
		probes := []string{
			"/grid/at?t=302400",  // mid week 1: whole grid, pre-disaster
			"/grid/at?t=907200",  // mid week 2: lyon frozen, nantes cut
			"/grid/at?t=1814400", // week 3 barrier: healed and caught up
			"/grid/diff?from=302400&to=1814400",
			"/incidents?state=all",
			"/incidents?at=1209600",
			"/bugs/rollup?state=all",
		}
		for _, p := range probes {
			etagS, bodyS := fetch(cS, p)
			etagP, bodyP := fetch(cP, p)
			if etagS != etagP || !bytes.Equal(bodyS, bodyP) {
				b.Fatalf("%s diverged between serial and parallel stepping:\nserial:   %s %d bytes\nparallel: %s %d bytes",
					p, etagS, len(bodyS), etagP, len(bodyP))
			}
		}

		// Phase 2 — hot-304 economics on the parallel gateway: conditional
		// and cached re-reads must not materialize a single snapshot.
		sumMats := func() int64 {
			var n int64
			for _, sh := range fedP.Shards() {
				n += sh.F.Ref.Materializations()
			}
			return n
		}
		etag, _ := fetch(cP, "/grid/at?t=907200") // body + caches warm
		mats := sumMats()
		hot304 = 0
		for j := 0; j < 50; j++ {
			if code := conditional(cP, "/grid/at?t=907200", etag); code != http.StatusNotModified {
				b.Fatalf("conditional /grid/at read %d: status %d, want 304", j, code)
			}
			hot304++
		}
		for j := 0; j < 25; j++ {
			fetch(cP, "/grid/at?t=907200")
		}
		if got := sumMats(); got != mats {
			b.Fatalf("hot /grid/at reads re-materialized snapshots: %d → %d", mats, got)
		}
		versions = 0
		for _, sh := range fedP.Shards() {
			versions += float64(sh.F.Ref.VersionCount())
		}

		// Phase 3 — the outage burst folds: one signature filed at every
		// surviving shard is exactly one incident spanning those sites.
		_, body := fetch(cP, "/incidents?state=all")
		var inc gateway.IncidentsJSON
		if err := json.Unmarshal(body, &inc); err != nil {
			b.Fatalf("/incidents body: %v", err)
		}
		rows := 0
		var outage gateway.IncidentJSON
		for _, in := range inc.Incidents {
			if in.Signature == "site-outage:lyon" {
				rows++
				outage = in
			}
		}
		if rows != 1 {
			b.Fatalf("outage burst folded into %d incidents, want exactly 1", rows)
		}
		if len(outage.Sites) < 2 {
			b.Fatalf("outage incident spans %v, want ≥2 sites", outage.Sites)
		}
		if outage.Tickets != len(outage.Sites) {
			b.Fatalf("outage incident: %d tickets across %d sites, want one per site",
				outage.Tickets, len(outage.Sites))
		}
		for _, s := range outage.Sites {
			if s == "lyon" {
				b.Fatal("the lost site carries its own outage ticket")
			}
		}
		incidentCount = float64(inc.Count)
		outageSites = float64(len(outage.Sites))
	}
	b.ReportMetric(versions, "archived_versions")
	b.ReportMetric(hot304, "hot_304_reads")
	b.ReportMetric(incidentCount, "incidents")
	b.ReportMetric(outageSites, "outage_sites")
	b.ReportMetric(float64(len(chaosSites)), "sites")
	b.ReportMetric(float64(len(schedule)), "grid_events")
}

// ---- E21: balanced micro-sharding with work-stealing barriers ---------------
//
// The tentpole gate of the micro-shard refactor: at 16x grid scale
// (testbed.Scaled(16): 8 sites carved into 512 per-cluster micro-shards,
// ~14k nodes) the barrier's critical path must be the mean micro-shard,
// not the max site. Three properties gate:
//
//  1. equivalence — serial stepping and the work-stealing schedule at 8
//     workers yield bit-identical per-site and merged summaries at 16x
//     (the schedule must not move a single RNG draw);
//  2. efficiency — ≥90% parallel-advance efficiency at 8 workers,
//     normalised to min(8, GOMAXPROCS) like E14/E15 (on a single-core
//     runner the gate degenerates to "work-stealing costs nothing");
//  3. scaling — the sweep over Scaled(4/8/16) reports per-scale
//     efficiency so super-linear slowdowns show up as reviewable diffs.
//
// The breakdown locates the next bottleneck: barrier_wait_ms is the total
// worker idle implied by the makespan beyond perfectly-divided work,
// merge_ms the scatter-gather weekly-report merge, shard_step_ms the mean
// per-micro-shard step, and critical_path_shrink_x how much shorter the
// largest schedulable unit got when sites were carved into clusters.

func BenchmarkE21_BalancedAdvance(b *testing.B) {
	shardProfile := func(site string, seed int64) core.Config {
		cfg := core.DefaultConfig()
		cfg.InitialFaults = 4
		cfg.EnvMatrixPeriod = 0
		return cfg
	}
	run := func(scale, workers int) (*federation.Federation, float64) {
		fed := federation.New(federation.Config{
			Seed: 21, Workers: workers,
			Spec: testbed.ScaledSpec(scale), Configure: shardProfile,
		})
		fed.Start()
		start := time.Now()
		fed.Advance(simclock.Week)
		return fed, time.Since(start).Seconds()
	}

	ideal := min(8, runtime.GOMAXPROCS(0))
	var eff, speedup, t1x16, t8x16, mergeSec, shrink float64
	var shardCount int
	effAt := map[int]float64{}
	for i := 0; i < b.N; i++ {
		// The scale sweep: serial vs 8 work-stealing workers at 4x and 8x.
		for _, scale := range []int{4, 8} {
			_, ts := run(scale, 1)
			_, tp := run(scale, 8)
			effAt[scale] = (ts / tp) / float64(ideal)
		}

		// The 16x gate: serial and work-stealing.
		fedS, ts := run(16, 1)
		fedW, tw := run(16, 8)
		t1x16, t8x16 = ts, tw
		shardCount = len(fedW.Shards())

		sumS, sumW := fedS.Summary(), fedW.Summary()
		for k := range sumS.Sites {
			if sumS.Sites[k] != sumW.Sites[k] {
				b.Fatalf("site %s diverged between serial and work-stealing stepping:\nserial:     %+v\nwork-steal: %+v",
					sumS.Sites[k].Site, sumS.Sites[k], sumW.Sites[k])
			}
		}
		if sumS.Merged != sumW.Merged {
			b.Fatal("merged summary diverged between serial and work-stealing stepping at 16x")
		}
		mergeStart := time.Now()
		wr := fedW.WeeklyReport()
		mergeSec = time.Since(mergeStart).Seconds()
		if !reflect.DeepEqual(fedS.WeeklyReport(), wr) {
			b.Fatal("merged weekly reports diverged between serial and work-stealing stepping at 16x")
		}
		if sumW.Merged.Builds == 0 || sumW.Merged.BugsFiled == 0 {
			b.Fatalf("16x campaign shape off: %+v", sumW.Merged)
		}

		speedup = ts / tw
		eff = speedup / float64(ideal)
		if eff < 0.9 {
			b.Fatalf("work-stealing advance ran at %.1f%% parallel efficiency at 8 workers (%.2fx vs %dx ideal on this %d-core machine), gate needs ≥90%%",
				100*eff, speedup, ideal, runtime.GOMAXPROCS(0))
		}

		// Critical path: the largest schedulable unit shrank from the
		// biggest site to the biggest cluster micro-shard.
		siteNodes := map[string]int{}
		maxShard := 0
		for _, sh := range fedW.Shards() {
			siteNodes[sh.Site] += sh.Nodes
			if sh.Nodes > maxShard {
				maxShard = sh.Nodes
			}
		}
		maxSite := 0
		for _, n := range siteNodes {
			if n > maxSite {
				maxSite = n
			}
		}
		shrink = float64(maxSite) / float64(maxShard)
	}

	barrierWaitMs := (float64(ideal)*t8x16 - t1x16) * 1000
	if barrierWaitMs < 0 {
		barrierWaitMs = 0
	}
	mergeMs := mergeSec * 1000
	shardStepMs := t1x16 * 1000 / float64(shardCount)
	bottleneck := "barrier wait"
	if mergeMs > barrierWaitMs && mergeMs > shardStepMs {
		bottleneck = "scatter-gather merge"
	} else if shardStepMs > barrierWaitMs {
		bottleneck = "per-shard OAR step"
	}
	b.Logf("next bottleneck: %s (barrier wait %.1fms, merge %.1fms, mean shard step %.1fms)",
		bottleneck, barrierWaitMs, mergeMs, shardStepMs)

	b.ReportMetric(speedup, "speedup_x8")
	b.ReportMetric(100*eff, "parallel_efficiency_pct")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(shardCount), "shards")
	b.ReportMetric(100*effAt[4], "eff_pct_scale4")
	b.ReportMetric(100*effAt[8], "eff_pct_scale8")
	b.ReportMetric(t1x16*1000, "advance_serial_ms")
	b.ReportMetric(t8x16*1000, "advance_ws_ms")
	b.ReportMetric(barrierWaitMs, "barrier_wait_ms")
	b.ReportMetric(mergeMs, "merge_ms")
	b.ReportMetric(shardStepMs, "shard_step_ms")
	b.ReportMetric(shrink, "critical_path_shrink_x")
}
