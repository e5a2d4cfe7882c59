package main

import (
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/simclock"
)

const hoursPerWeek = 168

// runConfig is what one run of a workload is given.
type runConfig struct {
	seed   int64
	sz     size
	tr     *tracer    // nil: tracing off
	golden *goldenSet // nil: structural checks only
}

// campaignStats is what the correctness gate pins of one campaign.
type campaignStats struct {
	Builds       int     `json:"builds"`
	BugsFiled    int     `json:"bugs_filed"`
	BugsFixed    int     `json:"bugs_fixed"`
	FirstWeekPct float64 `json:"first_week_ok_pct"`
	FinalWeekPct float64 `json:"final_week_ok_pct"`
	ClockFired   uint64  `json:"clock_fired"`
}

func statsOf(s core.CampaignSummary, fired uint64) campaignStats {
	return campaignStats{
		Builds:       s.Builds,
		BugsFiled:    s.BugsFiled,
		BugsFixed:    s.BugsFixed,
		FirstWeekPct: 100 * s.FirstWeek.Rate(),
		FinalWeekPct: 100 * s.LastWeek.Rate(),
		ClockFired:   fired,
	}
}

// releaseFramework lets a campaign that will not be advanced again be
// collected. A campaign stopped at an arbitrary horizon has builds in
// flight, each a goroutine parked on its clock and holding the whole
// framework; with the scheduler stopped they finish within a few simulated
// hours. Without this every state a run sets up and drops would stay on
// the heap and be counted into the next one's peak_heap_mb.
func releaseFramework(f *core.Framework) {
	f.Sched.Stop()
	for h := 0; f.Clock.Goroutines() > 0 && h < 2*hoursPerWeek; h++ {
		f.RunFor(simclock.Hour)
	}
}

func releaseFederation(fed *federation.Federation) {
	for _, sh := range fed.Shards() {
		releaseFramework(sh.F)
	}
}

// monoSeed derives campaign i's seed from the run seed.
func monoSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runCampaignMono is the campaign-mono workload: the paper's testing
// campaign on the monolithic engine, advanced one simulated hour at a
// time so every hour is one timed operation.
func runCampaignMono(cfg runConfig) *result {
	res := &result{Workload: "campaign-mono", Metrics: map[string]metric{}}
	var t tally
	buf := cfg.tr.buf()
	root := buf.open("workload", noSpan, 0)

	var (
		heap        heapPeak
		hourMs      []float64 // one sample per simulated hour, all campaigns
		weekMs      []float64
		campaignSec []float64
		newStartMs  []float64 // each campaign's set-up; setup_s is their median
		stats       []campaignStats
		last        *core.Framework
		counts      layerCounts // every campaign's calls into the probed layers
		mem0, mem1  runtime.MemStats
	)
	runSpan := buf.open("run", root, 0)
	runtime.ReadMemStats(&mem0)
	for i := 0; i < cfg.sz.campaigns; i++ {
		id := int64(i)
		// As repeatSetup does: a cycle still marking the campaign before
		// would be charged to this one's few milliseconds of set-up (3 ms
		// read 4–6 ms in a third of the runs).
		runtime.GC()
		sp := buf.open("setup", root, id)
		start := time.Now()
		f := core.New(core.PaperCampaignConfig(monoSeed(cfg.seed, i)))
		f.Start()
		newStartMs = append(newStartMs, ms(time.Since(start)))
		buf.close(sp)

		campaignStart := time.Now()
		for w := 0; w < cfg.sz.weeks; w++ {
			wsp := buf.open("core.RunFor(Week)", runSpan, id)
			weekStart := time.Now()
			for h := 0; h < hoursPerWeek; h++ {
				hourStart := time.Now()
				f.RunFor(simclock.Hour)
				hourMs = append(hourMs, ms(time.Since(hourStart)))
				heap.sample()
			}
			weekMs = append(weekMs, ms(time.Since(weekStart)))
			buf.close(wsp)
		}
		campaignSec = append(campaignSec, time.Since(campaignStart).Seconds())
		t.ops(cfg.sz.weeks * hoursPerWeek)

		st := statsOf(f.Summary(), f.Clock.Fired())
		stats = append(stats, st)
		counts.add(countsOf(f))
		t.check(f.Clock.Now() == simclock.Time(cfg.sz.weeks)*simclock.Week,
			"campaign %d: clock at %v after %d weeks", i, f.Clock.Now(), cfg.sz.weeks)
		t.check(st.Builds > 0 && st.ClockFired > 0 && st.BugsFixed <= st.BugsFiled,
			"campaign %d: implausible summary %+v", i, st)
		if last != nil {
			releaseFramework(last)
		}
		last = f
	}
	defer releaseFramework(last)
	runtime.ReadMemStats(&mem1)
	buf.close(runSpan)
	buf.close(root)
	heap.final()

	res.Golden = cfg.golden.checkMono(&t, stats)

	// The rate comes from the median week, not from a campaign's whole
	// time: a burst of interference from the host's other tenants then
	// moves it only if it lasts half the run.
	res.headline = hoursPerWeek / (median(weekMs) / 1e3)
	res.note("set-up (core.New + Start) of each campaign, ms: %.3f", newStartMs)
	if cfg.tr == nil {
		// p90, though 8 400 hours would support p99: one hour in 24 is a
		// nightly one, and inside that class a percentile follows how many
		// heavy nights the seed's campaigns have. Over ten seeds p99 ÷ p50
		// spread 7–13 %, p90 ÷ p50 under 2 %.
		res.endToEnd(median(newStartMs)/1e3, &heap, len(weekMs), hourMs, 90)
		t.into(res)
		return res
	}

	// Per-layer rows of the traced run.
	weeks := float64(cfg.sz.campaigns * cfg.sz.weeks)
	counts.rows(res)
	res.set("simclock.host_ns_per_event", sum(campaignSec)*1e9/counts.events, "ns")
	res.set("core.new_start_ms", median(newStartMs), "ms")
	res.setN("core.week_p50_ms", median(weekMs), "ms", len(weekMs))
	res.set("core.week_max_ms", maxOf(weekMs), "ms")
	res.set("core.allocs_per_sim_week", float64(mem1.Mallocs-mem0.Mallocs)/weeks, "count")
	res.set("core.alloc_mb_per_sim_week", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20)/weeks, "MB")
	res.set("core.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, "ms")
	var builds, filed int
	var first, final []float64
	for _, st := range stats {
		builds += st.Builds
		filed += st.BugsFiled
		first = append(first, st.FirstWeekPct)
		final = append(final, st.FinalWeekPct)
	}
	res.set("core.builds", float64(builds), "count")
	res.set("core.bugs_filed", float64(filed), "count")
	res.set("core.first_week_ok_pct", mean(first), "%")
	res.set("core.final_weeks_ok_pct", mean(final), "%")

	// What the probed layers account for: each layer's call count times its
	// probed cost, against the campaigns' time. The probes mutate the last
	// campaign, so its counts were taken above.
	probeFramework(res, last, cfg.sz.probeCalls)
	res.set("core.unattributed_share", 1-counts.attributedNs(res)/(sum(campaignSec)*1e9), "share")
	t.into(res)
	return res
}

// fedStepTimer is the timing step gate of one gateway-free federation:
// every micro-shard step becomes a span under the current tick, and the
// step times are kept for the per-tick sums.
type fedStepTimer struct {
	tr     *tracer
	parent int32 // current federation.Advance span (set between ticks)
	tick   int64

	mu      sync.Mutex
	stepMs  []float64 // every shard step of the run
	tickSum float64   // shard-step time inside the current tick
}

func (g *fedStepTimer) gate(_, _ string, step func()) {
	sp := g.tr.openShared("federation.shard_step", g.parent, g.tick)
	start := time.Now()
	step()
	d := ms(time.Since(start))
	g.tr.closeShared(sp)
	g.mu.Lock()
	g.stepMs = append(g.stepMs, d)
	g.tickSum += d
	g.mu.Unlock()
}

// fedSide is one of the two federations campaign-fed advances in turn.
type fedSide struct {
	fed      *federation.Federation
	timer    *fedStepTimer
	setupSec float64 // New + Start
	tickMs   []float64
	stepSum  []float64 // Σ shard-step time per tick (traced runs)
}

func newFedSide(seed int64, workers int, tr *tracer) *fedSide {
	start := time.Now()
	s := &fedSide{fed: federation.New(federation.Config{Seed: seed, Workers: workers})}
	if tr != nil {
		// Installed before the first Advance, as SetStepGate requires; only
		// a federation with no gateway in front has the gate free.
		s.timer = &fedStepTimer{tr: tr}
		s.fed.SetStepGate(s.timer.gate)
	}
	s.fed.Start()
	s.setupSec = time.Since(start).Seconds()
	return s
}

func (s *fedSide) advanceHour(tr *tracer, parent int32, tick int64) {
	sp := tr.openShared("federation.Advance", parent, tick)
	if s.timer != nil {
		s.timer.parent, s.timer.tick, s.timer.tickSum = sp, tick, 0
	}
	start := time.Now()
	s.fed.Advance(simclock.Hour)
	s.tickMs = append(s.tickMs, ms(time.Since(start)))
	tr.closeShared(sp)
	if s.timer != nil {
		s.stepSum = append(s.stepSum, s.timer.tickSum)
	}
}

// medianDayRate is ticks per second over the median simulated day (or
// over the whole run when it is shorter than two days): like
// campaign-mono's median week, it shrugs off a burst of host interference.
func (s *fedSide) medianDayRate() float64 {
	const day = 24
	if len(s.tickMs) < 2*day {
		return float64(len(s.tickMs)) / (sum(s.tickMs) / 1e3)
	}
	var days []float64
	for i := 0; i+day <= len(s.tickMs); i += day {
		days = append(days, sum(s.tickMs[i:i+day]))
	}
	return day / (median(days) / 1e3)
}

// fedStats is what the correctness gate pins of a federated campaign.
type fedStats struct {
	Merged campaignStats            `json:"merged"`
	Sites  map[string]campaignStats `json:"sites"`
}

func fedStatsOf(fed *federation.Federation) fedStats {
	sum := fed.Summary()
	var fired uint64
	bySite := map[string]uint64{}
	for _, sh := range fed.Shards() {
		n := sh.F.Clock.Fired()
		fired += n
		bySite[sh.Site] += n
	}
	out := fedStats{Merged: statsOf(sum.Merged, fired), Sites: map[string]campaignStats{}}
	for _, s := range sum.Sites {
		out.Sites[s.Site] = statsOf(s.Summary, bySite[s.Site])
	}
	return out
}

// runCampaignFed is the campaign-fed workload: two identically seeded
// federations, A stepping its micro-shards serially and B across the
// barrier workers, advanced in turn one simulated hour at a time.
func runCampaignFed(cfg runConfig) *result {
	res := &result{Workload: "campaign-fed", Metrics: map[string]metric{}}
	var t tally
	// Every span of this workload goes to the tracer's shared buffer: the
	// barrier workers report their shard steps from their own goroutines,
	// and a span's parent must sit in the same buffer.
	tr := cfg.tr
	root := tr.openShared("workload", noSpan, 0)

	setupSpan := tr.openShared("setup", root, 0)
	a := newFedSide(cfg.seed, 1, cfg.tr)
	b := newFedSide(cfg.seed, fedWorkers, cfg.tr)
	tr.closeShared(setupSpan)
	defer releaseFederation(a.fed)
	defer releaseFederation(b.fed)

	var heap heapPeak
	runSpan := tr.openShared("run", root, 0)
	ticks := cfg.sz.fedTicks
	for h := 0; h < ticks; h++ {
		// A then B, tick by tick: host drift hits both sides alike.
		a.advanceHour(tr, runSpan, int64(2*h))
		b.advanceHour(tr, runSpan, int64(2*h+1))
		heap.sample()
	}
	tr.closeShared(runSpan)
	tr.closeShared(root)
	heap.final()
	t.ops(2 * ticks)

	sumA, sumB := a.fed.Summary(), b.fed.Summary()
	t.check(reflect.DeepEqual(sumA, sumB), "serial and %d-worker summaries differ:\n  A %v\n  B %v", fedWorkers, sumA, sumB)
	t.check(a.fed.Now() == simclock.Time(ticks)*simclock.Hour, "federated clock at %v after %d hourly ticks", a.fed.Now(), ticks)
	stats := fedStatsOf(b.fed)
	t.check(stats.Merged.Builds > 0 && len(stats.Sites) == len(b.fed.Sites()), "implausible federated summary %+v", stats.Merged)
	res.Golden = cfg.golden.checkFed(&t, stats)

	res.headline = b.medianDayRate()
	if cfg.tr == nil {
		// p90, not the p95 that 504 ticks would support: one tick in twenty is
		// a nightly hour several times the median, so p95 sits on the edge of
		// that class and jumps between 1.4× and 2.3× the median as a few
		// ticks cross it; p90 sits on the smooth part below.
		res.endToEnd((a.setupSec+b.setupSec)/2, &heap, len(b.tickMs)/24, b.tickMs, 90)
		t.into(res)
		return res
	}

	res.setN("federation.tick_p50_ms", median(b.tickMs), "ms", len(b.tickMs))
	res.setN("federation.tick_serial_p50_ms", median(a.tickMs), "ms", len(a.tickMs))
	res.set("federation.speedup_w2", sum(a.tickMs)/sum(b.tickMs), "x")
	res.setN("federation.shard_step_p50_ms", median(a.timer.stepMs), "ms", len(a.timer.stepMs))
	res.set("federation.shard_step_max_ms", maxOf(a.timer.stepMs), "ms")
	res.setN("federation.step_sum_ms", median(a.stepSum), "ms", len(a.stepSum))
	res.set("federation.idle_share", 1-sum(b.stepSum)/(fedWorkers*sum(b.tickMs)), "share")

	const summaryReps = 50
	start := time.Now()
	for i := 0; i < summaryReps; i++ {
		_ = b.fed.Summary()
		_ = b.fed.WeeklyReport()
	}
	res.set("federation.summary_us", us(time.Since(start))/summaryReps, "us")

	// The same simulated time on the monolithic engine with the profile the
	// shards run (core.DefaultConfig): what per-cluster sharding costs.
	monoCfg := core.DefaultConfig()
	monoCfg.Seed = cfg.seed
	mono := core.New(monoCfg)
	mono.Start()
	start = time.Now()
	mono.RunFor(simclock.Time(ticks) * simclock.Hour)
	res.set("federation.cost_vs_mono_x", (sum(a.tickMs)/1e3)/time.Since(start).Seconds(), "x")
	releaseFramework(mono)

	res.set("simclock.host_ns_per_event", sum(a.tickMs)*1e6/float64(stats.Merged.ClockFired), "ns")
	res.set("core.builds", float64(stats.Merged.Builds), "count")
	res.set("core.bugs_filed", float64(stats.Merged.BugsFiled), "count")
	res.set("core.first_week_ok_pct", stats.Merged.FirstWeekPct, "%")
	res.set("core.final_weeks_ok_pct", stats.Merged.FinalWeekPct, "%")

	probeFederation(res, b.fed, cfg.sz.probeCalls)
	t.into(res)
	return res
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// monoStats runs one monolithic paper campaign week by week and returns
// what the golden file pins of it.
func monoStats(seed int64, weeks int) campaignStats {
	f := core.New(core.PaperCampaignConfig(seed))
	f.Start()
	f.RunFor(simclock.Time(weeks) * simclock.Week)
	defer releaseFramework(f)
	return statsOf(f.Summary(), f.Clock.Fired())
}
