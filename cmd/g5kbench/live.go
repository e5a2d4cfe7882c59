package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/simclock"
)

const (
	stepEvery    = 100 * time.Millisecond // wall time between live steps
	describeStep = 10                     // every 10th step one store is re-described
	slowAfter    = 10 * time.Millisecond  // a request later than this from due is slow
)

// arrival is one scheduled request of an open-loop train.
type arrival struct {
	due  time.Duration // offset from the start of the run
	spec reqSpec
}

// liveMix is the serve-live traffic, weights in per cent. There is no
// /status route here: a 50–100 ms route would bury the lock-wait tail this
// workload exists to show.
func (g *grid) liveMix() []weighted {
	anchored := func(dry bool) func(*rand.Rand, int) reqSpec {
		return func(rng *rand.Rand, _ int) reqSpec {
			c := pick(rng, g.clusters)
			if dry {
				return reqSpec{post: true, path: "/oar/submit", kind: kindProbe, exp: expProbe,
					body: fmt.Sprintf(`{"request":"cluster='%s'/nodes=%d,walltime=0:30:00","dry_run":true}`, c.cluster, 1+rng.Intn(4))}
			}
			return reqSpec{post: true, path: "/oar/submit", kind: kindSubmit, exp: expSubmit,
				body: fmt.Sprintf(`{"request":"cluster='%s'/nodes=1,walltime=0:10:00","user":"g5kbench"}`, c.cluster)}
		}
	}
	sitePath := func(suffix string, cond bool) func(*rand.Rand, int) reqSpec {
		return func(rng *rand.Rand, _ int) reqSpec {
			return reqSpec{path: "/sites/" + pick(rng, g.sites) + suffix, cond: cond, kind: kindSite}
		}
	}
	merge := func(path string, cond bool) func(*rand.Rand, int) reqSpec {
		return func(*rand.Rand, int) reqSpec { return reqSpec{path: path, cond: cond, kind: kindMerge} }
	}
	return []weighted{
		// 45 % site-pinned reads
		{15, sitePath("/oar/resources", false)},
		{12, sitePath("/oar/jobs?limit=25", false)},
		{12, sitePath("/ref/inventory", true)},
		{6, func(*rand.Rand, int) reqSpec { return reqSpec{path: "/sites", kind: kindSite} }},
		// 25 % federated-merge reads
		{7, merge("/ref/inventory", true)},
		{6, merge("/bugs", false)},
		{6, merge("/oar/jobs?limit=25", false)},
		{6, merge("/incidents", true)},
		// 12 % anchored dry-run probes, 8 % anchored ten-minute submits
		{12, anchored(true)},
		{8, anchored(false)},
		// 5 % unanchored dry runs, 3 % unanchored submits through admission
		{5, func(rng *rand.Rand, _ int) reqSpec {
			return reqSpec{post: true, path: "/oar/submit", kind: kindProbe, exp: expProbe,
				body: fmt.Sprintf(`{"request":"nodes=%d,walltime=0:30:00","dry_run":true}`, 1+rng.Intn(4))}
		}},
		{3, func(*rand.Rand, int) reqSpec {
			return reqSpec{post: true, path: "/oar/submit", kind: kindSubmit, exp: expAdmit,
				body: `{"request":"nodes=1,walltime=0:10:00","user":"g5kbench"}`}
		}},
		// 2 % monitor queries over the most recent minute
		{2, func(rng *rand.Rand, _ int) reqSpec {
			c := pick(rng, g.clusters)
			return reqSpec{path: fmt.Sprintf("/sites/%s/monitor/metrics?metric=power_w&node=%s", c.site, pick(rng, c.nodes)),
				kind: kindMonitor, exp: expMonitor}
		}},
	}
}

// arrivalTrain schedules n requests at the given rate: one in every
// period of 1/rate, at a seeded uniform instant inside it. Arrivals never
// depend on answers (an open loop) and no two seeds line up with the
// driver's steps alike, but the load offered in any 100 ms is the same for
// every seed, which a Poisson train's bunching would not give in 24 s.
func arrivalTrain(rng *rand.Rand, n int, rate float64, mix []weighted) []arrival {
	specs := script(rng, n, mix)
	out := make([]arrival, n)
	for i := range out {
		at := (float64(i) + rng.Float64()) / rate
		out[i] = arrival{due: time.Duration(at * float64(time.Second)), spec: specs[i]}
	}
	return out
}

// waitUntil yields until t without ever sleeping. A sleeping generator
// lets the process go idle between arrivals, and how fast an idle virtual
// processor is woken is the host's business: on the sandbox it varied with
// the neighbours by more than the handler's whole cost, and a plain
// time.Sleep woke ≈ 0.7 ms late at the best of times. Yielding costs the
// system under test nothing: every yield runs whatever else is runnable
// (the stepping driver, the collector) before the generator looks at the
// clock again.
func waitUntil(t time.Time) {
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpenLoop sends the train. Every request is timed from its due
// instant, so while an answer is slow the requests that came due behind it
// are charged the wait; none is skipped, none is sent early.
func runOpenLoop(c *client, train []arrival, start time.Time, parent int32) {
	free := start // when the client last became idle
	for i := range train {
		due := start.Add(train[i].due)
		queued := free.After(due)
		if !queued {
			waitUntil(due)
		}
		c.do(&train[i].spec, int64(i), due, parent)
		c.recs[len(c.recs)-1].queued = queued
		free = time.Now()
	}
}

// liveDriver advances the campaign under the load: one simulated hour
// every stepEvery of wall time, and between steps, every describeStep-th
// step, one seeded re-description (ETag churn on one store).
type liveDriver struct {
	g       *grid
	rng     *rand.Rand
	buf     *spanBuf
	stepMs  []float64 // how long each step took
	startMs []float64 // when it began, from the start of the run
}

func (d *liveDriver) run(start time.Time, steps int, parent int32) {
	for k := 0; k < steps; k++ {
		if wait := time.Until(start.Add(time.Duration(k) * stepEvery)); wait > 0 {
			time.Sleep(wait)
		}
		sp := d.buf.open("gateway.Advance", parent, int64(k))
		stepStart := time.Now()
		d.startMs = append(d.startMs, ms(stepStart.Sub(start)))
		d.g.gw.Advance(simclock.Hour)
		d.stepMs = append(d.stepMs, ms(time.Since(stepStart)))
		d.buf.close(sp)
		if k%describeStep == describeStep-1 {
			d.g.describeOne(&d.g.clusters[d.rng.Intn(len(d.g.clusters))], d.rng)
		}
	}
}

// metStep returns the due→done times, in milliseconds, of the requests
// that fell due while a step was running. Arrivals and steps are both in
// time order.
func (d *liveDriver) metStep(train []arrival, recs []reqRec) []float64 {
	var out []float64
	k := 0
	for i := range recs {
		due := ms(train[i].due)
		for k < len(d.stepMs) && d.startMs[k]+d.stepMs[k] <= due {
			k++
		}
		if k < len(d.stepMs) && d.startMs[k] <= due {
			out = append(out, float64(recs[i].latNs)/1e6)
		}
	}
	return out
}

// runServeLive is the serve-live workload.
func runServeLive(cfg runConfig) *result {
	res := &result{Workload: "serve-live", Metrics: map[string]metric{}}
	var t tally
	mb := cfg.tr.buf()
	root := mb.open("workload", noSpan, 0)

	setupSpan := mb.open("setup", root, 0)
	g, setupSec := repeatSetup(cfg.sz.setups, func() *grid {
		return buildGrid(cfg.seed, cfg.sz.warmDays, true)
	})
	defer g.release()
	mb.close(setupSpan)
	locks0 := g.gw.AdvanceLockStats()

	c := newClient(g.gw, cfg.tr, 1)
	train := arrivalTrain(rand.New(rand.NewSource(cfg.seed*104729)), cfg.sz.liveSec*cfg.sz.liveRate, float64(cfg.sz.liveRate), g.liveMix())

	// A traced run first replays the merge reads on the quiet gateway: the
	// same handlers with no step to wait for.
	var quietMergeUs []float64
	if cfg.tr != nil {
		quiet := newClient(g.gw, cfg.tr, 1)
		sp := quiet.buf.open("quiet-baseline", noSpan, 0)
		for i, k := 0, 0; i < len(train) && k < 200; i++ {
			if s := &train[i].spec; s.kind == kindMerge {
				quiet.do(s, int64(i), time.Time{}, sp)
				k++
			}
		}
		quiet.buf.close(sp)
		quietMergeUs = handlerUs(quiet.recs, func(r *reqRec) bool { return !r.failed })
		t.merge(&quiet.t)
	}

	driver := &liveDriver{g: g, rng: rand.New(rand.NewSource(cfg.seed ^ 0x6c697665)), buf: cfg.tr.buf()}
	steps := cfg.sz.liveSec * int(time.Second/stepEvery)

	run := mb.open("run", root, 0)
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		sp := driver.buf.open("driver", noSpan, 0)
		driver.run(start, steps, sp)
		driver.buf.close(sp)
	}()
	go func() {
		defer wg.Done()
		sp := c.buf.open("client", noSpan, 0)
		runOpenLoop(c, train, start, sp)
		c.buf.close(sp)
	}()
	wg.Wait()
	elapsed := time.Since(start)
	mb.close(run)
	mb.close(root)

	heap := c.heap // sampled after every answer, every 5 ms
	heap.final()
	recs := c.recs
	t.merge(&c.t)
	t.ops(steps)
	wantNow := simclock.Time(cfg.sz.warmDays)*simclock.Day + simclock.Time(steps)*simclock.Hour
	t.check(g.fed.Now() == wantNow, "live clock at %v after %d steps, want %v", g.fed.Now(), steps, wantNow)
	res.Golden = "none"

	var slow, queued int
	var idleLateUs []float64
	for i := range recs {
		r := &recs[i]
		if r.failed || time.Duration(r.latNs) > slowAfter {
			slow++
		}
		if r.queued {
			queued++
		} else {
			idleLateUs = append(idleLateUs, float64(r.lateNs)/1e3)
		}
	}
	res.note("%d of %d requests slower than %v from due or failed; %d found the client still busy; %d monitor queries answered 502 by design",
		slow, len(recs), slowAfter, queued, c.badGateway)
	// The workload's two sides, both end to end. The step is the work the
	// live gateway exists to get through: simulated hours per second of
	// stepping under the read load, from the median step because a run's few
	// longest steps do not repeat. The operation is a read that fell due
	// while a step was running, timed from due: what the step makes its
	// readers wait. The other five sixths of the requests meet no step and
	// cost the handler's own time, which on this host follows the
	// neighbours' use of the cache (see metrics.go); they go to the notes and
	// the per-layer rows.
	lat := sorted(latenciesMs(recs))
	dueP50, _ := tail(lat, 50)
	dueP99, dueTailPct := tail(lat, 99)
	res.note("requests, due→done: p50 %.1f µs, p%g %.1f µs (n=%d)", dueP50*1e3, dueTailPct, dueP99*1e3, len(lat))
	res.headline = 1e3 / median(driver.stepMs)
	if cfg.tr == nil {
		// p85 of the reads that met a step is about p97 of all the requests.
		// A read due at a uniform instant of a step waits for the rest of it,
		// so up to the shortest step's length (p75) the percentiles are those
		// of a uniform distribution (p80 ÷ p50 = 1.6) whatever the system does;
		// p85 is about the median step's whole length, which only a read that
		// met the start of a longer step waits. Beyond it the tail is the
		// window's dozen nightly steps, and how the arrivals fall inside a
		// dozen steps differs run to run: p90 ÷ p50 spread 6–11 % over ten
		// runs, p85 ÷ p50 3 %.
		res.endToEnd(setupSec, &heap, len(driver.stepMs), driver.metStep(train, recs), 85)
		t.into(res)
		return res
	}
	res.setN("bench.due_p50_us", dueP50*1e3, "us", len(lat))
	res.setN("bench.due_p99_us", dueP99*1e3, "us", len(lat))

	gatewayRows(res, g, recs)
	liveMergeUs := handlerUs(recs, func(r *reqRec) bool { return r.kind == kindMerge && !r.failed })
	res.set("gateway.wait_p90_us", pctOr0(liveMergeUs, 90)-pctOr0(quietMergeUs, 90), "us")
	lockRows(res, locks0, g.gw.AdvanceLockStats())
	res.setN("gateway.advance_step_p50_ms", median(driver.stepMs), "ms", len(driver.stepMs))
	res.setN("gateway.advance_step_p95_ms", pctOr0(driver.stepMs, 95), "ms", len(driver.stepMs))
	res.setN("federation.tick_p50_ms", median(driver.stepMs), "ms", len(driver.stepMs))
	res.set("bench.slow_share", float64(slow)/float64(len(recs)), "share")
	res.setN("bench.gen_late_p50_us", median(idleLateUs), "us", len(idleLateUs))
	res.setN("bench.gen_late_p99_us", pctOr0(idleLateUs, 99), "us", len(idleLateUs))
	res.set("bench.queued_share", float64(queued)/float64(len(recs)), "share")
	res.set("bench.achieved_rate", float64(len(recs))/elapsed.Seconds(), "1/s")
	probeFederation(res, g.fed, cfg.sz.probeCalls)
	probeGateway(res, g, cfg.sz.probeCalls)
	t.into(res)
	return res
}

// lockRows reports the shard write-lock holds of the steps taken between
// two snapshots. The maximum cannot be windowed; set-up steps by the same
// hour, so it is the longest hold of an hourly step either way.
func lockRows(res *result, before, after gateway.LockHoldStats) {
	steps := after.Steps - before.Steps
	res.set("gateway.lock_steps", float64(steps), "count")
	if steps > 0 {
		total := after.AvgMicros*float64(after.Steps) - before.AvgMicros*float64(before.Steps)
		res.set("gateway.lock_hold_avg_us", total/float64(steps), "us")
	}
	res.set("gateway.lock_hold_max_us", after.MaxMicros, "us")
}
