package core

// Fleet: parallel multi-seed campaign sweeps.
//
// A single campaign is a pure function of (seed, configuration) on one
// simulated clock — inherently serial. But sensitivity questions (how
// robust is the 85%→93% trend to the fault draw? what is the spread of
// bugs filed?) need many campaigns, Monte-Carlo style, like the
// percentile-bootstrap sensitivity analyses of the statistical literature
// re-run an estimator over hundreds of resamples. Campaigns with
// different seeds share nothing — each Framework owns its own simclock,
// testbed and RNG — so a fleet runs them on real OS threads across
// GOMAXPROCS cores, race-free by construction, and aggregates the
// trend/bug statistics with mean ± spread.

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/simclock"
)

// FleetConfig describes a multi-seed campaign sweep.
type FleetConfig struct {
	// Seeds are the campaign seeds, one campaign per seed (see SeedRange).
	Seeds []int64
	// Parallel is the number of campaigns simulated concurrently on real
	// goroutines. 0 means GOMAXPROCS.
	Parallel int
	// Duration is the simulated length of each campaign (0 = 10 weeks,
	// the paper's trend window).
	Duration simclock.Time
	// Profile is every campaign's profile (nil = PaperCampaignConfig).
	// Each campaign overrides its Seed with the sweep seed.
	Profile *Config
}

// SeedRange returns n consecutive seeds starting at base — the common
// sweep shape (g5ktest -seeds N).
func SeedRange(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// FleetCampaign is one campaign's outcome within a sweep.
type FleetCampaign struct {
	Seed    int64
	Weekly  []WeekCounts
	Summary CampaignSummary
}

// firstWeekRate mirrors the E9 reading: the success rate of the campaign's
// first reported week.
func (c *FleetCampaign) firstWeekRate() (float64, bool) {
	if len(c.Weekly) == 0 {
		return 0, false
	}
	return c.Weekly[0].Rate(), true
}

// finalWeeksRate mirrors the E9 reading: the mean success rate of the last
// three reported weeks (fewer when the campaign is shorter).
func (c *FleetCampaign) finalWeeksRate() (float64, bool) {
	if len(c.Weekly) == 0 {
		return 0, false
	}
	tail := c.Weekly
	if len(tail) > 3 {
		tail = tail[len(tail)-3:]
	}
	sum := 0.0
	for _, w := range tail {
		sum += w.Rate()
	}
	return sum / float64(len(tail)), true
}

// Aggregate is a mean ± spread summary of one statistic across seeds.
type Aggregate struct {
	Mean, Std float64 // Std is the sample standard deviation (0 when N < 2)
	Min, Max  float64
	N         int
}

func aggregate(xs []float64) Aggregate {
	a := Aggregate{N: len(xs)}
	if a.N == 0 {
		return a
	}
	a.Min, a.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < a.Min {
			a.Min = x
		}
		if x > a.Max {
			a.Max = x
		}
	}
	a.Mean = sum / float64(a.N)
	if a.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - a.Mean
			ss += d * d
		}
		a.Std = math.Sqrt(ss / float64(a.N-1))
	}
	return a
}

// WeeklyAggregate is the cross-seed view of one campaign week.
type WeeklyAggregate struct {
	Week int
	Rate Aggregate // success rate across the seeds that reported the week
}

// FleetResult is the outcome of a sweep: every campaign plus the
// aggregated trend and bug statistics.
type FleetResult struct {
	Campaigns []FleetCampaign

	// Weekly aggregates the success-rate trend across seeds, week by week.
	Weekly []WeeklyAggregate

	// FirstWeek/FinalWeeks aggregate the E9 trend endpoints (success
	// rates in [0,1]); Bugs* aggregate the tracker counters.
	FirstWeek, FinalWeeks          Aggregate
	BugsFiled, BugsFixed, BugsOpen Aggregate
}

// RunFleet simulates one campaign per seed, up to cfg.Parallel of them
// concurrently, and aggregates the results. Campaign outcomes are
// deterministic per seed regardless of Parallel or scheduling: workers
// share no simulation state, only the (index-disjoint) result slots.
func RunFleet(cfg FleetConfig) *FleetResult {
	if len(cfg.Seeds) == 0 {
		return &FleetResult{}
	}
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(cfg.Seeds) {
		parallel = len(cfg.Seeds)
	}
	profile := PaperCampaignConfig(0)
	if cfg.Profile != nil {
		profile = *cfg.Profile
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = 10 * simclock.Week
	}

	campaigns := make([]FleetCampaign, len(cfg.Seeds))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		//g5k:allow baregoroutine fleet workers run whole campaigns that share nothing; each outcome is a pure function of its seed (TestFleetDeterministicAcrossParallelism)
		go func() {
			defer wg.Done()
			for i := range jobs {
				seed := cfg.Seeds[i]
				c := profile
				c.Seed = seed
				f := New(c)
				f.Start()
				f.RunFor(duration)
				campaigns[i] = FleetCampaign{
					Seed:    seed,
					Weekly:  f.WeeklyReport(),
					Summary: f.Summary(),
				}
			}
		}()
	}
	for i := range cfg.Seeds {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return aggregateFleet(campaigns)
}

func aggregateFleet(campaigns []FleetCampaign) *FleetResult {
	res := &FleetResult{Campaigns: campaigns}

	var first, final, filed, fixed, open []float64
	byWeek := map[int][]float64{}
	maxWeek := -1
	for i := range campaigns {
		c := &campaigns[i]
		if r, ok := c.firstWeekRate(); ok {
			first = append(first, r)
		}
		if r, ok := c.finalWeeksRate(); ok {
			final = append(final, r)
		}
		filed = append(filed, float64(c.Summary.BugsFiled))
		fixed = append(fixed, float64(c.Summary.BugsFixed))
		open = append(open, float64(c.Summary.BugsOpen))
		for _, w := range c.Weekly {
			byWeek[w.Week] = append(byWeek[w.Week], w.Rate())
			if w.Week > maxWeek {
				maxWeek = w.Week
			}
		}
	}
	res.FirstWeek = aggregate(first)
	res.FinalWeeks = aggregate(final)
	res.BugsFiled = aggregate(filed)
	res.BugsFixed = aggregate(fixed)
	res.BugsOpen = aggregate(open)
	for w := 0; w <= maxWeek; w++ {
		if rates := byWeek[w]; len(rates) > 0 {
			res.Weekly = append(res.Weekly, WeeklyAggregate{Week: w, Rate: aggregate(rates)})
		}
	}
	return res
}
