// Command g5ktest runs the testbed testing framework for a configurable
// number of simulated weeks and reports the campaign outcome: weekly
// success rates, bug statistics, scheduler decisions and the final status
// grid.
//
// With -seeds N it instead runs an N-seed campaign fleet (core.RunFleet):
// N independently seeded campaigns simulated across -parallel real
// goroutines, reporting the trend and bug statistics as mean ± spread —
// the Monte-Carlo view of the paper's longitudinal result.
//
// With -reliability it runs the same fleet sweep but reports it as the
// grid reliability trend: per-week success-rate confidence bands
// (mean ± std across seeds), printed through the one shared renderer
// (internal/intel) — byte-identical to what a client renders from the
// gateway's GET /reliability/trend body.
//
// With -federated it runs ONE campaign split into per-cluster micro-shards
// under site labels (internal/federation): every cluster gets its own OAR,
// monitor, CI, fault and operator processes on an independent RNG stream,
// micro-shards step in lockstep weekly barriers across -parallel
// goroutines, and the report shows each site's outcome (its micro-shards
// folded back together) plus the cross-site merge. Serial and
// parallel stepping produce bit-identical results by construction.
//
// Every mode accepts -scale k to run on testbed.ScaledSpec(k) — k replicas of
// the paper grid (federated mode then carves k×32 per-cluster
// micro-shards; k=16 is 512 of them).
//
// Every mode accepts -cpuprofile and -memprofile, the standard
// runtime/pprof pair written around the run (`go tool pprof -top <file>`
// reads them; `make profile` runs the two campaign shapes under them).
// Nothing is profiled by default.
//
// Usage:
//
//	g5ktest [-weeks N] [-seed S] [-faults N] [-scale K] [-quiet]
//	g5ktest -seeds N [-parallel P] [-weeks N] [-seed BASE] [-faults N] [-scale K]
//	g5ktest -reliability -seeds N [-parallel P] [-weeks N] [-seed BASE] [-scale K]
//	g5ktest -federated [-parallel P] [-weeks N] [-seed S] [-faults N] [-scale K]
//	g5ktest ... [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/intel"
	"repro/internal/simclock"
	"repro/internal/status"
	"repro/internal/testbed"
)

func main() {
	weeks := flag.Int("weeks", 8, "simulated weeks to run")
	seed := flag.Int64("seed", 42, "simulation seed (fleet mode: first seed of the range)")
	initialFaults := flag.Int("faults", 25, "fault backlog at campaign start")
	quiet := flag.Bool("quiet", false, "only print the final summary")
	seeds := flag.Int("seeds", 1, "run a fleet of N independently seeded campaigns")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "campaigns (fleet mode) or micro-shards (federated mode) simulated concurrently")
	federated := flag.Bool("federated", false, "run one campaign as per-cluster micro-shards under site labels (internal/federation)")
	reliability := flag.Bool("reliability", false, "report the -seeds fleet as the grid reliability trend (confidence bands)")
	scale := flag.Int("scale", 1, "run on testbed.ScaledSpec(k): k replicas of the paper grid")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write a heap and allocation profile to `file` after the run")
	flag.Parse()

	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "g5ktest: -scale must be ≥ 1")
		os.Exit(1)
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.InitialFaults = *initialFaults
	if *scale > 1 {
		cfg.Spec = testbed.ScaledSpec(*scale)
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "g5ktest: %v\n", err)
		os.Exit(1)
	}
	switch {
	case *reliability:
		runReliability(*seed, *seeds, *parallel, *weeks, *initialFaults, *scale)
	case *federated:
		runFederated(*seed, *parallel, *weeks, *initialFaults, *scale)
	case *seeds > 1:
		runFleet(*seed, *seeds, *parallel, *weeks, *initialFaults, *scale)
	default:
		runCampaign(cfg, *weeks, *quiet)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "g5ktest: %v\n", err)
		os.Exit(1)
	}
}

// startProfiles starts the CPU profile, if one was asked for, and returns
// the function that ends it and writes the memory profile.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memFile == "" {
			return nil
		}
		mem, err := os.Create(memFile)
		if err != nil {
			return err
		}
		runtime.GC() // so the profile's in-use figures are what the run retains
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("memory profile: %w", err)
		}
		return mem.Close()
	}, nil
}

// runCampaign is the default mode: one monolithic campaign, week by week.
func runCampaign(cfg core.Config, weeks int, quiet bool) {
	f := core.New(cfg)
	f.Start()

	fmt.Printf("testbed: %s\n", f.TB.Stats())
	for w := 1; w <= weeks; w++ {
		f.RunFor(simclock.Week)
		if !quiet {
			st := f.Bugs.Stats()
			fmt.Printf("week %2d: %4d builds total, %3d active faults, %s\n",
				w, f.CI.TotalBuilds(), f.Faults.ActiveCount(), st)
		}
	}

	fmt.Println("\nweekly success rate (verdicts only; unstable = could not run):")
	for _, wc := range f.WeeklyReport() {
		fmt.Printf("  week %2d: %4d runs, %5.1f%% ok, %3d unstable\n",
			wc.Week+1, wc.Total(), 100*wc.Rate(), wc.Unstable)
	}

	fmt.Println("\nbug tracker:")
	fmt.Print(indent(f.Bugs.Report()))

	fmt.Println("scheduler decisions:")
	for _, ac := range f.Sched.DecisionCountsSorted() {
		fmt.Printf("  %-24s %d\n", ac.Action, ac.Count)
	}

	// Serve the CI REST API on a loopback listener and render the status
	// grid through it, the way the real status page works.
	ts := httptest.NewServer(f.CI.Handler())
	defer ts.Close()
	grid, err := status.NewClient(ts.URL).BuildGrid()
	if err != nil {
		fmt.Fprintf(os.Stderr, "status page: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("\nstatus grid:")
	grid.RenderText(os.Stdout)

	fmt.Printf("\n%s\n", f.Summary())
}

func indent(s string) string {
	return "  " + s
}

// runFleet is the -seeds mode: a multi-seed campaign sweep with aggregate
// reporting.
func runFleet(base int64, n, parallel, weeks, initialFaults, scale int) {
	fmt.Printf("fleet: %d campaigns (seeds %d..%d), %d weeks each, %d in parallel\n\n",
		n, base, base+int64(n)-1, weeks, parallel)
	res := core.RunFleet(core.FleetConfig{
		Seeds:    core.SeedRange(base, n),
		Parallel: parallel,
		Duration: simclock.Time(weeks) * simclock.Week,
		Configure: func(seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.InitialFaults = initialFaults
			if scale > 1 {
				cfg.Spec = testbed.ScaledSpec(scale)
			}
			return cfg
		},
	})

	fmt.Println("per-seed campaigns:")
	for i := range res.Campaigns {
		c := &res.Campaigns[i]
		fmt.Printf("  seed %3d: %s\n", c.Seed, c.Summary)
	}

	fmt.Println("\nweekly success rate across seeds (mean ± std):")
	for _, w := range res.Weekly {
		fmt.Printf("  week %2d: %5.1f%% ± %4.1f  (min %5.1f%%, max %5.1f%%, %d seeds)\n",
			w.Week+1, 100*w.Rate.Mean, 100*w.Rate.Std, 100*w.Rate.Min, 100*w.Rate.Max, w.Rate.N)
	}

	fmt.Println("\naggregates:")
	fmt.Printf("  first week ok  %s\n", pct(res.FirstWeek))
	fmt.Printf("  final weeks ok %s\n", pct(res.FinalWeeks))
	fmt.Printf("  bugs filed     %s\n", res.BugsFiled)
	fmt.Printf("  bugs fixed     %s\n", res.BugsFixed)
	fmt.Printf("  bugs open      %s\n", res.BugsOpen)
}

// runReliability is the -reliability mode: the same N-seed sweep as
// -seeds, folded into the grid reliability trend and printed through the
// shared renderer — so this output and a render of the gateway's
// /reliability/trend body are byte-for-byte the same report.
func runReliability(base int64, n, parallel, weeks, initialFaults, scale int) {
	res := core.RunFleet(core.FleetConfig{
		Seeds:    core.SeedRange(base, n),
		Parallel: parallel,
		Duration: simclock.Time(weeks) * simclock.Week,
		Configure: func(seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.InitialFaults = initialFaults
			if scale > 1 {
				cfg.Spec = testbed.ScaledSpec(scale)
			}
			return cfg
		},
	})
	intel.TrendFromFleet(res, base, weeks).RenderText(os.Stdout)
}

// runFederated is the -federated mode: one campaign as per-cluster
// micro-shards grouped under their sites.
func runFederated(seed int64, parallel, weeks, initialFaults, scale int) {
	fed := federation.New(federation.Config{
		Seed:    seed,
		Workers: parallel,
		Spec:    testbed.ScaledSpec(scale),
		Configure: func(site string, shardSeed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = initialFaults
			return cfg
		},
	})
	fmt.Printf("federated campaign: %d micro-shards across %d sites, %d weeks, %d shard workers, seed %d\n\n",
		len(fed.Shards()), len(fed.Summary().Sites), weeks, parallel, seed)
	fed.Start()
	for w := 1; w <= weeks; w++ {
		fed.Advance(simclock.Week)
	}

	sum := fed.Summary()
	fmt.Println("per-site campaigns:")
	for _, s := range sum.Sites {
		fmt.Printf("  %-12s %s\n", s.Site, s.Summary)
	}

	fmt.Println("\nfederated weekly success rate:")
	for _, wc := range fed.WeeklyReport() {
		fmt.Printf("  week %2d: %4d runs, %5.1f%% ok, %3d unstable\n",
			wc.Week+1, wc.Total(), 100*wc.Rate(), wc.Unstable)
	}

	fmt.Printf("\n%s\n", sum)
}

// pct renders a rate aggregate as percentages.
func pct(a core.Aggregate) string {
	return fmt.Sprintf("%.1f%% ± %.1f (min %.1f%%, max %.1f%%, n=%d)",
		100*a.Mean, 100*a.Std, 100*a.Min, 100*a.Max, a.N)
}
