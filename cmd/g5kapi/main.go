// Command g5kapi serves a live campaign through the unified testbed API
// gateway (internal/gateway), or load-tests it in process
// (internal/loadgen).
//
// Serving mode runs a short campaign first, then exposes every subsystem
// over one HTTP front door:
//
//	g5kapi [-addr :8080] [-weeks 2] [-seed 42] [-live] [-step 10m] [-shards] [-scale k]
//
// With -reliability N an N-seed fleet sweep runs before serving and its
// confidence-band trend is installed on GET /reliability/trend.
//
// With -shards the campaign is federated (internal/federation): one
// micro-shard per cluster behind per-shard gateway locks, grouped under
// its site's label, with site-scoped routes under /sites/{site}/... and
// scatter-gather merges on the classic paths. A -live advance then
// work-steals the micro-shards across the barrier workers, each stepping
// under its own write lock, so reads against one site never wait for
// another site's progress.
//
// With -scale k any mode runs on testbed.Scaled(k) — k replicas of the
// paper grid (k=16 is the E21 benchmark's 512-micro-shard scale).
//
// With -live the campaign keeps advancing: every wall-clock second the
// simulation steps by -step while request handlers are held out, so the
// served state (resources, bugs, grid, inventory versions) evolves under
// the clients' feet exactly like a production testbed.
//
// The server bounds how long a client may take to send a request, read a
// response or sit idle, and SIGINT/SIGTERM shut it down gracefully:
// in-flight requests drain, the -live driver stops, then the process exits.
//
// Load-generation mode drives the gateway without a listener and prints
// throughput plus latency percentiles, overall and per scenario:
//
//	g5kapi -loadgen [-workers 4] [-requests 20000] [-mix default|scrape|submit]
//	g5kapi -loadgen -shards    # site-pinned federated mix
//	g5kapi -loadgen -rate 500  # open-loop: fixed arrival rate, CO-safe latency
//
// With -rate the generator switches from closed-loop (next request waits
// for the previous) to open-loop: arrivals follow a seeded jittered
// schedule at the given rate regardless of how fast the service answers,
// and latency is measured from the scheduled arrival instant — so queueing
// delay past the capacity knee is charged to the report instead of being
// hidden by coordinated omission. The printout adds offered vs achieved
// rate; a gap between them locates the knee.
//
// With -shards, -chaos arms a deterministic disaster schedule against the
// federated campaign (internal/faults.ParseSchedule syntax):
//
//	g5kapi -shards -chaos "outage:lyon@1w+1w,partition:nantes@2w+1w"
//	g5kapi -shards -chaos "outage:lyon@1w" -loadgen   # disaster mix + availability report
//
// Scheduled events fire as the pre-serve campaign advances: downed sites
// freeze at the federation barrier (their routes answer 503 with
// Retry-After), partitioned sites drop out of merged views, and heals
// replay the missed time deterministically. In -loadgen mode the scenario
// mix switches to the disaster mix and an availability report (overall and
// per site, 503-by-design split from real errors) is printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/inproc"
	"repro/internal/intel"
	"repro/internal/loadgen"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (serving mode)")
	weeks := flag.Int("weeks", 2, "simulated weeks of campaign to run before serving")
	seed := flag.Int64("seed", 42, "simulation seed")
	live := flag.Bool("live", false, "keep advancing the campaign while serving")
	step := flag.Duration("step", 10*time.Minute, "simulated time advanced per wall second in -live mode")
	shards := flag.Bool("shards", false, "federate the campaign: per-cluster micro-shards behind per-shard gateway locks")
	scale := flag.Int("scale", 1, "run on testbed.Scaled(k): k replicas of the paper grid")
	fedWorkers := flag.Int("shard-workers", 0, "shards advanced concurrently (0 = GOMAXPROCS; -shards only)")
	chaos := flag.String("chaos", "", `disaster schedule, e.g. "outage:lyon@1w+1w,maintenance:nancy+rennes@2w+1w" (-shards only)`)
	reliability := flag.Int("reliability", 0, "also run an N-seed fleet sweep and serve it on /reliability/trend (0 = skip)")
	runLoad := flag.Bool("loadgen", false, "run the load generator against an in-process gateway and exit")
	workers := flag.Int("workers", 4, "loadgen: concurrent client workers")
	requests := flag.Int("requests", 20000, "loadgen: total scenario iterations")
	rate := flag.Float64("rate", 0, "loadgen: open-loop arrival rate in req/s (0 = closed-loop)")
	mixName := flag.String("mix", "default", "loadgen: scenario mix (default|scrape|submit; ignored with -shards)")
	flag.Parse()

	var gw *gateway.Gateway
	var mix []loadgen.Scenario

	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "g5kapi: -scale must be ≥ 1")
		os.Exit(1)
	}

	if *shards {
		fed := federation.New(federation.Config{
			Seed: *seed, Workers: *fedWorkers, Spec: testbed.ScaledSpec(*scale),
		})
		fed.Start()
		if *chaos != "" {
			entries, err := faults.ParseSchedule(*chaos)
			if err != nil {
				fmt.Fprintf(os.Stderr, "g5kapi: -chaos: %v\n", err)
				os.Exit(1)
			}
			if err := fed.ScheduleChaos(entries...); err != nil {
				fmt.Fprintf(os.Stderr, "g5kapi: -chaos: %v\n", err)
				os.Exit(1)
			}
			log.Printf("chaos schedule armed: %d grid event(s)", len(entries))
		}
		// The gateway is assembled before the pre-serve advance so barrier
		// ticks run under the per-shard gateway locks from the first week.
		gw = gateway.ForFederation(fed)
		log.Printf("running %d simulated weeks on %d federated micro-shards (%d sites)...",
			*weeks, len(fed.Shards()), len(fed.Summary().Sites))
		gw.Advance(simclock.Time(*weeks) * simclock.Week)
		sum := fed.Summary()
		for _, s := range sum.Sites {
			marker := ""
			if s.Down {
				marker = "  [down]"
			} else if s.Unreachable {
				marker = "  [unreachable]"
			}
			log.Printf("  site %-12s %s%s", s.Site, s.Summary, marker)
		}
		log.Printf("campaign done: %s", sum)
		if *runLoad {
			mix = loadgen.FederatedMix(federatedTargets(fed))
			*mixName = "federated"
			if *chaos != "" {
				mix = loadgen.DisasterMix(federatedTargets(fed))
				*mixName = "disaster"
			}
		}
	} else {
		if *chaos != "" {
			fmt.Fprintln(os.Stderr, "g5kapi: -chaos requires -shards")
			os.Exit(1)
		}
		cfg := core.DefaultConfig()
		cfg.Seed = *seed
		if *scale > 1 {
			cfg.Spec = testbed.ScaledSpec(*scale)
		}
		f := core.New(cfg)
		f.Start()
		log.Printf("running %d simulated weeks of testing on %s...", *weeks, f.TB.Stats())
		f.RunFor(simclock.Time(*weeks) * simclock.Week)
		log.Printf("campaign done: %s", f.Summary())
		gw = gateway.ForFramework(f)
		if *runLoad {
			var err error
			if mix, err = monolithicMix(*mixName, f.TB); err != nil {
				fmt.Fprintf(os.Stderr, "g5kapi: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *reliability > 0 {
		// The sweep is expensive (N whole campaigns), so it runs once here
		// and the gateway serves the stored, versioned result.
		log.Printf("reliability sweep: %d seeds × %d weeks...", *reliability, *weeks)
		res := core.RunFleet(core.FleetConfig{
			Seeds:    core.SeedRange(*seed, *reliability),
			Duration: simclock.Time(*weeks) * simclock.Week,
			Configure: func(s int64) core.Config {
				cfg := core.DefaultConfig()
				cfg.Seed = s
				if *scale > 1 {
					cfg.Spec = testbed.ScaledSpec(*scale)
				}
				return cfg
			},
		})
		gw.SetReliabilityTrend(intel.TrendFromFleet(res, *seed, *weeks))
		log.Printf("reliability trend installed: GET /reliability/trend")
	}

	if *runLoad {
		if err := loadTest(gw, mix, *workers, *requests, *rate, *mixName, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "g5kapi: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var liveStep simclock.Time
	if *live {
		liveStep = simclock.Time(*step)
		log.Printf("live mode: +%v of simulated time per wall second", *step)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("testbed API gateway on %s (try /, /sites, /oar/resources, /ref/inventory, /metrics)", ln.Addr())
	if err := serve(ctx, ln, gw, liveStep); err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down")
}

// serve answers requests on ln until ctx is cancelled, stepping the
// campaign by liveStep every wall-clock second beside it (0 = the campaign
// stands still). On cancellation it stops accepting, gives in-flight
// requests shutdownGrace to finish, and returns only once the live driver
// has exited too — nothing it started outlives it.
func serve(ctx context.Context, ln net.Listener, gw *gateway.Gateway, liveStep simclock.Time) error {
	const shutdownGrace = 10 * time.Second
	srv := &http.Server{
		Handler:           gw,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		// A read may queue behind one campaign step's write lock, and a
		// step of the 512-shard grid takes seconds.
		WriteTimeout: time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	// Cancelled below on every path, so the driver also stops when Serve
	// fails on its own.
	ctx, cancel := context.WithCancel(ctx)

	var driver sync.WaitGroup
	if liveStep > 0 {
		driver.Add(1)
		go func() {
			defer driver.Done()
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					gw.Advance(liveStep)
				}
			}
		}()
	}

	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		grace, cancelGrace := context.WithTimeout(context.Background(), shutdownGrace)
		err = srv.Shutdown(grace)
		cancelGrace()
		if serveErr := <-served; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
			err = serveErr
		}
	}
	cancel()
	driver.Wait()
	return err
}

// monolithicMix picks the classic scenario mix for a single-shard gateway.
func monolithicMix(name string, tb *testbed.Testbed) ([]loadgen.Scenario, error) {
	clusters := make([]string, 0, 8)
	for _, cl := range tb.Clusters() {
		clusters = append(clusters, cl.Name)
		if len(clusters) == 8 {
			break
		}
	}
	switch name {
	case "default":
		return loadgen.DefaultMix(clusters), nil
	case "scrape":
		return loadgen.ScrapeOnlyMix(clusters), nil
	case "submit":
		return []loadgen.Scenario{loadgen.SubmitHeavy(clusters)}, nil
	}
	return nil, fmt.Errorf("unknown -mix %q (default|scrape|submit)", name)
}

// federatedTargets derives the site-pinned loadgen targets from a
// federation: every site with its clusters and one monitored node. The
// federation shards per cluster, so each site's micro-shards fold into
// one target.
func federatedTargets(fed *federation.Federation) []loadgen.SiteTarget {
	var out []loadgen.SiteTarget
	idx := map[string]int{}
	for _, sh := range fed.Shards() {
		i, ok := idx[sh.Site]
		if !ok {
			i = len(out)
			idx[sh.Site] = i
			out = append(out, loadgen.SiteTarget{Site: sh.Site})
		}
		for _, cl := range sh.F.TB.Clusters() {
			out[i].Clusters = append(out[i].Clusters, cl.Name)
		}
		if nodes := sh.F.TB.Nodes(); len(out[i].Nodes) == 0 && len(nodes) > 0 {
			out[i].Nodes = []string{nodes[0].Name}
		}
	}
	return out
}

// loadTest drives the gateway through the in-process transport — no
// listener, no socket stack, just the service code under concurrency.
func loadTest(gw *gateway.Gateway, mix []loadgen.Scenario, workers, requests int, rate float64, mixName string, seed int64) error {
	newClient := func(int) (*http.Client, string) {
		return inproc.Client(gw), "http://gateway.local"
	}
	var rep *loadgen.Report
	if rate > 0 {
		fmt.Printf("open-loop: %d arrivals of %q at %g req/s on %d workers...\n",
			requests, mixName, rate, workers)
		olr, err := loadgen.RunOpenLoop(loadgen.OpenLoopConfig{
			Rate:       rate,
			Requests:   requests,
			Workers:    workers,
			Mix:        mix,
			Seed:       seed,
			JitterFrac: 0.2,
			NewClient:  newClient,
		})
		if err != nil {
			return err
		}
		rep = &olr.Report
		defer fmt.Printf("\nrates: offered %.1f req/s, achieved %.1f req/s\n",
			olr.OfferedRate, olr.AchievedRate)
	} else {
		fmt.Printf("load-generating %d iterations of %q on %d workers...\n", requests, mixName, workers)
		var err error
		rep, err = loadgen.Run(loadgen.Config{
			Workers:   workers,
			Requests:  requests,
			Mix:       mix,
			Seed:      seed,
			NewClient: newClient,
		})
		if err != nil {
			return err
		}
	}
	fmt.Println()
	fmt.Print(rep.String())
	if mixName == "disaster" {
		fmt.Println()
		fmt.Print(rep.Availability().String())
	}

	fmt.Println("\ngateway metrics:")
	m := gw.Metrics()
	fmt.Printf("  %-18s %8d requests, %d errors\n", "total", m.Requests, m.Errors)
	for _, ep := range []string{"/sites", "/sites/", "/ref/inventory", "/ref/diff", "/oar/resources", "/oar/jobs", "/oar/submit", "/admit/queue", "/status/grid", "/status/trend", "/bugs", "/ci/", "/metrics"} {
		em, ok := m.Endpoints[ep]
		if !ok || em.Requests == 0 {
			continue
		}
		fmt.Printf("  %-18s %8d requests, %5d × 304, avg %7.1fµs, max %.0fµs\n",
			ep, em.Requests, em.NotModified, em.AvgMicros, em.MaxMicros)
	}
	return nil
}
