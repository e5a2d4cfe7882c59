// Command g5kapi serves a live campaign through the unified testbed API
// gateway (internal/gateway): it runs a short federated campaign
// (internal/federation) first, then exposes every subsystem over one HTTP
// front door:
//
//	g5kapi [-addr :8080] [-weeks 2] [-seed 42] [-live] [-step 10m] [-scale k]
//
// The campaign is one micro-shard per cluster behind per-shard gateway
// locks, grouped under its site's label, with site-scoped routes under
// /sites/{site}/... and scatter-gather merges on the grid-wide paths. An
// advance work-steals the micro-shards across -shard-workers barrier
// workers, each stepping under its own write lock, so reads against one
// site never wait for another site's progress. (One framework over the
// whole grid is what g5ktest runs and statuspage serves, CI REST API and
// status page.)
//
// With -reliability N an N-seed fleet sweep runs before serving and its
// confidence-band trend is installed on GET /reliability/trend.
//
// With -scale k the campaign runs on testbed.ScaledSpec(k) — k replicas of the
// paper grid (k=16 is 512 micro-shards).
//
// With -live the campaign keeps advancing: every wall-clock second the
// simulation steps by -step while request handlers are held out of the
// shard that is stepping, so the served state (resources, bugs, grid,
// inventory versions) evolves under the clients' feet exactly like a
// production testbed.
//
// The server bounds how long a client may take to send a request, read a
// response or sit idle, and SIGINT/SIGTERM shut it down gracefully:
// in-flight requests drain, the -live driver stops, then the process exits.
//
// -chaos arms a deterministic disaster schedule against the campaign
// (internal/faults.ParseSchedule syntax):
//
//	g5kapi -chaos "outage:lyon@1w+1w,partition:nantes@2w+1w"
//
// Scheduled events fire as the pre-serve campaign advances: downed sites
// freeze at the federation barrier (their routes answer 503 with
// Retry-After), partitioned sites drop out of merged views, and heals
// replay the missed time deterministically.
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
	"repro/internal/intel"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	weeks := flag.Int("weeks", 2, "simulated weeks of campaign to run before serving")
	seed := flag.Int64("seed", 42, "simulation seed")
	live := flag.Bool("live", false, "keep advancing the campaign while serving")
	step := flag.Duration("step", 10*time.Minute, "simulated time advanced per wall second in -live mode")
	scale := flag.Int("scale", 1, "run on testbed.ScaledSpec(k): k replicas of the paper grid")
	fedWorkers := flag.Int("shard-workers", 0, "micro-shards advanced concurrently (0 = GOMAXPROCS)")
	chaos := flag.String("chaos", "", `disaster schedule, e.g. "outage:lyon@1w+1w,maintenance:nancy+rennes@2w+1w"`)
	reliability := flag.Int("reliability", 0, "also run an N-seed fleet sweep and serve it on /reliability/trend (0 = skip)")
	flag.Parse()

	if err := checkFlags(*scale, *weeks, *reliability, *live, *step); err != nil {
		fmt.Fprintf(os.Stderr, "g5kapi: %v\n", err)
		os.Exit(1)
	}

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
	gw := gateway.ForFederation(fed)
	log.Printf("running %d simulated weeks on %d federated micro-shards (%d sites)...",
		*weeks, len(fed.Shards()), len(fed.Sites()))
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

// checkFlags refuses the flag values no campaign can be run or served
// with.
func checkFlags(scale, weeks, reliability int, live bool, step time.Duration) error {
	switch {
	case scale < 1:
		return errors.New("-scale must be ≥ 1")
	case weeks < 0:
		return errors.New("-weeks must be ≥ 0")
	case reliability < 0:
		return errors.New("-reliability must be ≥ 0")
	case live && step <= 0:
		return errors.New("-live needs a -step > 0: the campaign would stand still")
	}
	return nil
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
