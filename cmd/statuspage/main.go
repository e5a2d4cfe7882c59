// Command statuspage runs a short testing campaign and serves the external
// status page over HTTP: the per-test × per-cluster grid (HTML), the
// transposed per-target report, and the raw CI REST API it is built from.
//
// Usage:
//
//	statuspage [-addr :8080] [-weeks 2] [-seed S]
//
// Endpoints:
//
//	/            status grid (HTML)
//	/target/X    all tests for cluster or site X (text)
//	/trend       historical success rate (text)
//	/ci/...      the underlying CI REST API (Jenkins-style JSON)
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/simclock"
	"repro/internal/status"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	weeks := flag.Int("weeks", 2, "simulated weeks of campaign to run first")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	f := core.New(cfg)
	f.Start()
	log.Printf("running %d simulated weeks of testing on %s...", *weeks, f.TB.Stats())
	f.RunFor(simclock.Time(*weeks) * simclock.Week)
	log.Printf("campaign done: %s", f.Summary())

	// The page consumes the CI REST API through the exact HTTP client code
	// path the paper's external status page uses, but dispatched in
	// process: the same handler is mounted below under /ci/, so there is
	// no second listener and no loopback hop.
	ciHandler := f.CI.Handler()
	client := status.NewLocalClient(ciHandler)

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		grid, err := client.BuildGrid()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		grid.RenderHTML(w) //nolint:errcheck
	})
	mux.HandleFunc("/target/", func(w http.ResponseWriter, r *http.Request) {
		target := strings.TrimPrefix(r.URL.Path, "/target/")
		grid, err := client.BuildGrid()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		rep := grid.ReportFor(target)
		if len(rep.Rows) == 0 {
			http.NotFound(w, r)
			return
		}
		for _, row := range rep.Rows {
			fmt.Fprintf(w, "%-16s %-10s (build #%d)\n", row.Family, row.Status.Result, row.Status.Build)
		}
	})
	mux.HandleFunc("/trend", func(w http.ResponseWriter, r *http.Request) {
		builds, err := client.AllBuilds()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		status.RenderTrend(w, status.Trend(builds, float64(simclock.Day/simclock.Second)))
	})
	mux.Handle("/ci/", http.StripPrefix("/ci", ciHandler))

	// The same bounds g5kapi sets on how long a client may take to send a
	// request, read a response or sit idle.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("status page on %s", *addr)
	log.Fatal(srv.ListenAndServe())
}
