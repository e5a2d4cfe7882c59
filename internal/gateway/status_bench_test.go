package gateway

import (
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/simclock"
)

// dashboardFixture is serve-dashboard's shape: the default 32-shard
// federation advanced ten days, day by day, behind a gateway that nothing
// advances while it is read. Built once per test binary: the campaign costs
// far more than a read.
var dashboardFixture = sync.OnceValue(func() *Gateway {
	fed := federation.New(federation.Config{Seed: 1, Workers: 1})
	fed.Start()
	gw := ForFederation(fed)
	for d := 0; d < 10; d++ {
		gw.Advance(simclock.Day)
	}
	return gw
})

// benchmarkDashboardRoute measures one GET of path on the dashboard fixture,
// body read and discarded, through the in-process transport.
func benchmarkDashboardRoute(b *testing.B, path string) {
	c := inproc.Client(dashboardFixture())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Get("http://gw.local" + path)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}
}

// BenchmarkStatusGrid is the dashboard's /status/grid: one grid per CI
// server, merged.
func BenchmarkStatusGrid(b *testing.B) { benchmarkDashboardRoute(b, "/status/grid") }

// BenchmarkStatusTrend is the dashboard's /status/trend: every retained
// build of every CI server, bucketed by day.
func BenchmarkStatusTrend(b *testing.B) { benchmarkDashboardRoute(b, "/status/trend") }
