package gateway

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/simclock"
)

// servedDays is how many days the served fixture's campaign ran: every
// store then holds servedDays+1 archived versions.
const servedDays = 10

// servedFixture is the shape serve-scrape and serve-dashboard serve: the
// default 32-shard federation advanced ten days, day by day, each day
// ending with one node of every store re-described from its live inventory
// (g5kbench's describer), behind a gateway that nothing advances while it
// is read. Built once per test binary: the campaign costs far more than a
// read.
var servedFixture = sync.OnceValue(func() *Gateway {
	fed := federation.New(federation.Config{Seed: 1, Workers: 1})
	fed.Start()
	gw := ForFederation(fed)
	rng := rand.New(rand.NewSource(1))
	for d := 0; d < servedDays; d++ {
		gw.Advance(simclock.Day)
		for _, sh := range fed.Shards() {
			nodes := sh.F.TB.Nodes()
			n := nodes[rng.Intn(len(nodes))]
			if err := sh.F.Ref.Update(sh.F.Clock.Now(), n.Name, n.Inv); err != nil {
				panic(err)
			}
		}
	}
	return gw
})

// get200 sends one GET of path through c and reads the body, which must
// come with 200.
func get200(b *testing.B, c *http.Client, path string) {
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

// benchmarkRoute measures one GET per op, of the path op i names, on the
// served fixture, through the in-process transport.
func benchmarkRoute(b *testing.B, path func(i int) string) {
	c := inproc.Client(servedFixture())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get200(b, c, path(i))
	}
}

// BenchmarkStatusGrid is the dashboard's /status/grid: one grid per CI
// server, merged.
func BenchmarkStatusGrid(b *testing.B) {
	benchmarkRoute(b, func(int) string { return "/status/grid" })
}

// BenchmarkStatusTrend is the dashboard's /status/trend: every retained
// build of every CI server, bucketed by day.
func BenchmarkStatusTrend(b *testing.B) {
	benchmarkRoute(b, func(int) string { return "/status/trend" })
}

// dayAt is an instant inside day d of the served campaign, after that
// day's re-descriptions: the grid's version vector there names version d+1
// of every store.
func dayAt(d int) int { return d*86400 + 3600 }

// BenchmarkGridAtCold is a /grid/at whose version vector differs from the
// previous request's, so the route's one cached body never answers: every
// op renders the whole grid, 894 nodes, from the stores' snapshots.
func BenchmarkGridAtCold(b *testing.B) {
	benchmarkRoute(b, func(i int) string { return fmt.Sprintf("/grid/at?t=%d", dayAt(i%(servedDays+1))) })
}

// BenchmarkGridDiff is a /grid/diff over a day range differing from the
// previous request's: every op diffs every store between two versions and
// renders the answer.
func BenchmarkGridDiff(b *testing.B) {
	benchmarkRoute(b, func(i int) string {
		from := i % servedDays
		return fmt.Sprintf("/grid/diff?from=%d&to=%d", dayAt(from), dayAt(from+1+i/servedDays%(servedDays-from)))
	})
}

// BenchmarkShardInventoryArchived is one store's archived version read
// after its first read rendered it: store after store, version after
// version, as serve-scrape's cold walk reaches them, each answered with the
// body its snapshot kept.
func BenchmarkShardInventoryArchived(b *testing.B) {
	gw := servedFixture()
	c := inproc.Client(gw)
	var paths []string
	for _, sh := range gw.shards {
		for v := 1; v <= servedDays; v++ {
			path := fmt.Sprintf("/sites/%s/ref/inventory?cluster=%s&version=%d", sh.site, sh.cluster, v)
			get200(b, c, path)
			paths = append(paths, path)
		}
	}
	benchmarkRoute(b, func(i int) string { return paths[i%len(paths)] })
}
