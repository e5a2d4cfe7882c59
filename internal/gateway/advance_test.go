package gateway

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/simclock"
)

// advanceSteps is the step train both twins of the tests below run: a day
// hour by hour, then two whole weeks.
func advanceSteps() []simclock.Time {
	steps := make([]simclock.Time, 0, 26)
	for h := 0; h < 24; h++ {
		steps = append(steps, simclock.Hour)
	}
	return append(steps, simclock.Week, simclock.Week)
}

// TestGatewayAddsNothingToTime: a gateway in front of a federation is not a
// second way to move time. Twin federations — same seed, same outage and
// heal on the schedule — one stepped through Federation.Advance, the other
// through ForFederation(fed).Advance, end with equal summaries, weekly
// reports and per-shard event counts.
func TestGatewayAddsNothingToTime(t *testing.T) {
	twin := func() *federation.Federation {
		fed := federation.New(federation.Config{
			Seed: 15,
			Spec: fedSpec("luxembourg", "nantes", "lyon"),
			Profile: func() *core.Config {
				cfg := core.DefaultConfig()
				cfg.InitialFaults = 4
				return &cfg
			}(),
		})
		fed.Start()
		if err := fed.ScheduleChaos(faults.ScheduleEntry{
			Kind: faults.SiteOutage, Sites: []string{"lyon"}, At: 6 * simclock.Hour, Duration: 12 * simclock.Hour,
		}); err != nil {
			t.Fatalf("schedule: %v", err)
		}
		return fed
	}
	direct, fronted := twin(), twin()
	gw := ForFederation(fronted)
	for _, d := range advanceSteps() {
		direct.Advance(d)
		gw.Advance(d)
	}

	if d, f := direct.Summary(), fronted.Summary(); !reflect.DeepEqual(d, f) {
		t.Fatalf("summaries diverged:\ndirect:  %+v\nfronted: %+v", d, f)
	}
	if d, f := direct.WeeklyReport(), fronted.WeeklyReport(); !reflect.DeepEqual(d, f) {
		t.Fatalf("weekly reports diverged:\ndirect:  %+v\nfronted: %+v", d, f)
	}
	for i, sh := range direct.Shards() {
		if d, f := sh.F.Clock.Fired(), fronted.Shards()[i].F.Clock.Fired(); d != f {
			t.Fatalf("%s/%s fired %d events stepped directly, %d behind the gateway", sh.Site, sh.Cluster, d, f)
		}
	}
	if direct.Summary().Merged.Builds == 0 {
		t.Fatal("the twins completed no builds")
	}
	if steps := gw.AdvanceLockStats().Steps; steps == 0 {
		t.Fatal("no step of the fronted twin passed the gateway's shard gates")
	}
}

// TestChaosMarkerIsOneReading races outages against the degraded marker on
// a site that is partitioned throughout: each inject moves nantes from the
// unreachable list to the down list and each heal moves it back, so the
// grid is never whole and every reading must name nantes lost exactly once.
// Read list by list, an inject landing between the two reads found it in
// neither — a merged response with no marker and no "|down:" key over a
// grid that was never whole.
func TestChaosMarkerIsOneReading(t *testing.T) {
	fed, gw := newChaosCampaign(t)
	c := inproc.Client(gw)
	if _, err := fed.InjectGrid(faults.WANPartition, []string{"nantes"}, 0, 0); err != nil {
		t.Fatalf("partition: %v", err)
	}
	total, nantes := 0, 0
	for _, sh := range fed.Shards() {
		total += sh.F.TB.TotalNodes()
		if sh.Site == "nantes" {
			nantes += sh.F.TB.TotalNodes()
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	namesNantesOnce := func(d *DegradedJSON) bool {
		if d == nil {
			return false
		}
		n := 0
		for _, s := range append(append([]string(nil), d.DownSites...), d.UnreachableSites...) {
			if s == "nantes" {
				n++
			}
		}
		return n == 1
	}
	for r := 0; r < 2; r++ {
		readers.Add(2)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d := gw.degradedMarker(); !namesNantesOnce(d) {
					t.Errorf("degraded marker %+v does not name nantes lost exactly once", d)
					return
				}
			}
		}()
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Get("http://gw.local/oar/resources")
				if err != nil {
					t.Errorf("GET /oar/resources: %v", err)
					return
				}
				var merged OARResourcesJSON
				err = json.NewDecoder(resp.Body).Decode(&merged)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET /oar/resources: status %d, decoding: %v", resp.StatusCode, err)
					return
				}
				if !namesNantesOnce(merged.Degraded) || len(merged.Nodes) != total-nantes {
					t.Errorf("marker %+v over %d of %d nodes, want nantes lost once and %d nodes", merged.Degraded, len(merged.Nodes), total, total-nantes)
					return
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		ev, err := fed.InjectGrid(faults.SiteOutage, []string{"nantes"}, 0, 0)
		if err != nil {
			t.Fatalf("inject: %v", err)
		}
		if _, err := fed.HealGrid(ev.ID); err != nil {
			t.Fatalf("heal: %v", err)
		}
	}
	close(stop)
	readers.Wait()
}
