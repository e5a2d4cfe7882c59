package gateway

import (
	"io"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/simclock"
)

// TestReadsArePure: serving a campaign only observes it. Two identical
// federations, kwapi flaky at the first shard's site, advance four weeks in
// 6 h steps; one of them answers a GET of every wirePaths route after each
// step. Their summaries and weekly reports must be equal, and no read may
// fail on the server's side.
func TestReadsArePure(t *testing.T) {
	campaign := func() (*federation.Federation, *Gateway) {
		fed, gw := newFederatedCampaign(t, 0)
		site := fed.Shards()[0].Site
		for _, sh := range siteShards(fed, site) {
			if _, err := sh.F.Faults.InjectService(site, "kwapi", 0.5); err != nil {
				t.Fatal(err)
			}
		}
		return fed, gw
	}
	quiet, _ := campaign()
	read, gw := campaign()
	c := inproc.Client(gw)
	paths := wirePaths(gw)
	for now := simclock.Time(0); now < 4*simclock.Week; now += 6 * simclock.Hour {
		quiet.Advance(6 * simclock.Hour)
		read.Advance(6 * simclock.Hour)
		for _, p := range paths {
			resp, err := c.Get("http://gw.local" + p)
			if err != nil {
				t.Fatalf("GET %s: %v", p, err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode >= http.StatusInternalServerError {
				t.Errorf("GET %s at %v = %d", p, read.Now(), resp.StatusCode)
			}
		}
	}
	if q, r := quiet.Summary(), read.Summary(); !reflect.DeepEqual(q, r) {
		t.Errorf("reads changed the campaign:\nwithout: %s\n   with: %s", q, r)
	}
	if q, r := quiet.WeeklyReport(), read.WeeklyReport(); !reflect.DeepEqual(q, r) {
		t.Errorf("reads changed the weekly report:\nwithout: %+v\n   with: %+v", q, r)
	}
}
