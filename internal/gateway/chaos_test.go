package gateway

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/simclock"
)

// newChaosCampaign builds a three-site federation fronted by a gateway and
// runs it one week through the barrier engine (gw.Advance is
// Federation.Advance once ForFederation wires it).
func newChaosCampaign(t testing.TB) (*federation.Federation, *Gateway) {
	t.Helper()
	fed := federation.New(federation.Config{
		Seed: 11,
		Spec: fedSpec("luxembourg", "nantes", "lyon"),
		Profile: func() *core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 4
			cfg.EnvMatrixPeriod = 0
			return &cfg
		}(),
	})
	fed.Start()
	gw := ForFederation(fed)
	gw.Advance(simclock.Week)
	return fed, gw
}

func postJSON(t *testing.T, c *http.Client, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := c.Post("http://gw.local"+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp, b
}

// TestPostBodiesAreBounded: the three POST routes read at most maxBodyBytes
// of a body — a larger one answers 413 however well-formed it is, a
// malformed one 400, and a valid one what it always did.
func TestPostBodiesAreBounded(t *testing.T) {
	_, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)
	for _, tc := range []struct {
		path, valid string
		status      int
	}{
		{"/oar/submit", `{"request":"nodes=1,walltime=1"}`, http.StatusCreated},
		{"/chaos/inject", `{"kind":"outage","sites":["nantes"]}`, http.StatusCreated},
		{"/chaos/heal", `{"all":true}`, http.StatusOK},
	} {
		for _, send := range []struct {
			body   string
			status int
		}{
			{strings.Repeat(" ", maxBodyBytes) + tc.valid, http.StatusRequestEntityTooLarge},
			{`{"request":`, http.StatusBadRequest},
			{tc.valid, tc.status},
		} {
			if resp, body := postJSON(t, c, tc.path, send.body); resp.StatusCode != send.status {
				t.Errorf("POST %s with %d bytes: status = %d, want %d: %s",
					tc.path, len(send.body), resp.StatusCode, send.status, body)
			}
		}
	}
}

// TestPostBodiesRejectUnknownFields: a body with a field its route does not
// know — {"request":"nodes=4","dryrun":true}, a misspelt dry run — or with
// anything after its JSON value answers 400 and reaches no OAR server, while
// the bodies g5kbench sends (request + dry_run, request + user; anchored and
// not) answer what they always did.
func TestPostBodiesRejectUnknownFields(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)
	submitted := func() (n int) {
		for _, sh := range fed.Shards() {
			s, _, _ := sh.F.OAR.Stats()
			n += s
		}
		return n
	}
	before := submitted()
	for _, tc := range []struct{ path, body string }{
		{"/oar/submit", `{"request":"nodes=4","dryrun":true}`},
		{"/oar/submit", `{"request":"nodes=1,walltime=1"} {"request":"nodes=2"}`},
		{"/oar/submit", `{"request":"nodes=1,walltime=1"}}`},
		{"/chaos/inject", `{"kind":"outage","sites":["nantes"],"duration":60}`},
		{"/chaos/heal", `{"all":true,"force":true}`},
	} {
		if resp, body := postJSON(t, c, tc.path, tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status = %d, want 400: %s", tc.path, tc.body, resp.StatusCode, body)
		}
	}
	if after := submitted(); after != before {
		t.Fatalf("rejected bodies moved OAR's submitted count from %d to %d", before, after)
	}

	cluster := fed.Shards()[0].F.TB.Clusters()[0].Name
	for _, tc := range []struct {
		body string
		want []int
	}{
		{fmt.Sprintf(`{"request":"cluster='%s'/nodes=2,walltime=0:30:00","dry_run":true}`, cluster), []int{http.StatusOK}},
		{fmt.Sprintf(`{"request":"cluster='%s'/nodes=1,walltime=0:10:00","user":"g5kbench"}`, cluster), []int{http.StatusCreated}},
		{`{"request":"nodes=2,walltime=0:30:00","dry_run":true}`, []int{http.StatusOK}},
		{`{"request":"nodes=1,walltime=0:10:00","user":"g5kbench"}`, []int{http.StatusCreated, http.StatusAccepted}},
	} {
		if resp, body := postJSON(t, c, "/oar/submit", tc.body); !slices.Contains(tc.want, resp.StatusCode) {
			t.Errorf("POST /oar/submit %s: status = %d, want one of %v: %s", tc.body, resp.StatusCode, tc.want, body)
		}
	}
}

// TestChaosOutageDegradedRouting is the HTTP-level disaster drill: inject a
// site outage through the admin endpoint, prove the lost site's routes
// answer 503 with Retry-After while surviving and merged routes keep
// serving (with a degraded marker), then heal and prove full recovery.
func TestChaosOutageDegradedRouting(t *testing.T) {
	fed, gw := newChaosCampaign(t)
	c := inproc.Client(gw)

	nodesAt := map[string]int{}
	total := 0
	for _, sh := range fed.Shards() {
		nodesAt[sh.Site] += sh.F.TB.TotalNodes()
		total += sh.F.TB.TotalNodes()
	}

	// Healthy baseline: no degraded marker anywhere, /chaos reports clean.
	resp, body := get(t, c, "/chaos")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/chaos status = %d", resp.StatusCode)
	}
	if st := decode[ChaosJSON](t, body); st.Degraded || len(st.Active) != 0 {
		t.Fatalf("healthy /chaos = %+v", st)
	}
	resp, body = get(t, c, "/ref/inventory")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy inventory status = %d", resp.StatusCode)
	}
	healthyETag := resp.Header.Get("ETag")
	if strings.Contains(healthyETag, "down") {
		t.Fatalf("healthy ETag carries a down set: %s", healthyETag)
	}

	// Inject a lyon outage live.
	resp, body = postJSON(t, c, "/chaos/inject", `{"kind":"outage","sites":["lyon"]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("inject status = %d: %s", resp.StatusCode, body)
	}
	ev := decode[GridEventJSON](t, body)
	if ev.ID != 1 || ev.Kind != "site-outage" || ev.Signature != "site-outage:lyon" {
		t.Fatalf("injected event = %+v", ev)
	}
	if resp, _ := postJSON(t, c, "/chaos/inject", `{"kind":"outage","sites":["atlantis"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-site inject status = %d, want 400", resp.StatusCode)
	}

	// Every site-scoped view of the lost site is 503-by-design with a
	// Retry-After hint — GETs and the submit POST alike.
	for _, path := range []string{
		"/sites/lyon/oar/resources", "/sites/lyon/oar/jobs",
		"/sites/lyon/monitor/metrics", "/sites/lyon/ref/inventory",
		"/sites/lyon/ci/api/json",
	} {
		resp, _ := get(t, c, path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s status = %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: missing Retry-After", path)
		}
	}
	if resp, _ := postJSON(t, c, "/sites/lyon/oar/submit", `{"request":"nodes=1,walltime=1"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to lost site status = %d, want 503", resp.StatusCode)
	}
	// So are the query-parameter spellings and anything routed to lyon.
	if resp, _ := get(t, c, "/oar/resources?site=lyon"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("?site=lyon status = %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, c, "/oar/resources?cluster=sagittaire"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("?cluster=sagittaire status = %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, c, "/oar/submit", `{"request":"cluster='sagittaire'/nodes=1,walltime=1"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit anchored to lost site status = %d, want 503", resp.StatusCode)
	}
	lyonNode := coordinator(fed, "lyon").F.TB.Nodes()[0].Name
	if resp, _ := get(t, c, "/monitor/metrics?node="+lyonNode); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("monitor on lost node status = %d, want 503", resp.StatusCode)
	}

	// Surviving sites keep serving.
	resp, body = get(t, c, "/sites/nantes/oar/resources")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surviving site status = %d", resp.StatusCode)
	}
	if got := decode[OARResourcesJSON](t, body); len(got.Nodes) != nodesAt["nantes"] {
		t.Fatalf("surviving site = %d nodes, want %d", len(got.Nodes), nodesAt["nantes"])
	}

	// Merged views exclude the lost shard and say so.
	resp, body = get(t, c, "/oar/resources")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded merge status = %d", resp.StatusCode)
	}
	merged := decode[OARResourcesJSON](t, body)
	if len(merged.Nodes) != total-nodesAt["lyon"] {
		t.Fatalf("degraded merge = %d nodes, want %d", len(merged.Nodes), total-nodesAt["lyon"])
	}
	if merged.Degraded == nil || len(merged.Degraded.DownSites) != 1 || merged.Degraded.DownSites[0] != "lyon" {
		t.Fatalf("degraded marker = %+v", merged.Degraded)
	}
	if len(merged.Degraded.SurvivingSites) != 2 {
		t.Fatalf("surviving sites = %v", merged.Degraded.SurvivingSites)
	}
	resp, body = get(t, c, "/oar/jobs")
	if resp.StatusCode != http.StatusOK || decode[OARJobsJSON](t, body).Degraded == nil {
		t.Fatalf("merged jobs should carry the marker (status %d)", resp.StatusCode)
	}
	resp, body = get(t, c, "/bugs")
	if resp.StatusCode != http.StatusOK || decode[BugsJSON](t, body).Degraded == nil {
		t.Fatalf("merged bugs should carry the marker (status %d)", resp.StatusCode)
	}
	resp, body = get(t, c, "/status/grid")
	if resp.StatusCode != http.StatusOK || decode[GridJSON](t, body).Degraded == nil {
		t.Fatalf("status grid should carry the marker (status %d)", resp.StatusCode)
	}
	resp, body = get(t, c, "/status/trend")
	if resp.StatusCode != http.StatusOK || decode[TrendJSON](t, body).Degraded == nil {
		t.Fatalf("status trend should carry the marker (status %d)", resp.StatusCode)
	}

	// The federated inventory drops the lost section, and its ETag encodes
	// the down set so conditional requests cannot resurrect a whole-grid
	// body.
	resp, body = get(t, c, "/ref/inventory")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded inventory status = %d", resp.StatusCode)
	}
	inv := decode[FederatedInventoryJSON](t, body)
	if len(inv.Sites) != 2 || inv.Degraded == nil {
		t.Fatalf("degraded inventory = %d sites, marker %+v", len(inv.Sites), inv.Degraded)
	}
	degradedETag := resp.Header.Get("ETag")
	if degradedETag == healthyETag || !strings.Contains(degradedETag, "down:lyon") {
		t.Fatalf("degraded ETag = %s (healthy %s)", degradedETag, healthyETag)
	}
	if resp, _ := get(t, c, "/ref/diff"); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded diff status = %d", resp.StatusCode)
	}

	// The /sites listing flags the lost site.
	resp, body = get(t, c, "/sites")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sites status = %d", resp.StatusCode)
	}
	sites := decode[SitesJSON](t, body)
	if sites.Degraded == nil {
		t.Fatal("/sites missing degraded marker")
	}
	for _, s := range sites.Sites {
		if s.Down != (s.Name == "lyon") {
			t.Fatalf("site %s down flag = %v", s.Name, s.Down)
		}
	}

	// A barrier week mid-outage freezes lyon and files the outage ticket on
	// every surviving shard; the rollup folds that burst into one row.
	gw.Advance(simclock.Week)
	if got := coordinator(fed, "lyon").F.Clock.Now(); got != simclock.Week {
		t.Fatalf("lost site clock = %v, want frozen at %v", got, simclock.Week)
	}
	resp, body = get(t, c, "/bugs/rollup?state=all")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollup status = %d", resp.StatusCode)
	}
	rollup := decode[BugsRollupJSON](t, body)
	var outage *BugRollupJSON
	for i := range rollup.Rollup {
		if rollup.Rollup[i].Signature == "site-outage:lyon" {
			outage = &rollup.Rollup[i]
		}
	}
	if outage == nil || outage.Tickets != 2 || len(outage.Sites) != 2 {
		t.Fatalf("outage rollup row = %+v", outage)
	}

	// Heal through the admin endpoint: routes recover, the marker clears,
	// the ETag returns to the healthy form, and the next barrier week
	// catches the lost shard back up to lockstep.
	resp, body = postJSON(t, c, "/chaos/heal", `{"id":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heal status = %d: %s", resp.StatusCode, body)
	}
	if healed := decode[ChaosHealResponse](t, body); len(healed.Healed) != 1 || !healed.Healed[0].Healed {
		t.Fatalf("heal reply = %+v", healed)
	}
	if resp, _ := get(t, c, "/sites/lyon/oar/resources"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healed site status = %d", resp.StatusCode)
	}
	resp, body = get(t, c, "/oar/resources")
	if merged := decode[OARResourcesJSON](t, body); merged.Degraded != nil || len(merged.Nodes) != total {
		t.Fatalf("healed merge = %d nodes, marker %+v", len(merged.Nodes), merged.Degraded)
	}
	gw.Advance(simclock.Week)
	for _, sh := range fed.Shards() {
		if got := sh.F.Clock.Now(); got != 3*simclock.Week {
			t.Fatalf("site %s clock = %v after heal, want %v", sh.Site, got, 3*simclock.Week)
		}
	}
	resp, body = get(t, c, "/chaos")
	st := decode[ChaosJSON](t, body)
	if st.Degraded || len(st.Active) != 0 || len(st.History) != 1 || !st.History[0].Healed {
		t.Fatalf("post-heal /chaos = %+v", st)
	}
}

// siteWalk is what one pass over every site's routes saw at one site.
type siteWalk struct{ requests, unavailable int }

// walkSites plays, in a fixed order, the requests an operator dashboard, a
// per-site scraper and a per-site submitter make: the merged views, then
// for every site its resources (whole and per cluster), inventory, one
// node's power metrics, recent jobs, and a dry-run probe per cluster. It
// returns per-site counts of requests and 503s; a merged view answering
// anything but 200, a site route answering anything but success or 503, or
// a 503 without Retry-After fails the test.
func walkSites(t *testing.T, fed *federation.Federation, c *http.Client) map[string]siteWalk {
	t.Helper()
	for _, path := range []string{"/sites", "/status/grid", "/status/trend", "/bugs", "/oar/resources", "/ref/inventory"} {
		if resp, body := get(t, c, path); resp.StatusCode != http.StatusOK {
			t.Fatalf("merged view %s: status = %d, want 200: %s", path, resp.StatusCode, body)
		}
	}
	out := map[string]siteWalk{}
	for _, site := range fed.Sites() {
		base := "/sites/" + site
		node := coordinator(fed, site).F.TB.Nodes()[0].Name
		var w siteWalk
		see := func(path string, resp *http.Response, body []byte) {
			w.requests++
			switch {
			case resp.StatusCode == http.StatusServiceUnavailable:
				w.unavailable++
				if resp.Header.Get("Retry-After") == "" {
					t.Fatalf("%s: 503 without Retry-After", path)
				}
			case resp.StatusCode >= 300:
				t.Fatalf("%s: status = %d: %s", path, resp.StatusCode, body)
			}
		}
		paths := []string{
			base + "/oar/resources", base + "/ref/inventory", base + "/oar/jobs?limit=25",
			base + "/monitor/metrics?metric=power_w&node=" + node + "&from_sec=0&to_sec=30",
		}
		for _, sh := range siteShards(fed, site) {
			paths = append(paths, base+"/oar/resources?cluster="+sh.Cluster)
		}
		for _, path := range paths {
			resp, body := get(t, c, path)
			see(path, resp, body)
		}
		for _, sh := range siteShards(fed, site) {
			resp, body := postJSON(t, c, base+"/oar/submit",
				`{"request":"cluster='`+sh.Cluster+`'/nodes=1,walltime=0:30:00","dry_run":true}`)
			see(base+"/oar/submit", resp, body)
		}
		out[site] = w
	}
	return out
}

// TestChaosMetricsClockIsTheGrids: /metrics reports the assembly's clock,
// not its first shard's, which stands still while that shard's site is out.
func TestChaosMetricsClockIsTheGrids(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Day)
	if _, err := fed.InjectGrid(faults.SiteOutage, []string{gw.sites[0]}, 0, 0); err != nil {
		t.Fatal(err)
	}
	gw.Advance(simclock.Day)
	if got, want := gw.Metrics().SimNowSec, fed.Now().Seconds(); got != want || want != (2*simclock.Day).Seconds() {
		t.Fatalf("sim_now_sec = %v with %s out, the grid is at %v", got, gw.sites[0], want)
	}
}

// TestChaosWalkCountsEvery503 is the availability contract as exact counts:
// with lyon lost, every request to a lyon route — and no other request —
// answers 503, each with Retry-After; the merged views keep answering 200;
// and after the heal and a catch-up week the same walk sees no 503 at all.
func TestChaosWalkCountsEvery503(t *testing.T) {
	fed, gw := newChaosCampaign(t)
	c := inproc.Client(gw)

	ev, err := fed.InjectGrid(faults.SiteOutage, []string{"lyon"}, 0, 0)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	for site, w := range walkSites(t, fed, c) {
		want := 0
		if site == "lyon" {
			want = w.requests
		}
		if w.requests == 0 || w.unavailable != want {
			t.Fatalf("site %s with lyon lost: %d × 503 in %d requests, want %d",
				site, w.unavailable, w.requests, want)
		}
	}

	if _, err := fed.HealGrid(ev.ID); err != nil {
		t.Fatalf("heal: %v", err)
	}
	gw.Advance(simclock.Week)
	if fed.Summary().Degraded {
		t.Fatal("federation still degraded after heal")
	}
	for site, w := range walkSites(t, fed, c) {
		if w.requests == 0 || w.unavailable != 0 {
			t.Fatalf("site %s after heal: %d × 503 in %d requests, want none", site, w.unavailable, w.requests)
		}
	}
}

// TestChaosPartitionKeepsSitesServing: a WAN partition only cuts the merge
// plane — the isolated site's own routes keep answering while merged views
// exclude it as unreachable.
func TestChaosPartitionKeepsSitesServing(t *testing.T) {
	fed, gw := newChaosCampaign(t)
	c := inproc.Client(gw)

	if _, err := fed.InjectGrid("wan-partition", []string{"nantes"}, 0, 0); err != nil {
		t.Fatalf("inject: %v", err)
	}
	if resp, _ := get(t, c, "/sites/nantes/oar/resources"); resp.StatusCode != http.StatusOK {
		t.Fatalf("isolated site-scoped route status = %d, want 200", resp.StatusCode)
	}
	if resp, _ := get(t, c, "/oar/resources?site=nantes"); resp.StatusCode != http.StatusOK {
		t.Fatalf("isolated ?site= route status = %d, want 200", resp.StatusCode)
	}
	resp, body := get(t, c, "/oar/resources")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge status = %d", resp.StatusCode)
	}
	merged := decode[OARResourcesJSON](t, body)
	if merged.Degraded == nil || len(merged.Degraded.UnreachableSites) != 1 ||
		merged.Degraded.UnreachableSites[0] != "nantes" || len(merged.Degraded.DownSites) != 0 {
		t.Fatalf("partition marker = %+v", merged.Degraded)
	}
	want := 0
	for _, sh := range fed.Shards() {
		if sh.Site != "nantes" {
			want += sh.F.TB.TotalNodes()
		}
	}
	if len(merged.Nodes) != want {
		t.Fatalf("partitioned merge = %d nodes, want %d", len(merged.Nodes), want)
	}
	resp, body = get(t, c, "/sites")
	sites := decode[SitesJSON](t, body)
	for _, s := range sites.Sites {
		if s.Down {
			t.Fatalf("site %s flagged down during a partition", s.Name)
		}
		if s.Unreachable != (s.Name == "nantes") {
			t.Fatalf("site %s unreachable flag = %v", s.Name, s.Unreachable)
		}
	}
	// The isolated shard still advances with the grid (partitions do not
	// freeze clocks), and heal restores the merge.
	gw.Advance(simclock.Week)
	if got := coordinator(fed, "nantes").F.Clock.Now(); got != 2*simclock.Week {
		t.Fatalf("isolated site clock = %v, want %v", got, 2*simclock.Week)
	}
	if resp, _ := postJSON(t, c, "/chaos/heal", `{"all":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("heal-all status = %d", resp.StatusCode)
	}
	resp, body = get(t, c, "/oar/resources")
	if merged := decode[OARResourcesJSON](t, body); merged.Degraded != nil {
		t.Fatalf("marker survived heal: %+v", merged.Degraded)
	}
}
