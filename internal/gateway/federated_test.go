package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// fedSpec narrows the default spec to the named sites.
func fedSpec(sites ...string) []testbed.ClusterSpec {
	want := map[string]bool{}
	for _, s := range sites {
		want[s] = true
	}
	var out []testbed.ClusterSpec
	for _, cs := range testbed.DefaultSpec {
		if want[cs.Site] {
			out = append(out, cs)
		}
	}
	return out
}

// siteShards returns a site's micro-shards in cluster order.
func siteShards(fed *federation.Federation, site string) []*federation.Shard {
	var out []*federation.Shard
	for _, sh := range fed.Shards() {
		if sh.Site == site {
			out = append(out, sh)
		}
	}
	return out
}

// coordinator returns a site's first micro-shard: its first cluster.
func coordinator(fed *federation.Federation, site string) *federation.Shard {
	return siteShards(fed, site)[0]
}

// newFederatedCampaign builds a two-site federation, runs it for d and
// fronts it with a gateway.
func newFederatedCampaign(t testing.TB, d simclock.Time) (*federation.Federation, *Gateway) {
	t.Helper()
	fed := federation.New(federation.Config{
		Seed: 5,
		Spec: fedSpec("luxembourg", "nantes"),
		Configure: func(site string, seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 4
			cfg.EnvMatrixPeriod = 0
			return cfg
		},
	})
	fed.Start()
	fed.Advance(d)
	return fed, ForFederation(fed)
}

func TestFederatedSitesAndResources(t *testing.T) {
	fed, gw := newFederatedCampaign(t, 2*simclock.Day)
	c := inproc.Client(gw)

	resp, body := get(t, c, "/sites")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sites status = %d", resp.StatusCode)
	}
	sites := decode[SitesJSON](t, body)
	if sites.Shards != len(fed.Shards()) || len(sites.Sites) != 2 {
		t.Fatalf("/sites = %d shards, %d sites; want %d, 2", sites.Shards, len(sites.Sites), len(fed.Shards()))
	}
	if sites.Sites[0].Name != "luxembourg" || sites.Sites[1].Name != "nantes" {
		t.Fatalf("site order = %s, %s", sites.Sites[0].Name, sites.Sites[1].Name)
	}
	wantNodes := map[string]int{}
	total := 0
	for _, sh := range fed.Shards() {
		wantNodes[sh.Site] += sh.F.TB.TotalNodes()
		total += sh.F.TB.TotalNodes()
	}
	for _, s := range sites.Sites {
		if s.Nodes != wantNodes[s.Name] {
			t.Fatalf("site %s lists %d nodes, want %d", s.Name, s.Nodes, wantNodes[s.Name])
		}
	}

	// The federated listing merges every shard.
	resp, body = get(t, c, "/oar/resources")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merged resources status = %d", resp.StatusCode)
	}
	merged := decode[OARResourcesJSON](t, body)
	if len(merged.Nodes) != total {
		t.Fatalf("merged resources = %d nodes, want %d", len(merged.Nodes), total)
	}

	// ?site= narrows to one shard; unknown sites are 400 (the satellite
	// contract), as are unknown sites on the path form.
	resp, body = get(t, c, "/oar/resources?site=nantes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?site=nantes status = %d", resp.StatusCode)
	}
	if got := decode[OARResourcesJSON](t, body); len(got.Nodes) != wantNodes["nantes"] {
		t.Fatalf("?site=nantes = %d nodes, want %d", len(got.Nodes), wantNodes["nantes"])
	}
	if resp, _ := get(t, c, "/oar/resources?site=atlantis"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown ?site= status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, c, "/sites/atlantis/oar/resources"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path site status = %d, want 404", resp.StatusCode)
	}

	// The site-scoped route answers the same subset.
	resp, body = get(t, c, "/sites/nantes/oar/resources")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("site route status = %d", resp.StatusCode)
	}
	if got := decode[OARResourcesJSON](t, body); len(got.Nodes) != wantNodes["nantes"] {
		t.Fatalf("site route = %d nodes, want %d", len(got.Nodes), wantNodes["nantes"])
	}

	// Cluster filters route to the owning shard, and compose with ?site=.
	resp, body = get(t, c, "/oar/resources?cluster=granduc")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster filter status = %d", resp.StatusCode)
	}
	if got := decode[OARResourcesJSON](t, body); len(got.Nodes) != 22 {
		t.Fatalf("granduc = %d nodes, want 22", len(got.Nodes))
	}
	if resp, _ := get(t, c, "/oar/resources?site=nantes&cluster=granduc"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-site cluster status = %d, want 404", resp.StatusCode)
	}

	// Merged jobs are globally newest-first and capped by limit.
	resp, body = get(t, c, "/oar/jobs?limit=30")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merged jobs status = %d", resp.StatusCode)
	}
	jobs := decode[OARJobsJSON](t, body)
	if jobs.Submitted == 0 || len(jobs.Jobs) == 0 || len(jobs.Jobs) > 30 {
		t.Fatalf("merged jobs = %d listed of %d submitted", len(jobs.Jobs), jobs.Submitted)
	}
	for i := 1; i < len(jobs.Jobs); i++ {
		if jobs.Jobs[i].SubmittedAtSec > jobs.Jobs[i-1].SubmittedAtSec {
			t.Fatalf("merged jobs not newest-first at %d", i)
		}
	}
	wantSubmitted := 0
	for _, sh := range fed.Shards() {
		sub, _, _ := sh.F.OAR.Stats()
		wantSubmitted += sub
	}
	if jobs.Submitted != wantSubmitted {
		t.Fatalf("merged submitted = %d, want %d", jobs.Submitted, wantSubmitted)
	}
}

func TestFederatedSubmitRouting(t *testing.T) {
	_, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := c.Post("http://gw.local"+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	// A cluster anchor routes to the owning shard.
	resp, body := post("/oar/submit", `{"request":"cluster='ecotype'/nodes=2,walltime=1","user":"alice"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	sub := decode[SubmitResponse](t, body)
	if sub.Site != "nantes" || sub.Job == nil || sub.Job.State != "Running" {
		t.Fatalf("submitted job = %+v (site %q)", sub.Job, sub.Site)
	}

	// A site anchor works too (dry run).
	resp, body = post("/oar/submit", `{"request":"site='luxembourg'/nodes=1,walltime=1","dry_run":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry run status = %d: %s", resp.StatusCode, body)
	}
	dry := decode[SubmitResponse](t, body)
	if dry.Site != "luxembourg" || dry.CanStartNow == nil || !*dry.CanStartNow {
		t.Fatalf("dry run = %+v (site %q)", dry, dry.Site)
	}

	// Unanchored requests route through the grid admission layer: with free
	// capacity everywhere they place on the least-loaded live site.
	resp, body = post("/oar/submit", `{"request":"nodes=2,walltime=1"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("unanchored submit status = %d, want 201: %s", resp.StatusCode, body)
	}
	adm := decode[SubmitResponse](t, body)
	if adm.Admission != "placed" || adm.Site == "" || adm.Job == nil {
		t.Fatalf("unanchored submit = %+v", adm)
	}

	// Cross-site requests are client errors.
	if resp, _ := post("/oar/submit", `{"request":"site='luxembourg'/nodes=1+site='nantes'/nodes=1,walltime=1"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-site submit status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := post("/oar/submit", `{"request":"cluster='graphene'/nodes=1,walltime=1"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-cluster submit status = %d, want 400", resp.StatusCode)
	}

	// The site-scoped route pins unanchored requests to the site instead
	// of requiring anchors...
	resp, body = post("/sites/nantes/oar/submit", `{"request":"nodes=1,walltime=1","user":"bob"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("site-scoped submit status = %d: %s", resp.StatusCode, body)
	}
	sub = decode[SubmitResponse](t, body)
	if sub.Site != "nantes" || sub.Job == nil {
		t.Fatalf("site-scoped submit = %+v", sub)
	}
	if !strings.Contains(sub.Job.Request, "site='nantes'") {
		t.Fatalf("site-scoped submit not pinned: %q", sub.Job.Request)
	}
	// ...but rejects requests anchored outside the site.
	if resp, _ := post("/sites/nantes/oar/submit", `{"request":"cluster='granduc'/nodes=1,walltime=1"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-site site-scoped submit status = %d, want 400", resp.StatusCode)
	}
}

func TestFederatedMonitorAndBugs(t *testing.T) {
	fed, gw := newFederatedCampaign(t, 2*simclock.Day)
	c := inproc.Client(gw)

	nodeLux := coordinator(fed, "luxembourg").F.TB.Nodes()[0].Name
	nodeNan := coordinator(fed, "nantes").F.TB.Nodes()[0].Name

	// Nodes resolve across shards without naming the site.
	for _, node := range []string{nodeLux, nodeNan} {
		resp, body := get(t, c, "/monitor/metrics?metric=cpu_load&node="+node+"&from_sec=0&to_sec=30")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("monitor %s status = %d: %s", node, resp.StatusCode, body)
		}
		if m := decode[MonitorJSON](t, body); len(m.Samples) != 31 {
			t.Fatalf("monitor %s = %d samples, want 31", node, len(m.Samples))
		}
	}
	// ?site= must agree with the node's home, and must name a known site.
	resp, _ := get(t, c, "/monitor/metrics?node="+nodeLux+"&site=nantes&from_sec=0&to_sec=10")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("site-mismatch monitor status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, c, "/monitor/metrics?node="+nodeLux+"&site=atlantis"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown ?site= monitor status = %d, want 400", resp.StatusCode)
	}
	resp, body := get(t, c, "/sites/luxembourg/monitor/metrics?metric=cpu_load&node="+nodeLux+"&from_sec=0&to_sec=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("site-scoped monitor status = %d: %s", resp.StatusCode, body)
	}
	if m := decode[MonitorJSON](t, body); m.Site != "luxembourg" {
		t.Fatalf("site-scoped monitor site = %q", m.Site)
	}

	// Bugs merge across shard trackers, tagged with their site.
	wantFiled := 0
	for _, sh := range fed.Shards() {
		wantFiled += sh.F.Bugs.Stats().Filed
	}
	resp, body = get(t, c, "/bugs?state=all")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bugs status = %d", resp.StatusCode)
	}
	bl := decode[BugsJSON](t, body)
	if bl.Filed != wantFiled || len(bl.Bugs) != wantFiled {
		t.Fatalf("merged bugs = %d listed, %d filed, want %d", len(bl.Bugs), bl.Filed, wantFiled)
	}
	for _, b := range bl.Bugs {
		if b.Site != "luxembourg" && b.Site != "nantes" {
			t.Fatalf("bug %d carries site %q", b.ID, b.Site)
		}
	}
}

func TestFederatedStatusAndRef(t *testing.T) {
	fed, gw := newFederatedCampaign(t, 2*simclock.Day)
	c := inproc.Client(gw)

	resp, body := get(t, c, "/status/grid")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid status = %d", resp.StatusCode)
	}
	grid := decode[GridJSON](t, body)
	hasTarget := func(name string) bool {
		for _, tgt := range grid.Targets {
			if tgt == name {
				return true
			}
		}
		return false
	}
	if !hasTarget("granduc") || !hasTarget("ecotype") {
		t.Fatalf("merged grid misses cross-site targets: %v", grid.Targets)
	}

	resp, body = get(t, c, "/status/trend")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trend status = %d", resp.StatusCode)
	}
	if tr := decode[TrendJSON](t, body); len(tr.Points) == 0 {
		t.Fatal("merged trend is empty")
	}

	// Federated inventory: per-site sections, joined ETag, working 304.
	resp, body = get(t, c, "/ref/inventory")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("federated inventory status = %d", resp.StatusCode)
	}
	inv := decode[FederatedInventoryJSON](t, body)
	if len(inv.Sites) != 2 || inv.Sites[0].Site != "luxembourg" || inv.Sites[1].Site != "nantes" {
		t.Fatalf("federated inventory sites = %+v", inv.Sites)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("federated inventory has no ETag")
	}
	req, _ := http.NewRequest(http.MethodGet, "http://gw.local/ref/inventory", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional federated inventory status = %d, want 304", resp2.StatusCode)
	}
	// An update on one shard moves the joined ETag.
	sh := coordinator(fed, "nantes")
	n := sh.F.TB.Nodes()[0]
	invClone := n.Inv.Clone()
	invClone.RAMGB += 8
	if err := sh.F.Ref.Update(sh.F.Clock.Now(), n.Name, invClone); err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodGet, "http://gw.local/ref/inventory", nil)
	req.Header.Set("If-None-Match", etag)
	resp3, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body) //nolint:errcheck
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-update conditional status = %d, want 200", resp3.StatusCode)
	}

	// Archived versions are per cluster store: the federated path rejects
	// ?version= and points at the site route, which needs ?cluster= on a
	// micro-sharded site and then serves it.
	if resp, _ := get(t, c, "/ref/inventory?version=1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("federated ?version= status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, c, "/sites/nantes/ref/inventory?version=1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("site ?version= without ?cluster= status = %d, want 400", resp.StatusCode)
	}
	resp, body = get(t, c, "/sites/nantes/ref/inventory?version=1&cluster=econome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("site-scoped archived inventory status = %d", resp.StatusCode)
	}
	if v := decode[struct {
		Version int `json:"version"`
	}](t, body); v.Version != 1 {
		t.Fatalf("archived version = %d, want 1", v.Version)
	}

	// Federated diff: per-site sections and a working conditional path.
	resp, body = get(t, c, "/ref/diff")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("federated diff status = %d", resp.StatusCode)
	}
	diff := decode[FederatedDiffJSON](t, body)
	if len(diff.Sites) != 2 {
		t.Fatalf("federated diff sites = %d", len(diff.Sites))
	}
	if diff.Sites[1].Count == 0 {
		t.Fatal("nantes diff misses the update just archived")
	}
	if resp, _ := get(t, c, "/ref/diff?from=1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("federated diff ?from= status = %d, want 400", resp.StatusCode)
	}
	resp, _ = get(t, c, "/sites/nantes/ref/diff?from=1&to=2&cluster=econome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("site-scoped diff status = %d", resp.StatusCode)
	}

	// The unscoped CI proxy is ambiguous on a federation; the site trees
	// serve it.
	if resp, _ := get(t, c, "/ci/api/json"); resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("federated /ci/ status = %d, want 421", resp.StatusCode)
	}
	resp, body = get(t, c, "/sites/luxembourg/ci/api/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("site-scoped ci status = %d", resp.StatusCode)
	}
	ciRoot := decode[struct {
		Jobs []struct {
			Name string `json:"name"`
		} `json:"jobs"`
	}](t, body)
	if len(ciRoot.Jobs) == 0 {
		t.Fatal("site-scoped ci lists no jobs")
	}
}

// TestSiteReadsUnblockedByOtherShardAdvance pins the lock-scoping claim
// deterministically: while a whole-grid Advance is mid-step on site B's
// coordinator shard — stalled there by an event on that shard's own
// simulated clock, so B's write lock is held — a site-A read completes, and
// a site-B read can not: it is released exactly when the step finishes.
func TestSiteReadsUnblockedByOtherShardAdvance(t *testing.T) {
	fed := federation.New(federation.Config{
		Seed:    9,
		Spec:    fedSpec("luxembourg", "nantes"),
		Workers: 1,
		Configure: func(site string, seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 0
			cfg.EnvMatrixPeriod = 0
			return cfg
		},
	})
	fed.Start()
	fed.Advance(simclock.Hour)
	gw := ForFederation(fed)
	c := inproc.Client(gw)

	a, b := coordinator(fed, "luxembourg"), coordinator(fed, "nantes")
	started := make(chan struct{})
	release := make(chan struct{})
	b.F.Clock.After(30*simclock.Minute, func() {
		close(started)
		<-release // hold B's write lock until the test releases it
	})

	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		gw.Advance(simclock.Hour)
	}()
	<-started // B's shard gate is now write-held, mid-step

	// A site-A read completes while B is mid-advance.
	readDone := make(chan int, 1)
	go func() {
		resp, err := c.Get(fmt.Sprintf("http://gw.local/sites/%s/oar/resources", a.Site))
		if err != nil {
			t.Errorf("site-A read: %v", err)
			readDone <- 0
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		readDone <- resp.StatusCode
	}()
	select {
	case code := <-readDone:
		if code != http.StatusOK {
			t.Fatalf("site-A read during site-B advance = %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("site-A read blocked behind site-B's advance")
	}

	// A site-B read must wait for the step; it completes only after
	// release.
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		resp, err := c.Get(fmt.Sprintf("http://gw.local/sites/%s/oar/jobs", b.Site))
		if err != nil {
			t.Errorf("site-B read: %v", err)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}()
	select {
	case <-bDone:
		t.Fatal("site-B read completed while its shard's write lock was held")
	case <-time.After(50 * time.Millisecond):
		// Still blocked, as it must be.
	}
	close(release)
	<-advDone
	<-bDone
	for _, sh := range fed.Shards() {
		if got := sh.F.Clock.Now(); got != 2*simclock.Hour {
			t.Fatalf("%s/%s clock = %v after the advance, want 2h", sh.Site, sh.Cluster, got)
		}
	}
}

// TestOneClusterFederationServesFederatedShapes: how many clusters a
// federation (or a site) has never changes a wire shape. A federation over
// a single cluster answers as every federation does — the sectioned
// /ref/inventory that refuses ?version=, no unscoped /ci/, the site on bugs
// and submit replies, shards in /metrics, submissions resolved by anchor
// (an unanchored one through admission) — and its one-cluster site serves
// the joined /sites/{site}/ref envelope, archives behind ?cluster= only.
func TestOneClusterFederationServesFederatedShapes(t *testing.T) {
	fed := federation.New(federation.Config{Seed: 5, Spec: fedSpec("luxembourg")[:1]})
	fed.Start()
	fed.Advance(simclock.Hour)
	sh := fed.Shards()[0]
	sh.F.Bugs.File("net/switch-flap", "switch flapping", "net", "sw-1")
	gw := ForFederation(fed)
	c := inproc.Client(gw)

	scoped := "/sites/" + sh.Site + "/ref/inventory"
	resp, body := get(t, c, scoped)
	joined := decode[SiteInventoryJSON](t, body)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("ETag"), `"sv`) || joined.Site != sh.Site ||
		len(joined.Clusters) != 1 || joined.Clusters[0].Cluster != sh.Cluster || joined.Clusters[0].Inventory == nil {
		t.Fatalf("%s = %d under %s: %+v; want the joined envelope with its %s store", scoped, resp.StatusCode, resp.Header.Get("ETag"), joined, sh.Cluster)
	}
	if resp, body := get(t, c, scoped+"?version=1"); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), sh.Cluster) {
		t.Errorf("%s?version=1 = %d %s, want a 400 naming cluster %s", scoped, resp.StatusCode, body, sh.Cluster)
	}
	if resp, _ := get(t, c, scoped+"?version=1&cluster="+sh.Cluster); resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"v1"` {
		t.Errorf("%s?version=1&cluster=%s = %d under %s, want the store's v1", scoped, sh.Cluster, resp.StatusCode, resp.Header.Get("ETag"))
	}
	resp, body = get(t, c, "/sites/"+sh.Site+"/ref/diff")
	if d := decode[SiteDiffJSON](t, body); resp.StatusCode != http.StatusOK || d.Site != sh.Site || len(d.Clusters) != 1 {
		t.Errorf("site diff = %d %+v, want the joined envelope", resp.StatusCode, d)
	}

	resp, body = get(t, c, "/ref/inventory")
	inv := decode[FederatedInventoryJSON](t, body)
	if resp.StatusCode != http.StatusOK || len(inv.Sites) != 1 || inv.Sites[0].Site != sh.Site ||
		len(inv.Sites[0].Clusters) != 1 || inv.Sites[0].Clusters[0].Cluster != sh.Cluster {
		t.Fatalf("/ref/inventory = %d, sections %+v; want one %s section with its %s store", resp.StatusCode, inv.Sites, sh.Site, sh.Cluster)
	}
	if resp, _ := get(t, c, "/ref/inventory?version=1"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/ref/inventory?version=1 = %d, want 400: archived versions are per store on a federation", resp.StatusCode)
	}
	if resp, _ := get(t, c, "/ci/api/json"); resp.StatusCode != http.StatusMisdirectedRequest {
		t.Errorf("unscoped /ci/api/json = %d, want 421", resp.StatusCode)
	}
	_, body = get(t, c, "/bugs?state=all")
	if bugs := decode[BugsJSON](t, body).Bugs; len(bugs) == 0 || bugs[0].Site != sh.Site {
		t.Errorf("/bugs = %+v, want tickets carrying site %s", bugs, sh.Site)
	}
	if got := gw.Metrics().Shards; got != 1 {
		t.Errorf("/metrics shards = %d, want 1", got)
	}
	resp, body = postJSON(t, c, "/oar/submit", `{"request":"cluster='`+sh.Cluster+`'/nodes=1,walltime=1","dry_run":true}`)
	if got := decode[SubmitResponse](t, body); resp.StatusCode != http.StatusOK || got.Site != sh.Site {
		t.Errorf("anchored dry run = %d at site %q, want 200 at %s", resp.StatusCode, got.Site, sh.Site)
	}
	_, body = postJSON(t, c, "/oar/submit", `{"request":"nodes=1,walltime=1"}`)
	if got := decode[SubmitResponse](t, body); got.Admission == "" {
		t.Errorf("unanchored submission answered %s, want the admission layer's verdict", body)
	}
	if resp, body := postJSON(t, c, "/oar/submit", `{"request":"cluster='graphene'/nodes=1,walltime=1"}`); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "unknown cluster") {
		t.Errorf("a foreign anchor = %d %s, want the router's 400", resp.StatusCode, body)
	}
}

// parkedOnGate reports whether some goroutine is waiting for a shard's read
// gate.
func parkedOnGate() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "sync.(*RWMutex).RLock")
}

// goneClientWriter counts what reaches a client that has hung up.
type goneClientWriter struct {
	header http.Header
	writes int
}

func (w *goneClientWriter) Header() http.Header         { return w.header }
func (w *goneClientWriter) WriteHeader(int)             { w.writes++ }
func (w *goneClientWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }

// TestClientDisconnectMidScatterLeaksNothing: a client that hangs up while
// its merged read waits on a shard mid-step costs nothing once the step
// ends — the handler returns, no goroutine outlives it, and nothing is
// written to the connection that is gone.
func TestClientDisconnectMidScatterLeaksNothing(t *testing.T) {
	_, gw := newFederatedCampaign(t, simclock.Day)
	held := gw.shards[len(gw.shards)-1] // the scatter has gathered every other shard when it parks here
	for _, path := range []string{"/oar/resources", "/status/grid"} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		w := &goneClientWriter{header: http.Header{}}
		served := make(chan struct{})
		held.sim.Lock()
		go func() {
			defer close(served)
			gw.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		}()
		deadline := time.Now().Add(10 * time.Second)
		for !parkedOnGate() {
			if time.Now().After(deadline) {
				t.Fatalf("GET %s never waited on the write-held shard", path)
			}
			runtime.Gosched()
		}
		cancel()
		held.sim.Unlock()
		<-served
		if w.writes != 0 {
			t.Errorf("GET %s: %d writes to a client that hung up before the scatter finished", path, w.writes)
		}
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("GET %s: %d goroutines, %d before the request", path, runtime.NumGoroutine(), baseline)
			}
			runtime.Gosched()
		}
	}
	if resp, _ := get(t, inproc.Client(gw), "/oar/resources"); resp.StatusCode != http.StatusOK {
		t.Fatalf("the next read = %d", resp.StatusCode)
	}
}
