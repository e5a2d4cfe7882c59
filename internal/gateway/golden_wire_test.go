package gateway

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/intel"
	"repro/internal/simclock"
)

// updateWireGolden re-records testdata/wire_golden.json from the code under
// test. The file is the wire contract: re-record it only in a change whose
// purpose is to alter a body, never beside a change to how bodies are made.
var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire_golden.json")

// wireRecord is what a client can observe of one request: the status, the
// validator, how long the answer may be cached, when to come back and the
// exact bytes (as their SHA-256). Path carries the fixture and grid state it
// was asked in as a prefix ("degraded:", "healed:", "ci:", "post:"); the
// healthy grid has none. A request that is not a bare GET reads "METHOD
// path body".
type wireRecord struct {
	Path         string `json:"path"`
	Status       int    `json:"status"`
	ETag         string `json:"etag,omitempty"`
	CacheControl string `json:"cache_control,omitempty"`
	RetryAfter   string `json:"retry_after,omitempty"`
	SHA256       string `json:"sha256,omitempty"`
}

// wireFixture is the fixed-seed static grid the golden bodies are served
// from: the two-site federation of newFederatedCampaign after two days,
// every store re-described once (so archives hold two versions and diffs
// are not empty), and a hand-built reliability trend installed.
func wireFixture(t *testing.T) (fed *federation.Federation, gw *Gateway, ciHandler http.Handler, ciJob string) {
	t.Helper()
	fed, gw = newFederatedCampaign(t, 2*simclock.Day)
	for _, sh := range fed.Shards() {
		n := sh.F.TB.Nodes()[0]
		inv := n.Inv.Clone()
		inv.RAMGB += 8
		if err := sh.F.Ref.Update(sh.F.Clock.Now(), n.Name, inv); err != nil {
			t.Fatal(err)
		}
	}
	gw.SetReliabilityTrend(&intel.Trend{
		Seeds: 3, BaseSeed: 42, Weeks: 2,
		Points: []intel.TrendPoint{
			{Week: 1, Rate: intel.Band{Mean: 85, Std: 2, Min: 83, Max: 87, N: 3}},
			{Week: 2, Rate: intel.Band{Mean: 90.5, Std: 1, Min: 89, Max: 91, N: 3}},
		},
		FirstWeek:  intel.Band{Mean: 85, Std: 2, Min: 83, Max: 87, N: 3},
		FinalWeeks: intel.Band{Mean: 90.5, Std: 1, Min: 89, Max: 91, N: 3},
		BugsFiled:  intel.Band{Mean: 12, Std: 3, Min: 9, Max: 15, N: 3},
	})
	server := fed.Shards()[0].F.CI
	return fed, gw, server.Handler(), server.JobNames()[0]
}

// wireNames picks what the request lists are written against: the first
// shard's first node with its cluster and site, and the last site (the one
// the degraded replay takes out) with its first cluster.
func wireNames(gw *Gateway) (site, cluster, node, otherSite, otherCluster string) {
	n := gw.shards[0].f.TB.Nodes()[0]
	otherSite = gw.sites[len(gw.sites)-1]
	otherCluster = gw.siteShards[otherSite][0].f.TB.Site(otherSite).Clusters[0].Name
	return n.Site, n.Cluster, n.Name, otherSite, otherCluster
}

// wirePaths lists one request per GET route of the endpoint table, plus
// the parameterised forms that take a different rendering path (archived
// versions, time travel, per-cluster stores, scoped CI), plus the error
// bodies a client meets first.
func wirePaths(gw *Gateway) []string {
	site, cluster, node, otherSite, _ := wireNames(gw)
	other := "/sites/" + otherSite
	scoped := "/sites/" + site
	return []string{
		"/",
		"/sites",
		"/oar/resources",
		"/oar/resources?cluster=" + cluster,
		"/oar/jobs",
		"/oar/jobs?limit=5",
		"/admit/queue",
		"/ref/inventory",
		"/ref/inventory?version=1",
		"/ref/diff",
		"/ref/diff?from=1&to=2",
		"/monitor/metrics?metric=power_w&node=" + node + "&from_sec=3600&to_sec=3630",
		"/monitor/metrics?metric=power_w&node=" + node + "&from_sec=NaN",
		"/bugs",
		"/bugs?state=open",
		"/bugs/rollup",
		"/grid/at?t=86400",
		"/grid/at?t=172800",
		"/grid/at",
		"/grid/diff?from=3600&to=172800",
		"/incidents",
		"/incidents?at=86400",
		"/reliability/trend",
		"/chaos",
		"/status/grid",
		"/status/trend",
		"/status/trend?bucket_sec=3600",
		"/ci/api/json",
		"/no/such/route",
		scoped + "/oar/resources",
		scoped + "/oar/jobs?limit=5",
		scoped + "/monitor/metrics?metric=power_w&node=" + node + "&from_sec=7200&to_sec=7230",
		scoped + "/ref/inventory",
		scoped + "/ref/inventory?cluster=" + cluster,
		scoped + "/ref/inventory?cluster=" + cluster + "&version=1",
		scoped + "/ref/inventory?cluster=" + cluster + "&at=3600",
		scoped + "/ref/inventory?version=1",
		scoped + "/ref/diff",
		scoped + "/ref/diff?cluster=" + cluster + "&from=1&to=2",
		scoped + "/ref/diff?cluster=" + cluster + "&from=1&to=1",
		scoped + "/ci/api/json",
		scoped + "/ci/job/refapi/" + cluster + "/api/json",
		"/sites/atlantis/oar/resources",
		other + "/ref/inventory",
		other + "/ref/diff",
		// Last, and by status only: its body carries wall-clock latencies.
		"/metrics",
	}
}

// wireRequest is one request of a replayed table: a bare GET of path, or a
// row of the POST table.
type wireRequest struct {
	method, path, body string
	label              string // what the record shows for body; "" = body itself
}

// wirePosts lists what a client can send the POST routes: submissions and
// probes by every anchor the router resolves (cluster, site, none — the
// admission layer's case — and, site-scoped, an anchor elsewhere), a grid
// event injected, submissions to the site it took out, the heal, and the
// bodies and methods refused before any handler runs. It runs after every
// GET table: the real submissions and the event change what the GETs would
// read.
func wirePosts(gw *Gateway) []wireRequest {
	site, cluster, _, otherSite, otherCluster := wireNames(gw)
	var out []wireRequest
	submit := func(path, request string) {
		out = append(out,
			wireRequest{method: http.MethodPost, path: path, body: `{"request":"` + request + `","dry_run":true}`},
			wireRequest{method: http.MethodPost, path: path, body: `{"request":"` + request + `","user":"golden"}`})
	}
	submit("/oar/submit", "cluster='"+cluster+"'/nodes=1,walltime=1")
	submit("/oar/submit", "site='"+site+"'/nodes=1,walltime=1")
	submit("/oar/submit", "nodes=1,walltime=1")
	submit("/sites/"+site+"/oar/submit", "nodes=1,walltime=1")
	submit("/sites/"+site+"/oar/submit", "cluster='"+otherCluster+"'/nodes=1,walltime=1")
	out = append(out, wireRequest{method: http.MethodPost, path: "/chaos/inject", body: `{"kind":"outage","sites":["` + otherSite + `"]}`})
	submit("/oar/submit", "site='"+otherSite+"'/nodes=1,walltime=1")
	submit("/oar/submit", "cluster='"+otherCluster+"'/nodes=1,walltime=1")
	return append(out,
		wireRequest{method: http.MethodPost, path: "/chaos/heal", body: `{"all":true}`},
		wireRequest{method: http.MethodPost, path: "/oar/submit", body: `{"request":"nodes=1,walltime=1","dryrun":true}`},
		wireRequest{method: http.MethodPost, path: "/oar/submit", label: "<70000 bytes>",
			body: `{"request":"nodes=1,walltime=1","user":"` + strings.Repeat("x", 70000) + `"}`},
		wireRequest{method: http.MethodGet, path: "/oar/submit"},
		wireRequest{method: http.MethodGet, path: "/chaos/inject"},
	)
}

func recordWire(t *testing.T, c *http.Client, wr wireRequest, hashBody bool) wireRecord {
	t.Helper()
	req, err := http.NewRequest(wr.method, "http://gw.local"+wr.path, strings.NewReader(wr.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", wr.method, wr.path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", wr.method, wr.path, err)
	}
	rec := wireRecord{Path: wr.path, Status: resp.StatusCode, ETag: resp.Header.Get("ETag"),
		CacheControl: resp.Header.Get("Cache-Control"), RetryAfter: resp.Header.Get("Retry-After")}
	if wr.method != http.MethodGet || wr.body != "" {
		shown := wr.label
		if shown == "" {
			shown = wr.body
		}
		rec.Path = strings.TrimSpace(wr.method + " " + wr.path + " " + shown)
	}
	if hashBody {
		sum := sha256.Sum256(body)
		rec.SHA256 = hex.EncodeToString(sum[:])
	}
	if rec.ETag != "" && rec.Status == http.StatusOK {
		// The validator a body went out under must answer for it.
		re := getConditional(t, c, wr.path, rec.ETag)
		if re.StatusCode != http.StatusNotModified || re.Header.Get("ETag") != rec.ETag ||
			re.Header.Get("Cache-Control") != rec.CacheControl {
			t.Errorf("GET %s If-None-Match %s = %d with ETag %s Cache-Control %q, want 304 echoing %q",
				wr.path, rec.ETag, re.StatusCode, re.Header.Get("ETag"), re.Header.Get("Cache-Control"), rec.CacheControl)
		}
	}
	return rec
}

// TestWireGolden pins what every route puts on the wire — status, ETag,
// Cache-Control, Retry-After and body bytes — for a fixed-seed static
// gateway (healthy, then with its last site lost to an outage, then
// healed), for one shard's CI REST handler, and last for what the gateway
// answers to POSTs. How bodies are rendered may change; these may not.
func TestWireGolden(t *testing.T) {
	fed, gw, ciHandler, ciJob := wireFixture(t)
	var got []wireRecord
	replay := func(h http.Handler, prefix string, reqs []wireRequest) {
		c := inproc.Client(h)
		for _, wr := range reqs {
			rec := recordWire(t, c, wr, wr.path != "/metrics")
			rec.Path = prefix + rec.Path
			got = append(got, rec)
		}
	}
	gets := func(paths []string) []wireRequest {
		out := make([]wireRequest, len(paths))
		for i, p := range paths {
			out[i] = wireRequest{method: http.MethodGet, path: p}
		}
		return out
	}
	paths := gets(wirePaths(gw))
	replay(gw, "", paths)
	ev, err := fed.InjectGrid(faults.SiteOutage, []string{gw.sites[len(gw.sites)-1]}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	replay(gw, "degraded:", paths)
	if _, err := fed.HealGrid(ev.ID); err != nil {
		t.Fatal(err)
	}
	replay(gw, "healed:", paths)
	replay(ciHandler, "ci:", gets([]string{"/api/json", "/job/" + ciJob + "/api/json", "/job/" + ciJob + "/1/api/json", "/job/nope/api/json"}))
	replay(gw, "post:", wirePosts(gw))

	file := filepath.Join("testdata", "wire_golden.json")
	if *updateWireGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false) // paths keep their "&"
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d routes in %s", len(got), file)
		return
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (record it with: go test ./internal/gateway -run TestWireGolden -update-wire-golden)", err)
	}
	var want []wireRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d routes requested, %d recorded in %s", len(got), len(want), file)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("wire contract moved:\n got %+v\nwant %+v", got[i], want[i])
		}
	}
}
