package gateway

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
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

// wireRecord is what a client can observe of one GET: the status, the
// validator, how long the answer may be cached and the exact bytes (as
// their SHA-256). Path carries the fixture and grid state it was asked in
// as a prefix ("degraded:", "healed:", "mono:", "ci:"); the healthy
// federated grid has none.
type wireRecord struct {
	Path         string `json:"path"`
	Status       int    `json:"status"`
	ETag         string `json:"etag,omitempty"`
	CacheControl string `json:"cache_control,omitempty"`
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

// monoWireFixture is the monolithic layout (ForFramework) of the same
// contract: a one-day seed-31 campaign whose store is re-described once.
// Only its conditional routes are recorded — the single-store forms the
// federated fixture reaches through ?cluster= answer here on the bare paths.
func monoWireFixture(t *testing.T) (*Gateway, []string) {
	t.Helper()
	f, gw := newCampaign(t, 31, 4, simclock.Day)
	n := f.TB.Nodes()[0]
	inv := n.Inv.Clone()
	inv.RAMGB += 8
	if err := f.Ref.Update(f.Clock.Now(), n.Name, inv); err != nil {
		t.Fatal(err)
	}
	return gw, []string{
		"/ref/inventory",
		"/ref/inventory?version=1",
		"/ref/inventory?at=3600",
		"/ref/diff",
		"/ref/diff?from=1&to=2",
		"/ref/diff?from=1&to=1",
		"/bugs/rollup",
		"/incidents",
	}
}

// wirePaths lists one request per GET route of the endpoint table, plus
// the parameterised forms that take a different rendering path (archived
// versions, time travel, per-cluster stores, scoped CI), plus the error
// bodies a client meets first.
func wirePaths(gw *Gateway) []string {
	site := gw.shards[0].site
	other := "/sites/" + gw.sites[len(gw.sites)-1] // the site the degraded replay takes out
	cluster := gw.shards[0].cluster
	node := gw.shards[0].cfg.TB.Nodes()[0].Name
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
		scoped + "/ci/api/json",
		scoped + "/ci/job/refapi/" + cluster + "/api/json",
		"/sites/atlantis/oar/resources",
		other + "/ref/inventory",
		other + "/ref/diff",
		// Last, and by status only: its body carries wall-clock latencies.
		"/metrics",
	}
}

func recordWire(t *testing.T, c *http.Client, path string, hashBody bool) wireRecord {
	t.Helper()
	resp, body := get(t, c, path)
	rec := wireRecord{Path: path, Status: resp.StatusCode, ETag: resp.Header.Get("ETag"),
		CacheControl: resp.Header.Get("Cache-Control")}
	if hashBody {
		sum := sha256.Sum256(body)
		rec.SHA256 = hex.EncodeToString(sum[:])
	}
	if rec.ETag != "" && rec.Status == http.StatusOK {
		// The validator a body went out under must answer for it.
		re := getConditional(t, c, path, rec.ETag)
		if re.StatusCode != http.StatusNotModified || re.Header.Get("ETag") != rec.ETag ||
			re.Header.Get("Cache-Control") != rec.CacheControl {
			t.Errorf("GET %s If-None-Match %s = %d with ETag %s Cache-Control %q, want 304 echoing %q",
				path, rec.ETag, re.StatusCode, re.Header.Get("ETag"), re.Header.Get("Cache-Control"), rec.CacheControl)
		}
	}
	return rec
}

// TestWireGolden pins what every GET route puts on the wire — status, ETag,
// Cache-Control and body bytes — for a fixed-seed federated static gateway
// (healthy, then with its last site lost to an outage, then healed), for a
// monolithic one, and for one shard's CI REST handler. How bodies are
// rendered may change; these may not.
func TestWireGolden(t *testing.T) {
	fed, gw, ciHandler, ciJob := wireFixture(t)
	var got []wireRecord
	replay := func(h http.Handler, prefix string, paths []string) {
		c := inproc.Client(h)
		for _, p := range paths {
			rec := recordWire(t, c, p, p != "/metrics")
			rec.Path = prefix + p
			got = append(got, rec)
		}
	}
	paths := wirePaths(gw)
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
	mono, monoPaths := monoWireFixture(t)
	replay(mono, "mono:", monoPaths)
	replay(ciHandler, "ci:", []string{"/api/json", "/job/" + ciJob + "/api/json", "/job/" + ciJob + "/1/api/json", "/job/nope/api/json"})

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
