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

	"repro/internal/inproc"
	"repro/internal/intel"
	"repro/internal/simclock"
)

// updateWireGolden re-records testdata/wire_golden.json from the code under
// test. The file is the wire contract: re-record it only in a change whose
// purpose is to alter a body, never beside a change to how bodies are made.
var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire_golden.json")

// wireRecord is what a client can observe of one GET: the status, the
// validator and the exact bytes (as their SHA-256).
type wireRecord struct {
	Path   string `json:"path"`
	Status int    `json:"status"`
	ETag   string `json:"etag,omitempty"`
	SHA256 string `json:"sha256,omitempty"`
}

// wireFixture is the fixed-seed static grid the golden bodies are served
// from: the two-site federation of newFederatedCampaign after two days,
// every store re-described once (so archives hold two versions and diffs
// are not empty), and a hand-built reliability trend installed.
func wireFixture(t *testing.T) (gw *Gateway, ciHandler http.Handler, ciJob string) {
	t.Helper()
	fed, gw := newFederatedCampaign(t, 2*simclock.Day)
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
	return gw, server.Handler(), server.JobNames()[0]
}

// wirePaths lists one request per GET route of the endpoint table, plus
// the parameterised forms that take a different rendering path (archived
// versions, time travel, per-cluster stores, scoped CI), plus the error
// bodies a client meets first.
func wirePaths(gw *Gateway) []string {
	site := gw.shards[0].site
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
		// Last, and by status only: its body carries wall-clock latencies.
		"/metrics",
	}
}

func recordWire(t *testing.T, c *http.Client, path string, hashBody bool) wireRecord {
	t.Helper()
	resp, body := get(t, c, path)
	rec := wireRecord{Path: path, Status: resp.StatusCode, ETag: resp.Header.Get("ETag")}
	if hashBody {
		sum := sha256.Sum256(body)
		rec.SHA256 = hex.EncodeToString(sum[:])
	}
	if rec.ETag != "" && rec.Status == http.StatusOK {
		// The validator a body went out under must answer for it.
		re := getConditional(t, c, path, rec.ETag)
		if re.StatusCode != http.StatusNotModified || re.Header.Get("ETag") != rec.ETag {
			t.Errorf("GET %s If-None-Match %s = %d with ETag %s, want 304 echoing it",
				path, rec.ETag, re.StatusCode, re.Header.Get("ETag"))
		}
	}
	return rec
}

// TestWireGolden pins what every GET route puts on the wire — status, ETag
// and body bytes — for a fixed-seed federated static gateway and for one
// shard's CI REST handler. How bodies are rendered may change; these may
// not.
func TestWireGolden(t *testing.T) {
	gw, ciHandler, ciJob := wireFixture(t)
	var got []wireRecord
	c := inproc.Client(gw)
	for _, p := range wirePaths(gw) {
		got = append(got, recordWire(t, c, p, p != "/metrics"))
	}
	cc := inproc.Client(ciHandler)
	for _, p := range []string{"/api/json", "/job/" + ciJob + "/api/json", "/job/" + ciJob + "/1/api/json", "/job/nope/api/json"} {
		rec := recordWire(t, cc, p, true)
		rec.Path = "ci:" + p
		got = append(got, rec)
	}

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
