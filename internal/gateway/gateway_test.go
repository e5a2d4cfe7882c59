package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ci"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/oar"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// storePath is the single-store form of a /sites/{site}/ref route: the
// shard's own archive, addressed through ?cluster=.
func storePath(sh *federation.Shard, route string) string {
	return "/sites/" + sh.Site + "/ref/" + route + "?cluster=" + sh.Cluster
}

func get(t *testing.T, c *http.Client, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := c.Get("http://gw.local" + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp, body
}

func decode[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	return v
}

// TestEndpoints walks the read routes once (the merged lists, the status
// views and the scoped CI tree have their own tests in federated_test.go)
// and checks that /metrics counted the walk.
func TestEndpoints(t *testing.T) {
	fed, gw := newFederatedCampaign(t, 2*simclock.Day)
	c := inproc.Client(gw)

	resp, body := get(t, c, "/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status = %d", resp.StatusCode)
	}
	idx := decode[struct {
		Endpoints []string `json:"endpoints"`
	}](t, body)
	if len(idx.Endpoints) < 10 {
		t.Fatalf("index lists %d endpoints", len(idx.Endpoints))
	}

	resp, body = get(t, c, "/oar/resources")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resources status = %d", resp.StatusCode)
	}
	res := decode[OARResourcesJSON](t, body)
	total := 0
	for _, n := range res.Summary {
		total += n
	}
	if total == 0 || total != len(res.Nodes) {
		t.Fatalf("summary counts %d, nodes %d", total, len(res.Nodes))
	}

	resp, body = get(t, c, "/oar/resources?cluster="+fed.Shards()[0].Cluster)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster resources status = %d", resp.StatusCode)
	}
	clRes := decode[OARResourcesJSON](t, body)
	if len(clRes.Nodes) == 0 || len(clRes.Nodes) >= len(res.Nodes) {
		t.Fatalf("cluster filter returned %d nodes", len(clRes.Nodes))
	}
	if resp, _ := get(t, c, "/oar/resources?cluster=nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cluster status = %d", resp.StatusCode)
	}

	if resp, _ := get(t, c, "/bugs?state=weird"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad bug state status = %d", resp.StatusCode)
	}
	for _, path := range []string{"/oar/jobs?limit=10", "/bugs?state=all", "/status/grid", "/status/trend", "/chaos", "/admit/queue"} {
		if resp, _ := get(t, c, path); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status = %d", path, resp.StatusCode)
		}
	}

	// Metrics reflect everything above.
	resp, body = get(t, c, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	m := decode[MetricsReport](t, body)
	if m.Endpoints["/oar/resources"].Requests != 3 {
		t.Fatalf("resources counter = %d, want 3", m.Endpoints["/oar/resources"].Requests)
	}
	if m.Endpoints["/bugs"].Errors != 1 {
		t.Fatalf("bugs error counter = %d, want 1", m.Endpoints["/bugs"].Errors)
	}
	if m.Requests == 0 || m.SimNowSec == 0 || m.Shards != len(fed.Shards()) || m.Admission == nil {
		t.Fatalf("metrics totals off: %+v", m)
	}
}

// TestMethodAndPathErrors pins how a request is routed before any handler
// reads a shard: a missing resource is 404 regardless of method, a wrong
// method 405 with Allow, and on a /sites/{site}/... route the method is
// checked before the site. Each site route counts under its own pattern.
func TestMethodAndPathErrors(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	serve := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		return rec
	}
	for _, tc := range []struct {
		method, path string
		code         int
		header       string // "Name: value" the answer must carry
	}{
		{"POST", "/ref/inventory", http.StatusMethodNotAllowed, "Allow: GET"},
		{"GET", "/oar/submit", http.StatusMethodNotAllowed, "Allow: POST"},
		{"GET", "/no/such/endpoint", http.StatusNotFound, ""},
		{"POST", "/no/such/endpoint", http.StatusNotFound, ""},
		{"GET", "/sites/luxembourg/ci", http.StatusMovedPermanently, "Location: /sites/luxembourg/ci/"},
		{"GET", "/sites/luxembourg/ci/api/json", http.StatusOK, ""},
		{"GET", "/sites/atlantis/oar/jobs", http.StatusNotFound, ""},
		{"GET", "/sites/atlantis/ci/api/json", http.StatusNotFound, ""},
		{"POST", "/sites/luxembourg/oar/jobs", http.StatusMethodNotAllowed, "Allow: GET"},
		{"GET", "/sites/luxembourg/oar/submit", http.StatusMethodNotAllowed, "Allow: POST"},
		{"POST", "/sites/atlantis/ref/diff", http.StatusMethodNotAllowed, "Allow: GET"},
		{"GET", "/sites/luxembourg/nope", http.StatusNotFound, ""},
		{"GET", "/sites/luxembourg", http.StatusNotFound, ""},
		{"GET", "/sites/", http.StatusNotFound, ""},
	} {
		rec := serve(tc.method, tc.path)
		name, value, _ := strings.Cut(tc.header, ": ")
		if rec.Code != tc.code || rec.Header().Get(name) != value {
			t.Errorf("%s %s = %d with %s %q, want %d %q", tc.method, tc.path, rec.Code, name, rec.Header().Get(name), tc.code, tc.header)
		}
	}

	if _, err := fed.InjectGrid(faults.SiteOutage, []string{"nantes"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/sites/nantes/oar/resources", "/sites/nantes/ref/inventory", "/sites/nantes/ci/api/json"} {
		if rec := serve("GET", path); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Errorf("GET %s on a lost site = %d with Retry-After %q, want 503 with one", path, rec.Code, rec.Header().Get("Retry-After"))
		}
	}
	if rec := serve("POST", "/sites/nantes/oar/resources"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST to a lost site's read route = %d, want 405", rec.Code)
	}

	m := gw.Metrics().Endpoints
	for pattern, want := range map[string]int64{
		"/sites/{site}/oar/jobs":      2,
		"/sites/{site}/oar/resources": 2,
		"/sites/{site}/ci/":           3,
		"/sites/{site}/ref/diff":      1,
	} {
		if m[pattern].Requests != want {
			t.Errorf("%s counted %d requests, want %d", pattern, m[pattern].Requests, want)
		}
	}
}

// TestInventoryETag: one store's inventory, through ?cluster=, is keyed by
// the store's version alone.
func TestInventoryETag(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)
	sh := fed.Shards()[0]
	f, path := sh.F, storePath(sh, "inventory")

	resp, body := get(t, c, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on inventory")
	}
	snap := decode[struct {
		Version int `json:"version"`
	}](t, body)
	if want := fmt.Sprintf(`"v%d"`, snap.Version); etag != want {
		t.Fatalf("ETag = %s, want %s", etag, want)
	}

	// Conditional re-reads take the 304 path and never re-materialize.
	mats := f.Ref.Materializations()
	for i := 0; i < 50; i++ {
		resp := getConditional(t, c, path, etag)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("conditional read %d: status = %d, want 304", i, resp.StatusCode)
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("304 ETag = %s, want %s", got, etag)
		}
	}
	if f.Ref.Materializations() != mats {
		t.Fatalf("304 path re-materialized: %d → %d", mats, f.Ref.Materializations())
	}

	// Unconditional hot reads serve the cached body: still no new
	// materializations.
	for i := 0; i < 10; i++ {
		if resp, _ := get(t, c, path); resp.StatusCode != http.StatusOK {
			t.Fatalf("hot read status = %d", resp.StatusCode)
		}
	}
	if f.Ref.Materializations() != mats {
		t.Fatalf("hot reads re-materialized: %d → %d", mats, f.Ref.Materializations())
	}

	// A description update moves the current version: the stale ETag now
	// misses and the response carries the new one.
	node := f.TB.Nodes()[0]
	inv := node.Inv.Clone()
	inv.RAMGB += 8
	if err := f.Ref.Update(f.Clock.Now(), node.Name, inv); err != nil {
		t.Fatal(err)
	}
	resp2 := getConditional(t, c, path, etag)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-update conditional status = %d, want 200", resp2.StatusCode)
	}
	if got := resp2.Header.Get("ETag"); got == etag || got == "" {
		t.Fatalf("post-update ETag = %q (old %q)", got, etag)
	}

	// Archived versions stay addressable and cacheable.
	resp, body = get(t, c, path+"&version=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("archived status = %d", resp.StatusCode)
	}
	if v := decode[struct {
		Version int `json:"version"`
	}](t, body); v.Version != 1 {
		t.Fatalf("archived version = %d, want 1", v.Version)
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "max-age") {
		t.Fatalf("archived Cache-Control = %q", cc)
	}
	if resp, _ := get(t, c, path+"&version=99999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("future version status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, c, path+"&version=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus version status = %d, want 400", resp.StatusCode)
	}
}

// TestNonFiniteParams: NaN/Inf query values must be rejected up front —
// NaN slides past ordering checks and would otherwise surface as a
// body that does not encode, which answers 500.
func TestNonFiniteParams(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)
	sh := fed.Shards()[0]
	node := sh.F.TB.Nodes()[0].Name
	for _, path := range []string{
		"/status/trend?bucket_sec=NaN",
		"/status/trend?bucket_sec=+Inf",
		"/monitor/metrics?node=" + node + "&from_sec=NaN",
		"/monitor/metrics?node=" + node + "&to_sec=Inf",
	} {
		resp, _ := get(t, c, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status = %d, want 400", path, resp.StatusCode)
		}
	}
	// A finite instant beyond what simulated time can represent (≈ 9.22e9 s)
	// is the far future, so it reads the latest state — it must not wrap
	// around to before the campaign began.
	for _, path := range []string{
		"/grid/at?t=9000000000",
		"/grid/at?t=10000000000",
		"/grid/at?t=1e300",
		"/grid/diff?from=0&to=1e300",
		storePath(sh, "inventory") + "&at=1e300",
		"/incidents?at=1e300",
		"/monitor/metrics?node=" + node + "&from_sec=3590&to_sec=1e300",
	} {
		if resp, body := get(t, c, path); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status = %d, want 200: %s", path, resp.StatusCode, body)
		}
	}
}

// TestUnencodableBodyAnswers500: should a non-finite value reach a body all
// the same, the endpoint answers 500 and counts an error — not its own
// status with nothing after it.
func TestUnencodableBodyAnswers500(t *testing.T) {
	_, gw := newFederatedCampaign(t, 0)
	gw.handle("/nan", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeJSONStatus(w, http.StatusCreated, TrendJSON{BucketSec: math.NaN()})
	})
	resp, body := get(t, inproc.Client(gw), "/nan")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "NaN") {
		t.Fatalf("NaN body answered %d %q, want 500 naming the value", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); strings.Contains(ct, "json") {
		t.Fatalf("error body sent as %q", ct)
	}
	if m := gw.Metrics().Endpoints["/nan"]; m.Requests != 1 || m.Errors != 1 {
		t.Fatalf("endpoint counters = %+v, want the one request counted as an error", m)
	}
}

// TestRefDiff: one store's diff, through ?cluster=, defaults to its latest
// step and takes any archived range.
func TestRefDiff(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)
	sh := fed.Shards()[0]
	f, path := sh.F, storePath(sh, "diff")

	before := f.Ref.VersionCount()
	node := f.TB.Nodes()[3]
	inv := node.Inv.Clone()
	inv.RAMGB /= 2
	if err := f.Ref.Update(f.Clock.Now(), node.Name, inv); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, c, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff status = %d", resp.StatusCode)
	}
	diff := decode[RefDiffJSON](t, body)
	if diff.From != before || diff.To != before+1 || diff.Count != 1 {
		t.Fatalf("diff = %d..%d with %d differences, want %d..%d with 1", diff.From, diff.To, diff.Count, before, before+1)
	}
	if diff.Differences[0].Node != node.Name || diff.Differences[0].Field != "ram_gb" {
		t.Fatalf("difference = %+v", diff.Differences[0])
	}
	if resp2 := getConditional(t, c, path, resp.Header.Get("ETag")); resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional diff status = %d, want 304", resp2.StatusCode)
	}

	// Identical endpoints diff to zero differences.
	resp, body = get(t, c, path+"&from=1&to=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("self diff status = %d", resp.StatusCode)
	}
	if d := decode[RefDiffJSON](t, body); d.Count != 0 {
		t.Fatalf("self diff count = %d", d.Count)
	}
	if resp, _ := get(t, c, path+"&from=2&to=1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted diff status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, c, path+"&to=99999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range diff status = %d, want 404", resp.StatusCode)
	}
}

func TestSubmit(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)
	cluster := fed.Shards()[0].Cluster
	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		return postJSON(t, c, "/oar/submit", body)
	}

	resp, body := post(fmt.Sprintf(`{"request":"cluster='%s'/nodes=2,walltime=1","dry_run":true}`, cluster))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry run status = %d: %s", resp.StatusCode, body)
	}
	dry := decode[SubmitResponse](t, body)
	if dry.CanStartNow == nil || !*dry.CanStartNow {
		t.Fatalf("dry run on an idle testbed = %+v", dry)
	}

	resp, body = post(fmt.Sprintf(`{"request":"cluster='%s'/nodes=2,walltime=1","user":"alice"}`, cluster))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("201 Content-Type = %q", ct)
	}
	sub := decode[SubmitResponse](t, body)
	if sub.Job == nil || sub.Job.State != "Running" || len(sub.Job.Nodes) != 2 || sub.Job.User != "alice" {
		t.Fatalf("submitted job = %+v", sub.Job)
	}

	if resp, body := post(`{"request":"gibberish"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request status = %d: %s", resp.StatusCode, body)
	}
	if resp, body := post(`{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request status = %d: %s", resp.StatusCode, body)
	}
	if resp, body := post(`not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d: %s", resp.StatusCode, body)
	}
}

func TestMonitorEndpoint(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)
	node := fed.Shards()[0].F.TB.Nodes()[0].Name

	resp, body := get(t, c, "/monitor/metrics?metric=cpu_load&node="+node+"&from_sec=0&to_sec=60")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("monitor status = %d: %s", resp.StatusCode, body)
	}
	mon := decode[MonitorJSON](t, body)
	if len(mon.Samples) != 61 {
		t.Fatalf("samples = %d, want 61 (1 Hz inclusive)", len(mon.Samples))
	}

	// power_w flows through the wiring database (attribution path).
	resp, _ = get(t, c, "/monitor/metrics?node="+node+"&from_sec=0&to_sec=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("power status = %d", resp.StatusCode)
	}

	if resp, _ := get(t, c, "/monitor/metrics?node=ghost-1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown node status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, c, "/monitor/metrics?metric=quux&node="+node); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown metric status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, c, "/monitor/metrics?node="+node+"&from_sec=60&to_sec=10"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted range status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, c, "/monitor/metrics"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing node status = %d, want 400", resp.StatusCode)
	}

	// On a campaign younger than the default 60 s window, the default
	// from clamps to the epoch instead of rejecting the request.
	_, gwy := newFederatedCampaign(t, 10*simclock.Second)
	resp, body = get(t, inproc.Client(gwy), "/monitor/metrics?metric=cpu_load&node="+node)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("young-campaign default window status = %d: %s", resp.StatusCode, body)
	}
	if m := decode[MonitorJSON](t, body); m.FromSec != 0 || len(m.Samples) != 11 {
		t.Fatalf("young-campaign window = %g..%g with %d samples", m.FromSec, m.ToSec, len(m.Samples))
	}
}

// TestMonitorWindowIsBounded: a range answers at most one day of samples,
// counted up to now; a longer one is refused before any sample is built.
func TestMonitorWindowIsBounded(t *testing.T) {
	fed, gw := newFederatedCampaign(t, 2*simclock.Day)
	c := inproc.Client(gw)
	node := fed.Shards()[0].F.TB.Nodes()[0].Name
	day := fmt.Sprintf("/monitor/metrics?node=%s&from_sec=%d", node, 86400)
	resp, body := get(t, c, day+"&to_sec=1e12")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one day up to now = %d: %s", resp.StatusCode, body)
	}
	if m := decode[MonitorJSON](t, body); len(m.Samples) != 86401 {
		t.Fatalf("one day up to now = %d samples, want 86401", len(m.Samples))
	}
	for _, path := range []string{
		fmt.Sprintf("/monitor/metrics?node=%s&from_sec=%d", node, 86399),
		"/monitor/metrics?node=" + node + "&from_sec=0&to_sec=1e12",
		"/sites/" + fed.Shards()[0].Site + "/monitor/metrics?node=" + node + "&from_sec=0&to_sec=86401",
	} {
		resp, body := get(t, c, path)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "86400 s") {
			t.Errorf("GET %s = %d %.120q, want 400 naming the 86400 s bound", path, resp.StatusCode, body)
		}
	}
}

// TestInventoryETagUnderChurn drives conditional reads of one store from
// several client goroutines while the Reference API archives new versions
// underneath them. Every response must be coherent: a 304 confirms the exact
// ETag the client sent, and a 200's body version must match the ETag it
// carries. Half the readers ask by ?at=<far future> — the latest version by
// another door, which a version archived mid-request must never turn into
// a 404.
func TestInventoryETagUnderChurn(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)
	sh := fed.Shards()[0]
	f, nodes := sh.F, sh.F.TB.Nodes()
	before := f.Ref.VersionCount()

	const (
		readers = 4
		updates = 300 // at least; the churn lasts as long as the readers do
		reads   = 150
	)
	var writer sync.WaitGroup
	var readersDone atomic.Bool
	archived := 0
	writer.Add(1)
	go func() {
		defer writer.Done()
		for u := 0; u < updates || !readersDone.Load(); u++ {
			n := nodes[(u*131)%len(nodes)]
			inv := n.Inv.Clone()
			inv.RAMGB = 8 + u%64
			if err := f.Ref.Update(f.Clock.Now(), n.Name, inv); err != nil {
				t.Error(err)
				return
			}
			archived++
			// Yield so readers interleave with the churn even on one core.
			runtime.Gosched()
		}
	}()

	var clients sync.WaitGroup
	read := func(path string) {
		defer clients.Done()
		etag := ""
		hits200 := 0
		for i := 0; i < reads; i++ {
			req, _ := http.NewRequest(http.MethodGet, "http://gw.local"+path, nil)
			if etag != "" {
				req.Header.Set("If-None-Match", etag)
			}
			resp, err := c.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			switch resp.StatusCode {
			case http.StatusNotModified:
				if got := resp.Header.Get("ETag"); got != etag {
					t.Errorf("304 with ETag %q after sending %q", got, etag)
				}
				resp.Body.Close()
			case http.StatusOK:
				hits200++
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var snap struct {
					Version int `json:"version"`
				}
				if err := json.Unmarshal(body, &snap); err != nil {
					t.Errorf("bad body: %v", err)
					return
				}
				etag = resp.Header.Get("ETag")
				if want := fmt.Sprintf(`"v%d"`, snap.Version); etag != want {
					t.Errorf("body version %d vs ETag %s", snap.Version, etag)
					return
				}
			default:
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Errorf("GET %s: status = %d: %s", path, resp.StatusCode, body)
				return
			}
		}
		// The first read is unconditional, so every reader sees at
		// least one full body.
		if hits200 == 0 {
			t.Error("reader saw no 200 at all")
		}
	}
	clients.Add(2 * readers)
	for w := 0; w < readers; w++ {
		go read(storePath(sh, "inventory"))
	}
	for w := 0; w < readers; w++ {
		go read(storePath(sh, "inventory") + "&at=1e300")
	}
	clients.Wait()
	readersDone.Store(true)
	writer.Wait()
	if got := f.Ref.VersionCount(); got != before+archived {
		t.Fatalf("versions = %d, want %d", got, before+archived)
	}
}

// TestStress hammers every endpoint family from concurrent clients while a
// driver goroutine keeps advancing the simulated campaign through
// Gateway.Advance — the live-serving mode of cmd/g5kapi. Half the clients
// also write, through every route that takes a shard's write gate: a dry
// run, an anchored submission, an unanchored one (admission places it), a
// token-authenticated CI trigger, and a partition injected and healed
// (admission pumps on both). Run with -race; CI does (GATEWAY_STRESS=1
// scales it up).
func TestStress(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Day)
	clients, iters := 4, 30
	if os.Getenv("GATEWAY_STRESS") != "" {
		clients, iters = 16, 60
	}
	sh := fed.Shards()[1]
	cluster := sh.Cluster
	node := fed.Shards()[0].F.TB.Nodes()[0].Name
	coordinator(fed, sh.Site).F.CI.AddToken("stress-token", "stress")
	_, body := get(t, inproc.Client(gw), "/sites/"+sh.Site+"/ci/api/json")
	trigger := "/sites/" + sh.Site + "/ci/job/" + decode[ci.RootJSON](t, body).Jobs[0].Name + "/build?token=stress-token"
	// Each write is a POST and the statuses it may answer. A client heals
	// every partition the write after it injects one.
	type write struct {
		path, body string
		ok         []int
	}
	writes := []write{
		{"/oar/submit", `{"request":"cluster='` + cluster + `'/nodes=1,walltime=0:30:00","dry_run":true}`, []int{http.StatusOK}},
		{"/oar/submit", `{"request":"cluster='` + cluster + `'/nodes=1,walltime=0:05:00"}`, []int{http.StatusCreated}},
		{"/oar/submit", `{"request":"nodes=1,walltime=0:05:00"}`, []int{http.StatusCreated, http.StatusAccepted}},
		{trigger, "", []int{http.StatusCreated}},
		{"/chaos/inject", `{"kind":"partition","sites":["` + sh.Site + `"]}`, []int{http.StatusCreated}},
		{"/chaos/heal", `{"all":true}`, []int{http.StatusOK}},
	}
	paths := []string{
		"/oar/resources?cluster=" + cluster,
		"/oar/jobs?limit=20",
		// The tracker reads, each under its shard's read gate, racing the
		// tickets a step files and fixes.
		"/bugs/rollup",
		"/incidents",
		"/incidents?state=all&at=1e300",
		"/ref/inventory",
		"/ref/diff",
		storePath(sh, "inventory"),
		storePath(sh, "inventory") + "&at=1e300",
		storePath(sh, "diff"),
		"/bugs",
		"/status/grid",
		"/status/trend",
		"/monitor/metrics?metric=cpu_load&node=" + node + "&from_sec=0&to_sec=30",
		"/sites/" + sh.Site + "/ci/api/json",
		"/metrics",
		// The federation layout and a site's merged view, racing the
		// node-state flips of the advancing campaign.
		"/sites",
		"/sites/nantes/oar/resources",
	}

	done := make(chan struct{})
	var advancer sync.WaitGroup
	advancer.Add(1)
	go func() {
		defer advancer.Done()
		// Until the clients are done, so every write races a step and
		// admission's unanchored jobs keep ending (10 minutes a step).
		// Between steps a node goes Suspected and back, as an operator's
		// quarantine takes it, and the quarantine re-files its ticket, under
		// the write gate as a step would: the campaign alone files tickets
		// in rare bursts, too rare to race the tracker reads.
		flip := gw.shards[0]
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				gw.Advance(10 * simclock.Minute)
				flip.locked(func() {
					flip.f.OAR.SetNodeState(node, []testbed.NodeState{testbed.Suspected, testbed.Alive}[i%2])
					flip.f.Bugs.File("stress/quarantine:"+node, "node quarantined", "stress", node)
				})
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := inproc.Client(gw)
			for i := 0; i < iters; i++ {
				path := paths[(w+i)%len(paths)]
				resp, err := c.Get("http://gw.local" + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode >= 400 {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
				if w%2 != 0 {
					continue
				}
				wr := writes[(w/2+i)%len(writes)]
				resp, err = c.Post("http://gw.local"+wr.path, "application/json", strings.NewReader(wr.body))
				if err != nil {
					t.Errorf("POST %s: %v", wr.path, err)
					return
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !slices.Contains(wr.ok, resp.StatusCode) {
					t.Errorf("POST %s: status %d: %s", wr.path, resp.StatusCode, out)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	advancer.Wait()

	m := gw.Metrics()
	for pattern, em := range m.Endpoints {
		if em.Errors != 0 {
			t.Fatalf("endpoint %s recorded %d errors under stress", pattern, em.Errors)
		}
	}
	// Every consumer population was served: dashboards, scrapers, submitters,
	// CI users and operators.
	for _, pattern := range []string{"/status/grid", "/ref/inventory", "/oar/submit", "/sites/{site}/ci/", "/chaos/heal"} {
		if m.Endpoints[pattern].Requests == 0 {
			t.Fatalf("endpoint %s saw no request: %+v", pattern, m.Endpoints)
		}
	}
}

// TestSiteCIJobDetailIsOneSnapshot reads a matrix job's detail through
// /sites/{site}/ci/ from several goroutines while a driver triggers it
// through the same tree and Gateway.Advance completes its cells. Every
// response must be one instant of the CI server: last_build is the newest
// completed top-level build the listing shows, last_ended_at_sec is when
// that build ended, and a completed parent lists only completed cells. The
// shard gate is what holds it: the CI server has no lock of its own. Run
// with -race.
func TestSiteCIJobDetailIsOneSnapshot(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	site := fed.Sites()[0]
	ciServer := coordinator(fed, site).F.CI
	ciServer.AddToken("snapshot-token", "snapshot")
	// Three matrix builds' worth of history keeps every body small.
	ciServer.JobByName("environments").Retention = 45
	job := "/sites/" + site + "/ci/job/environments/"

	const readers, minReads, minRounds = 4, 400, 40
	var reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := inproc.Client(gw)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Get("http://gw.local" + job + "api/json")
				if err != nil {
					t.Error(err)
					return
				}
				var d ci.JobDetailJSON
				err = json.NewDecoder(resp.Body).Decode(&d)
				resp.Body.Close()
				if err != nil {
					t.Errorf("status %d: %v", resp.StatusCode, err)
					return
				}
				building := map[int]bool{}
				newestDone, newestEnded := 0, 0.0
				for _, b := range d.Builds {
					building[b.Number] = b.Building
					if !b.Building && b.Parent == 0 {
						newestDone, newestEnded = b.Number, b.EndedAtSec
					}
				}
				if d.LastBuild != newestDone {
					t.Errorf("last_build = %d beside a listing whose newest completed build is %d", d.LastBuild, newestDone)
					return
				}
				if d.LastEndedAtSec != newestEnded {
					t.Errorf("last_ended_at_sec = %v beside a listing whose build %d ended at %v", d.LastEndedAtSec, newestDone, newestEnded)
					return
				}
				for _, b := range d.Builds {
					for _, cell := range b.CellBuilds {
						if !b.Building && building[cell] {
							t.Errorf("parent %d reads completed beside cell %d still building", b.Number, cell)
							return
						}
					}
				}
				reads.Add(1)
			}
		}()
	}
	// A failing reader stops reading: stop triggering too, or this never ends.
	c := inproc.Client(gw)
	for round := 0; !t.Failed() && (round < minRounds || reads.Load() < minReads); round++ {
		if resp, body := postJSON(t, c, job+"build?token=snapshot-token", ""); resp.StatusCode != http.StatusCreated {
			t.Fatalf("trigger: status %d: %s", resp.StatusCode, body)
		}
		gw.Advance(10 * simclock.Minute)
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
}

// TestMergeNewestFirstIsTheStableSort holds /oar/jobs's merge to what it
// replaced: the stable sort, newest first, of the per-shard lists'
// concatenation, cut at the limit. The random lists are newest first, as
// every shard's is, with many equal submission times within and across
// shards, so every tie rule shows; a list with no jobs stays nil.
func TestMergeNewestFirstIsTheStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		lists := make([][]oar.JobInfo, rng.Intn(6))
		var all []oar.JobInfo
		id := 0
		for i := range lists {
			at := float64(rng.Intn(5))
			for range rng.Intn(8) {
				id++
				lists[i] = append(lists[i], oar.JobInfo{ID: id, SubmittedAtSec: at})
				at -= float64(rng.Intn(2))
			}
			all = append(all, lists[i]...)
		}
		limit := rng.Intn(12)
		sort.SliceStable(all, func(i, j int) bool { return all[i].SubmittedAtSec > all[j].SubmittedAtSec })
		if limit > 0 && len(all) > limit {
			all = all[:limit]
		}
		if got := mergeNewestFirst(lists, limit); !reflect.DeepEqual(got, all) {
			t.Fatalf("round %d, limit %d: merged %v, the stable sort gives %v", round, limit, got, all)
		}
	}
}
