package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/simclock"
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

func TestMethodAndPathErrors(t *testing.T) {
	_, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)

	resp, err := c.Post("http://gw.local/ref/inventory", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST read endpoint status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
		t.Fatalf("Allow = %q, want GET", allow)
	}

	resp, _ = get(t, c, "/oar/submit")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET submit status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}

	resp, _ = get(t, c, "/no/such/endpoint")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", resp.StatusCode)
	}

	// A missing resource is 404 regardless of method — never 405.
	resp, err = c.Post("http://gw.local/no/such/endpoint", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST unknown path status = %d, want 404", resp.StatusCode)
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
// Gateway.Advance — the live-serving mode of cmd/g5kapi. Run with -race;
// CI does (GATEWAY_STRESS=1 scales it up).
func TestStress(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Day)
	clients, iters := 4, 30
	if os.Getenv("GATEWAY_STRESS") != "" {
		clients, iters = 16, 60
	}
	sh := fed.Shards()[1]
	cluster := sh.Cluster
	node := fed.Shards()[0].F.TB.Nodes()[0].Name
	paths := []string{
		"/oar/resources?cluster=" + cluster,
		"/oar/jobs?limit=20",
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
		// The gate-free federation layout and a site's merged view, racing
		// the node-state flips of the advancing campaign.
		"/sites",
		"/sites/nantes/oar/resources",
	}

	done := make(chan struct{})
	var advancer sync.WaitGroup
	advancer.Add(1)
	go func() {
		defer advancer.Done()
		// Bounded: ~a simulated day of campaign progress under the
		// clients' feet is plenty, and keeps the test fast under -race.
		for i := 0; i < 150; i++ {
			select {
			case <-done:
				return
			default:
				gw.Advance(10 * simclock.Minute)
			}
		}
		<-done
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
				// Monitoring may legitimately answer 502 when the advancing
				// campaign injects a kwapi fault; everything else must be 2xx.
				if resp.StatusCode >= 400 && resp.StatusCode != http.StatusBadGateway {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
				if w%2 == 0 {
					body := fmt.Sprintf(`{"request":"cluster='%s'/nodes=1,walltime=0:30:00","dry_run":true}`, cluster)
					resp, err := c.Post("http://gw.local/oar/submit", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("dry-run submit status = %d", resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	advancer.Wait()

	m := gw.Metrics()
	for pattern, em := range m.Endpoints {
		// Monitoring may answer 502 when the advancing campaign injects a
		// kwapi fault; every other endpoint must stay clean.
		if pattern != "/monitor/metrics" && em.Errors != 0 {
			t.Fatalf("endpoint %s recorded %d errors under stress", pattern, em.Errors)
		}
	}
	// Every consumer population was served: dashboards, scrapers, submitters.
	for _, pattern := range []string{"/status/grid", "/ref/inventory", "/oar/submit"} {
		if m.Endpoints[pattern].Requests == 0 {
			t.Fatalf("endpoint %s saw no request: %+v", pattern, m.Endpoints)
		}
	}
}
