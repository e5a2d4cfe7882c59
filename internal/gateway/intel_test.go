package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/intel"
	"repro/internal/refapi"
	"repro/internal/simclock"
)

// newIntelGateway fronts a two-shard federation that never starts — one
// cluster micro-shard each of "luxembourg" and "nantes" — whose stores and
// trackers are swapped for hand-built ones before assembly, so every
// archived version, sim-time and tracker mutation is exact. luxembourg
// captures at 10h and updates one node's RAM at 20h, its tracker's clock
// reads 1h; nantes captures at 15h, its tracker's clock reads 2h.
func newIntelGateway(t *testing.T) (*Gateway, *refapi.Store, *refapi.Store, *bugs.Tracker, *bugs.Tracker) {
	t.Helper()
	fed := federation.New(federation.Config{
		Spec: append(fedSpec("luxembourg")[:1:1], fedSpec("nantes")[0]),
	})
	micro := func(site string, captured, trackerNow simclock.Time) *core.Framework {
		f := fed.Shard(site).F
		f.Ref = refapi.NewStore(f.TB, captured)
		clk := simclock.New(1)
		clk.RunUntil(trackerNow)
		f.Bugs = bugs.NewTracker(clk)
		return f
	}
	a := micro("luxembourg", 10*simclock.Hour, simclock.Hour)
	b := micro("nantes", 15*simclock.Hour, 2*simclock.Hour)
	node := a.TB.Nodes()[0]
	inv := node.Inv.Clone()
	inv.RAMGB += 8
	if err := a.Ref.Update(20*simclock.Hour, node.Name, inv); err != nil {
		t.Fatal(err)
	}
	return ForFederation(fed), a.Ref, b.Ref, a.Bugs, b.Bugs
}

func getConditional(t *testing.T, c *http.Client, path, etag string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://gw.local"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestGridAtEndpoint(t *testing.T) {
	gw, stA, stB, _, _ := newIntelGateway(t)
	c := inproc.Client(gw)

	// Parameter contract: t is required and must be a sane number.
	if resp, body := get(t, c, "/grid/at"); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "t=<simtime seconds>") {
		t.Fatalf("missing t = %d %s", resp.StatusCode, body)
	}
	for _, bad := range []string{"?t=nope", "?t=-5", "?t=NaN"} {
		if resp, _ := get(t, c, "/grid/at"+bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/grid/at%s status = %d, want 400", bad, resp.StatusCode)
		}
	}

	// Before any site's first capture: 404, not an empty 200.
	if resp, _ := get(t, c, "/grid/at?t=18000"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-capture status = %d, want 404", resp.StatusCode)
	}

	// At 12h only luxembourg exists (as version 1, captured at 10h).
	resp, body := get(t, c, "/grid/at?t=43200")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("t=12h status = %d", resp.StatusCode)
	}
	if etag := resp.Header.Get("ETag"); etag != `"ga1.0"` {
		t.Fatalf("t=12h ETag = %s, want \"ga1.0\"", etag)
	}
	at := decode[GridAtJSON](t, body)
	if len(at.Sites) != 1 || at.Sites[0].Site != "luxembourg" || at.Sites[0].Version != 1 {
		t.Fatalf("t=12h sites = %+v, want luxembourg@1", at.Sites)
	}
	if at.AsOfSec != (10 * simclock.Hour).Seconds() {
		t.Fatalf("as_of_sec = %v, want 36000", at.AsOfSec)
	}

	// At 25h the grid view spans both sites at their then-current versions.
	resp, body = get(t, c, "/grid/at?t=90000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("t=25h status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"ga2.1"` {
		t.Fatalf("t=25h ETag = %s, want \"ga2.1\"", etag)
	}
	at = decode[GridAtJSON](t, body)
	if len(at.Sites) != 2 || at.Sites[0].Version != 2 || at.Sites[1].Version != 1 {
		t.Fatalf("t=25h sites = %+v, want luxembourg@2, nantes@1", at.Sites)
	}
	if at.AsOfSec != (20 * simclock.Hour).Seconds() {
		t.Fatalf("as_of_sec = %v, want 72000 (the RAM update)", at.AsOfSec)
	}

	// Conditional re-reads 304 without materializing; unconditional hot
	// reads serve the cached body without materializing either.
	mats := stA.Materializations() + stB.Materializations()
	for i := 0; i < 25; i++ {
		if resp := getConditional(t, c, "/grid/at?t=90000", etag); resp.StatusCode != http.StatusNotModified {
			t.Fatalf("conditional read %d: status = %d, want 304", i, resp.StatusCode)
		}
	}
	for i := 0; i < 10; i++ {
		if resp, _ := get(t, c, "/grid/at?t=90000"); resp.StatusCode != http.StatusOK {
			t.Fatalf("hot read status = %d", resp.StatusCode)
		}
	}
	if got := stA.Materializations() + stB.Materializations(); got != mats {
		t.Fatalf("hot /grid/at re-materialized: %d → %d", mats, got)
	}

	// A different t resolving to the same version vector is the same
	// resource: same ETag, and a conditional against it still 304s.
	resp, _ = get(t, c, "/grid/at?t=100000")
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("t=100000 ETag = %s, want %s (same vector)", got, etag)
	}
}

func TestGridDiffEndpoint(t *testing.T) {
	gw, _, _, _, _ := newIntelGateway(t)
	c := inproc.Client(gw)

	if resp, body := get(t, c, "/grid/diff"); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "from=<simtime seconds>") {
		t.Fatalf("missing range = %d %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, c, "/grid/diff?from=90000&to=43200"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted range status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, c, "/grid/diff?from=0&to=100"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-capture range status = %d, want 404", resp.StatusCode)
	}

	// 12h → 25h: luxembourg moved v1→v2 (one RAM field), nantes appeared.
	resp, body := get(t, c, "/grid/diff?from=43200&to=90000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"gd1.0-2.1"` {
		t.Fatalf("diff ETag = %s, want \"gd1.0-2.1\"", etag)
	}
	diff := decode[GridDiffJSON](t, body)
	if len(diff.Sites) != 2 {
		t.Fatalf("diff sites = %d, want 2", len(diff.Sites))
	}
	lux, nts := diff.Sites[0], diff.Sites[1]
	if lux.Site != "luxembourg" || lux.FromVersion != 1 || lux.ToVersion != 2 || len(lux.Differences) != 1 {
		t.Fatalf("luxembourg section = %+v", lux)
	}
	if nts.Site != "nantes" || nts.FromVersion != 0 || nts.ToVersion != 1 {
		t.Fatalf("nantes section = %+v", nts)
	}
	presence := len(nts.Differences)
	if presence == 0 {
		t.Fatal("nantes presence rows = 0, want one per node")
	}
	if diff.Count != 1+presence {
		t.Fatalf("count = %d, want %d", diff.Count, 1+presence)
	}

	// Conditional 304, and the degenerate self-diff is empty.
	if resp := getConditional(t, c, "/grid/diff?from=43200&to=90000", etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional diff status = %d, want 304", resp.StatusCode)
	}
	resp, body = get(t, c, "/grid/diff?from=90000&to=90000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("self-diff status = %d", resp.StatusCode)
	}
	if got := decode[GridDiffJSON](t, body); got.Count != 0 {
		t.Fatalf("self-diff count = %d, want 0", got.Count)
	}
}

func TestIncidentsEndpoint(t *testing.T) {
	gw, _, _, trA, trB := newIntelGateway(t)
	c := inproc.Client(gw)

	// Empty trackers: a clean 200 with zero incidents, already ETagged.
	resp, body := get(t, c, "/incidents")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty status = %d", resp.StatusCode)
	}
	if got := decode[IncidentsJSON](t, body); got.Count != 0 {
		t.Fatalf("empty count = %d", got.Count)
	}
	emptyETag := resp.Header.Get("ETag")

	// The same root cause filed at two sites is exactly one incident.
	trA.File("net/switch-flap", "switch flapping", "net", "sw-1")
	trB.File("net/switch-flap", "switch flapping", "net", "sw-1")
	trB.File("disk/smart", "disk failure", "hw", "node-9")

	resp, body = get(t, c, "/incidents")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == emptyETag {
		t.Fatal("filing bugs did not move the /incidents ETag")
	}
	inc := decode[IncidentsJSON](t, body)
	if inc.Count != 2 || len(inc.Incidents) != 2 {
		t.Fatalf("count = %d, want 2 (3 tickets, 2 signatures)", inc.Count)
	}
	flap := inc.Incidents[0]
	if flap.Signature != "net/switch-flap" || flap.Tickets != 2 || flap.OpenTickets != 2 {
		t.Fatalf("first incident = %+v, want the folded switch-flap", flap)
	}
	if len(flap.Sites) != 2 || flap.Sites[0] != "luxembourg" || flap.Sites[1] != "nantes" {
		t.Fatalf("flap sites = %v, want [luxembourg nantes]", flap.Sites)
	}
	if flap.FirstSeenSec != simclock.Hour.Seconds() || flap.LastSeenSec != (2*simclock.Hour).Seconds() {
		t.Fatalf("flap first/last = %v/%v, want 3600/7200", flap.FirstSeenSec, flap.LastSeenSec)
	}
	if flap.State != "open" {
		t.Fatalf("flap state = %q", flap.State)
	}

	// Conditional requests 304 until a tracker mutates.
	if resp := getConditional(t, c, "/incidents", etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status = %d, want 304", resp.StatusCode)
	}
	trB.File("disk/smart", "disk failure", "hw", "node-9") // dedup bump still moves the version
	if resp := getConditional(t, c, "/incidents", etag); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation conditional status = %d, want 200", resp.StatusCode)
	}

	// The time-scoped view: at 90 minutes only luxembourg's filing exists.
	resp, body = get(t, c, "/incidents?at=5400")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?at status = %d", resp.StatusCode)
	}
	past := decode[IncidentsJSON](t, body)
	if past.AtSec == nil || *past.AtSec != 5400 {
		t.Fatalf("?at body at_sec = %v, want 5400", past.AtSec)
	}
	if past.Count != 1 || past.Incidents[0].Tickets != 1 ||
		len(past.Incidents[0].Sites) != 1 || past.Incidents[0].Sites[0] != "luxembourg" {
		t.Fatalf("?at=5400 = %+v, want the single luxembourg ticket", past.Incidents)
	}
	if resp, _ := get(t, c, "/incidents?at=10"); resp.StatusCode != http.StatusOK {
		t.Fatal("?at before history should still be a clean empty 200")
	}
	if resp, _ := get(t, c, "/incidents?at=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("bad ?at should be 400")
	}

	// Lifecycle: fixing both flap tickets closes the incident out of the
	// default view; state=all still shows it as closed.
	if err := trA.Fix(1); err != nil {
		t.Fatal(err)
	}
	if err := trB.Fix(1); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, c, "/incidents")
	if got := decode[IncidentsJSON](t, body); resp.StatusCode != http.StatusOK || got.Count != 1 {
		t.Fatalf("post-fix open view = %d incidents, want 1 (disk only)", got.Count)
	}
	resp, body = get(t, c, "/incidents?state=all")
	all := decode[IncidentsJSON](t, body)
	if resp.StatusCode != http.StatusOK || all.Count != 2 {
		t.Fatalf("state=all = %d incidents, want 2", all.Count)
	}
	if all.Incidents[0].State != "closed" || all.Incidents[0].OpenTickets != 0 {
		t.Fatalf("flap after fixes = %+v, want closed", all.Incidents[0])
	}
	if resp, _ := get(t, c, "/incidents?state=sideways"); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("bad state should be 400")
	}
}

func TestReliabilityTrendEndpoint(t *testing.T) {
	gw, _, _, _, _ := newIntelGateway(t)
	c := inproc.Client(gw)

	resp, body := get(t, c, "/reliability/trend")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "reliability") {
		t.Fatalf("pre-sweep = %d %s, want a 404 hint", resp.StatusCode, body)
	}

	trend := &intel.Trend{
		Seeds: 3, BaseSeed: 42, Weeks: 2,
		Points: []intel.TrendPoint{
			{Week: 1, Rate: intel.Band{Mean: 85, Std: 2, Min: 83, Max: 87, N: 3}},
			{Week: 2, Rate: intel.Band{Mean: 90, Std: 1, Min: 89, Max: 91, N: 3}},
		},
		FirstWeek:  intel.Band{Mean: 85, Std: 2, Min: 83, Max: 87, N: 3},
		FinalWeeks: intel.Band{Mean: 90, Std: 1, Min: 89, Max: 91, N: 3},
		BugsFiled:  intel.Band{Mean: 12, Std: 3, Min: 9, Max: 15, N: 3},
		BugsFixed:  intel.Band{Mean: 10, Std: 2, Min: 8, Max: 12, N: 3},
		BugsOpen:   intel.Band{Mean: 2, Std: 1, Min: 1, Max: 3, N: 3},
	}
	if v := gw.SetReliabilityTrend(trend); v != 1 {
		t.Fatalf("first Put version = %d, want 1", v)
	}

	resp, body = get(t, c, "/reliability/trend")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"r1"` {
		t.Fatalf("ETag = %s, want \"r1\"", etag)
	}
	if resp := getConditional(t, c, "/reliability/trend", etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status = %d, want 304", resp.StatusCode)
	}

	// The shared-renderer contract: a client decoding the body and calling
	// RenderText prints byte-for-byte what the CLI prints from the
	// locally-computed Trend. This is the CLI ≡ API equality.
	var fromWire intel.Trend
	if err := json.Unmarshal(body, &fromWire); err != nil {
		t.Fatalf("trend body does not decode: %v", err)
	}
	var cli, api bytes.Buffer
	trend.RenderText(&cli)
	fromWire.RenderText(&api)
	if !bytes.Equal(cli.Bytes(), api.Bytes()) {
		t.Fatalf("CLI and API renders differ:\n--- cli\n%s--- api\n%s", cli.String(), api.String())
	}

	// A new sweep replaces the stored trend under a fresh version.
	if v := gw.SetReliabilityTrend(trend); v != 2 {
		t.Fatalf("second Put version = %d, want 2", v)
	}
	if resp := getConditional(t, c, "/reliability/trend", etag); resp.StatusCode != http.StatusOK {
		t.Fatalf("stale conditional after new sweep = %d, want 200", resp.StatusCode)
	}
}

// TestShardInventoryAt is the ?at= satellite: one store's inventory reads
// resolve a sim-time to the version that was current then, sharing the
// version's ETag and cache identity.
func TestShardInventoryAt(t *testing.T) {
	gw, stA, _, _, _ := newIntelGateway(t)
	c := inproc.Client(gw)
	inventory := "/sites/luxembourg/ref/inventory?cluster=" + gw.shards[0].cluster

	resp, body := get(t, c, inventory+"&at=43200")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?at=12h status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != `"v1"` {
		t.Fatalf("?at=12h ETag = %s, want \"v1\" (the archived version's identity)", got)
	}
	if resp.Header.Get("Cache-Control") == "" {
		t.Fatal("archived ?at answer should be hard-cacheable")
	}
	if v := decode[struct {
		Version int `json:"version"`
	}](t, body); v.Version != 1 {
		t.Fatalf("?at=12h version = %d, want 1", v.Version)
	}

	resp, _ = get(t, c, inventory+"&at=90000")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"v2"` {
		t.Fatalf("?at=25h = %d %s, want 200 \"v2\"", resp.StatusCode, resp.Header.Get("ETag"))
	}

	// T before the first capture is a 404, not an empty inventory.
	if resp, _ := get(t, c, inventory+"&at=100"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-capture ?at status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, c, inventory+"&at=junk"); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("bad ?at should be 400")
	}
	if resp, _ := get(t, c, inventory+"&version=1&at=43200"); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("?version together with ?at should be 400")
	}

	// The resolved version shares the per-version body cache (no fresh
	// materialization for a repeat read through either parameter).
	mats := stA.Materializations()
	get(t, c, inventory+"&at=43200")
	get(t, c, inventory+"&version=1")
	if got := stA.Materializations(); got != mats {
		t.Fatalf("repeat reads re-materialized: %d → %d", mats, got)
	}
}

// TestFederatedVersionHint is the error-body satellite: the federated
// inventory's ?version= rejection must point at the time-travel routes.
func TestFederatedVersionHint(t *testing.T) {
	gw, _, _, _, _ := newIntelGateway(t)
	c := inproc.Client(gw)

	resp, body := get(t, c, "/ref/inventory?version=2")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	for _, want := range []string{"/sites/{site}/ref/inventory?version=N", "?at=", "/grid/at"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("400 body %q misses the %q hint", body, want)
		}
	}
}

// TestBugsRollupETag is the rollup satellite: /bugs/rollup carries a strong
// ETag keyed by the per-site tracker versions, 304s while nothing mutates,
// and moves on any filing — dedup bumps included.
func TestBugsRollupETag(t *testing.T) {
	gw, _, _, trA, trB := newIntelGateway(t)
	c := inproc.Client(gw)

	trA.File("net/switch-flap", "switch flapping", "net", "sw-1")
	trB.File("net/switch-flap", "switch flapping", "net", "sw-1")

	resp, body := get(t, c, "/bugs/rollup")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.Contains(etag, "br") {
		t.Fatalf("rollup ETag = %q, want a \"br…\" version key", etag)
	}
	roll := decode[BugsRollupJSON](t, body)
	if roll.Count != 1 || roll.Rollup[0].Tickets != 2 {
		t.Fatalf("rollup = %+v, want one two-ticket row", roll)
	}

	for i := 0; i < 10; i++ {
		if resp := getConditional(t, c, "/bugs/rollup", etag); resp.StatusCode != http.StatusNotModified {
			t.Fatalf("conditional rollup %d = %d, want 304", i, resp.StatusCode)
		}
	}

	// state=all is a different resource: different key, never a cross-304.
	respAll, _ := get(t, c, "/bugs/rollup?state=all")
	if allTag := respAll.Header.Get("ETag"); allTag == etag {
		t.Fatal("state=all shares the open view's ETag")
	}

	// Any tracker mutation — here a dedup occurrence bump — moves the tag.
	trA.File("net/switch-flap", "switch flapping", "net", "sw-1")
	resp2 := getConditional(t, c, "/bugs/rollup", etag)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-filing conditional = %d, want 200", resp2.StatusCode)
	}
	if got := resp2.Header.Get("ETag"); got == etag {
		t.Fatal("filing did not move the rollup ETag")
	}
}

// TestIntelUnderChaos is the degraded-mode drill: with a site down, the
// intel views exclude it, their keys carry the down-set, and healing
// restores the healthy identities — so a degraded body can never satisfy a
// whole-grid conditional request.
func TestIntelUnderChaos(t *testing.T) {
	fed, gw := newChaosCampaign(t)
	c := inproc.Client(gw)
	nowSec := int(fed.Now().Seconds())
	path := "/grid/at?t=" + strconv.Itoa(nowSec)

	resp, body := get(t, c, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy status = %d", resp.StatusCode)
	}
	healthyETag := resp.Header.Get("ETag")
	healthy := decode[GridAtJSON](t, body)
	if len(healthy.Sites) != 8 || healthy.Degraded != nil {
		t.Fatalf("healthy view = %d cluster stores (degraded %v), want 8 clean", len(healthy.Sites), healthy.Degraded)
	}
	respInc, _ := get(t, c, "/incidents?state=all")
	healthyIncETag := respInc.Header.Get("ETag")

	if resp, body := postJSON(t, c, "/chaos/inject", `{"kind":"outage","sites":["lyon"]}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("inject = %d %s", resp.StatusCode, body)
	}

	resp, body = get(t, c, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded status = %d", resp.StatusCode)
	}
	downETag := resp.Header.Get("ETag")
	if downETag == healthyETag || !strings.Contains(downETag, "down:lyon") {
		t.Fatalf("degraded ETag = %s (healthy %s), want a down-set key", downETag, healthyETag)
	}
	down := decode[GridAtJSON](t, body)
	if len(down.Sites) != 4 || down.Degraded == nil {
		t.Fatalf("degraded view = %d cluster stores (degraded %v), want 4 + marker", len(down.Sites), down.Degraded)
	}
	for _, s := range down.Sites {
		if s.Site == "lyon" {
			t.Fatal("degraded /grid/at still lists the lost site")
		}
	}
	// A whole-grid conditional against the degraded resource misses.
	if resp := getConditional(t, c, path, healthyETag); resp.StatusCode == http.StatusNotModified {
		t.Fatal("healthy ETag matched a degraded body")
	}

	respInc, bodyInc := get(t, c, "/incidents?state=all")
	if got := respInc.Header.Get("ETag"); got == healthyIncETag || !strings.Contains(got, "down:lyon") {
		t.Fatalf("degraded /incidents ETag = %s, want a down-set key", got)
	}
	incs := decode[IncidentsJSON](t, bodyInc)
	for _, in := range incs.Incidents {
		for _, s := range in.Sites {
			if s == "lyon" {
				t.Fatal("degraded /incidents still folds the lost site's tickets")
			}
		}
	}

	// Heal: the healthy identities come back exactly.
	if resp, body := postJSON(t, c, "/chaos/heal", `{"all":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("heal = %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, c, path)
	if got := resp.Header.Get("ETag"); got != healthyETag {
		t.Fatalf("post-heal ETag = %s, want the healthy %s", got, healthyETag)
	}
	if resp := getConditional(t, c, path, healthyETag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("post-heal conditional = %d, want 304", resp.StatusCode)
	}
}

// TestIncidentsAndRollupUnderLiveAdvance hammers the two tracker-backed
// views while the campaign steps hour by hour underneath them. Under -race
// it proves that a render reads no live ticket outside its shard gate; on
// any build it checks the ETag contract a torn read would break — one key
// never names two different bodies.
func TestIncidentsAndRollupUnderLiveAdvance(t *testing.T) {
	_, gw := newChaosCampaign(t)
	c := inproc.Client(gw)
	paths := []string{"/incidents?state=all", "/bugs/rollup?state=all"}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	keysSeen := make([]int, len(paths))
	for i, path := range paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			bodies := map[string]string{} // ETag → body served under it
			last := ""
			for n := 0; ; n++ {
				select {
				case <-stop:
					keysSeen[i] = len(bodies)
					return
				default:
				}
				req, err := http.NewRequest(http.MethodGet, "http://gw.local"+path, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if n%2 == 1 {
					req.Header.Set("If-None-Match", last)
				}
				resp, err := c.Do(req)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("GET %s: reading body: %v", path, err)
					return
				}
				etag := resp.Header.Get("ETag")
				switch resp.StatusCode {
				case http.StatusNotModified:
					if etag != last {
						t.Errorf("GET %s: 304 carries %s, sent %s", path, etag, last)
					}
				case http.StatusOK:
					if prev, seen := bodies[etag]; seen && prev != string(body) {
						t.Errorf("GET %s: two bodies under ETag %s", path, etag)
						return
					}
					bodies[etag], last = string(body), etag
				default:
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(i, path)
	}
	for h := 0; h < 72; h++ {
		gw.Advance(simclock.Hour)
	}
	close(stop)
	wg.Wait()
	for i, path := range paths {
		if keysSeen[i] < 2 && !t.Failed() {
			t.Errorf("%s kept one ETag through 72 hours of campaign: the trackers never moved, the test proves nothing", path)
		}
	}
}

// TestIntelSerialParallelDeterminism holds the intel views to the
// federation's load-bearing property through a whole disaster: the same
// campaign (lyon out for week 2, nantes cut off for weeks 2–3), stepped
// serially and on 4 shard workers, serves byte-identical bodies under
// identical ETags for every probed instant — frozen weeks and catch-up
// ticks must not leak into the archive. On the 4-worker gateway it then
// checks what a historical read costs (hot re-reads materialize no
// snapshot) and that the outage's ticket burst folds into one incident.
func TestIntelSerialParallelDeterminism(t *testing.T) {
	run := func(workers int) (*federation.Federation, *http.Client) {
		fed := federation.New(federation.Config{
			Seed: 20, Workers: workers,
			Spec: fedSpec("luxembourg", "nantes", "lyon", "sophia"),
			Configure: func(site string, seed int64) core.Config {
				cfg := core.DefaultConfig()
				cfg.InitialFaults = 10
				cfg.EnvMatrixPeriod = 0
				return cfg
			},
		})
		fed.Start()
		if err := fed.ScheduleChaos(
			faults.ScheduleEntry{Kind: faults.SiteOutage, Sites: []string{"lyon"}, At: simclock.Week, Duration: simclock.Week},
			faults.ScheduleEntry{Kind: faults.WANPartition, Sites: []string{"nantes"}, At: simclock.Week, Duration: 2 * simclock.Week},
		); err != nil {
			t.Fatalf("schedule: %v", err)
		}
		gw := ForFederation(fed)
		gw.Advance(3 * simclock.Week)
		return fed, inproc.Client(gw)
	}
	_, serial := run(1)
	fed, parallel := run(4)

	const midOutage = "/grid/at?t=907200" // mid week 2: lyon frozen, nantes cut
	for _, path := range []string{
		"/grid/at?t=302400", // mid week 1: whole grid, pre-disaster
		midOutage,
		"/grid/at?t=1814400", // week 3 barrier: healed and caught up
		"/grid/diff?from=302400&to=1814400",
		"/incidents?state=all",
		"/incidents?at=1209600",
		"/bugs/rollup?state=all",
	} {
		respS, bodyS := get(t, serial, path)
		respP, bodyP := get(t, parallel, path)
		if respS.StatusCode != http.StatusOK || respP.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d serial, %d parallel", path, respS.StatusCode, respP.StatusCode)
		}
		if etagS, etagP := respS.Header.Get("ETag"), respP.Header.Get("ETag"); etagS != etagP || !bytes.Equal(bodyS, bodyP) {
			t.Fatalf("%s diverged between serial and parallel stepping:\nserial:   %s %d bytes\nparallel: %s %d bytes",
				path, etagS, len(bodyS), etagP, len(bodyP))
		}
	}

	// A hot historical read is one binary search per store, not a rebuild.
	materializations := func() (n int64) {
		for _, sh := range fed.Shards() {
			n += sh.F.Ref.Materializations()
		}
		return n
	}
	resp, _ := get(t, parallel, midOutage)
	etag, before := resp.Header.Get("ETag"), materializations()
	for i := 0; i < 50; i++ {
		if resp := getConditional(t, parallel, midOutage, etag); resp.StatusCode != http.StatusNotModified {
			t.Fatalf("conditional read %d: status = %d, want 304", i, resp.StatusCode)
		}
	}
	for i := 0; i < 25; i++ {
		get(t, parallel, midOutage)
	}
	if after := materializations(); after != before {
		t.Fatalf("75 hot %s reads re-materialized snapshots: %d → %d", midOutage, before, after)
	}

	// The outage files one ticket, same signature, on every surviving
	// site's coordinator shard; the rollup folds the burst into one row.
	_, body := get(t, parallel, "/incidents?state=all")
	var outage []IncidentJSON
	for _, in := range decode[IncidentsJSON](t, body).Incidents {
		if in.Signature == "site-outage:lyon" {
			outage = append(outage, in)
		}
	}
	if len(outage) != 1 {
		t.Fatalf("outage burst folded into %d incidents, want exactly 1", len(outage))
	}
	if in := outage[0]; len(in.Sites) < 2 || in.Tickets != len(in.Sites) || slices.Contains(in.Sites, "lyon") {
		t.Fatalf("outage incident = %d tickets across %v, want one per surviving site", in.Tickets, in.Sites)
	}
}
