package intel

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/refapi"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// twoSiteArchive builds an archive over two independent stores, labelled
// the way a micro-sharded federation labels them (site and cluster): a/c1
// captured at 10h with a one-node update at 20h, b/c2 captured at 15h.
func twoSiteArchive(t *testing.T) (*GridArchive, *testbed.Testbed) {
	t.Helper()
	tbA := testbed.Default()
	stA := refapi.NewStore(tbA, 10*simclock.Hour)
	n := tbA.Node("sol-1.sophia")
	inv := n.Inv.Clone()
	inv.RAMGB = 8
	if err := stA.Update(20*simclock.Hour, n.Name, inv); err != nil {
		t.Fatal(err)
	}
	tbB := testbed.Default()
	stB := refapi.NewStore(tbB, 15*simclock.Hour)
	return NewGridArchive([]SiteArchive{
		{Site: "a", Cluster: "c1", Ref: stA},
		{Site: "b", Cluster: "c2", Ref: stB},
	}), tbB
}

func TestVersionVector(t *testing.T) {
	arch, _ := twoSiteArchive(t)

	vec := arch.VersionVector(5*simclock.Hour, nil)
	want := []SiteVersion{{Site: "a", Cluster: "c1"}, {Site: "b", Cluster: "c2"}}
	if !reflect.DeepEqual(vec, want) {
		t.Fatalf("vector before any capture = %v, want %v", vec, want)
	}
	if k := VersionKey(vec); k != "0.0" {
		t.Fatalf("key = %q, want 0.0", k)
	}

	vec = arch.VersionVector(12*simclock.Hour, nil)
	want = []SiteVersion{{Site: "a", Cluster: "c1", Version: 1}, {Site: "b", Cluster: "c2"}}
	if !reflect.DeepEqual(vec, want) {
		t.Fatalf("vector at 12h = %v, want %v", vec, want)
	}

	vec = arch.VersionVector(25*simclock.Hour, nil)
	want = []SiteVersion{{Site: "a", Cluster: "c1", Version: 2}, {Site: "b", Cluster: "c2", Version: 1}}
	if !reflect.DeepEqual(vec, want) {
		t.Fatalf("vector at 25h = %v, want %v", vec, want)
	}
	if k := VersionKey(vec); k != "2.1" {
		t.Fatalf("key = %q, want 2.1", k)
	}

	// The degraded set drops a site from the vector (and so from the key:
	// a body rendered while b was down must never match a whole-grid ETag).
	vec = arch.VersionVector(25*simclock.Hour, map[string]bool{"b": true})
	want = []SiteVersion{{Site: "a", Cluster: "c1", Version: 2}}
	if !reflect.DeepEqual(vec, want) {
		t.Fatalf("vector excluding b = %v, want %v", vec, want)
	}
}

func TestGridAt(t *testing.T) {
	arch, _ := twoSiteArchive(t)

	if snap := arch.At(5*simclock.Hour, nil); len(snap.Sites) != 0 {
		t.Fatalf("At before any capture carries %d sites, want 0", len(snap.Sites))
	}

	snap := arch.At(12*simclock.Hour, nil)
	if len(snap.Sites) != 1 || snap.Sites[0].Site != "a" || snap.Sites[0].Cluster != "c1" || snap.Sites[0].Version != 1 {
		t.Fatalf("At(12h) sites = %+v, want a/c1@1 only", snap.Sites)
	}
	if snap.AsOf != 10*simclock.Hour {
		t.Fatalf("AsOf = %v, want 10h", snap.AsOf)
	}

	snap = arch.At(25*simclock.Hour, nil)
	if len(snap.Sites) != 2 || snap.Sites[0].Version != 2 || snap.Sites[1].Version != 1 || snap.Sites[1].Cluster != "c2" {
		t.Fatalf("At(25h) sites = %+v, want a/c1@2, b/c2@1", snap.Sites)
	}
	if snap.AsOf != 20*simclock.Hour {
		t.Fatalf("AsOf = %v, want 20h (a's update)", snap.AsOf)
	}
	if snap.Sites[0].Snapshot.Nodes["sol-1.sophia"].Inv.RAMGB != 8 {
		t.Fatal("At(25h) does not reflect a's update")
	}
}

func TestMaterializePinsVector(t *testing.T) {
	arch, _ := twoSiteArchive(t)

	// A pinned render must equal the time-based render for the same vector…
	vec := arch.VersionVector(25*simclock.Hour, nil)
	if !reflect.DeepEqual(arch.Materialize(vec), arch.At(25*simclock.Hour, nil)) {
		t.Fatal("Materialize(vector at 25h) != At(25h)")
	}

	// …and stay pinned to old versions even after that vector goes stale,
	// which is exactly what keeps a gateway body honest to its ETag.
	old := arch.Materialize(vec)
	if old.Sites[0].Snapshot.Nodes["sol-1.sophia"].Inv.RAMGB != 8 {
		t.Fatal("pinned render does not reflect a@2")
	}
	stale := arch.Materialize([]SiteVersion{{Site: "a", Cluster: "c1", Version: 1}, {Site: "b", Cluster: "c2", Version: 1}})
	if stale.Sites[0].Version != 1 || stale.AsOf != 15*simclock.Hour {
		t.Fatalf("stale vector render = a@%d AsOf %v, want a@1 AsOf 15h",
			stale.Sites[0].Version, stale.AsOf)
	}

	// Version-0 entries, a known site under the wrong cluster label and
	// unknown sites drop out instead of panicking.
	empty := arch.Materialize([]SiteVersion{{Site: "a", Cluster: "c1"}, {Site: "a", Version: 1}, {Site: "nowhere", Version: 3}})
	if len(empty.Sites) != 0 {
		t.Fatalf("degenerate vector carries %d sites, want 0", len(empty.Sites))
	}

	// The pinned diff equals the time-based diff for the same two vectors,
	// presence rows (version 0 at from) included.
	vFrom := arch.VersionVector(12*simclock.Hour, nil)
	if !reflect.DeepEqual(arch.DiffVector(vFrom, vec), arch.Diff(12*simclock.Hour, 25*simclock.Hour, nil)) {
		t.Fatal("DiffVector(vectors at 12h, 25h) != Diff(12h, 25h)")
	}
}

func TestGridAtRunsUnderGates(t *testing.T) {
	tb := testbed.Default()
	st := refapi.NewStore(tb, simclock.Hour)
	gated := 0
	arch := NewGridArchive([]SiteArchive{{
		Site: "a",
		Ref:  st,
		Gate: func(fn func()) { gated++; fn() },
	}})
	arch.VersionVector(2*simclock.Hour, nil)
	arch.At(2*simclock.Hour, nil)
	arch.Diff(simclock.Hour, 2*simclock.Hour, nil)
	// One vector read; At reads a vector and renders it; Diff reads two and
	// renders the pair.
	if gated != 1+2+3 {
		t.Fatalf("gate ran %d times, want 6 (every store access gated)", gated)
	}
}

func TestGridDiff(t *testing.T) {
	arch, tbB := twoSiteArchive(t)

	d := arch.Diff(12*simclock.Hour, 25*simclock.Hour, nil)
	if len(d.Sites) != 2 {
		t.Fatalf("diff sites = %d, want 2", len(d.Sites))
	}
	a := d.Sites[0]
	if a.Site != "a" || a.Cluster != "c1" || a.FromVersion != 1 || a.ToVersion != 2 {
		t.Fatalf("site a diff header = %+v", a)
	}
	if len(a.Differences) != 1 || a.Differences[0].Field != "ram_gb" {
		t.Fatalf("site a differences = %v, want the one RAM drift", a.Differences)
	}
	// Site b had no capture at 12h: everything reads as newly present.
	b := d.Sites[1]
	if b.Site != "b" || b.Cluster != "c2" || b.FromVersion != 0 || b.ToVersion != 1 {
		t.Fatalf("site b diff header = %+v", b)
	}
	if len(b.Differences) != len(tbB.Nodes()) {
		t.Fatalf("site b differences = %d, want one presence row per node (%d)",
			len(b.Differences), len(tbB.Nodes()))
	}
	if d.Count != len(a.Differences)+len(b.Differences) {
		t.Fatalf("Count = %d, want %d", d.Count, len(a.Differences)+len(b.Differences))
	}

	// Same instant twice: zero drift, present sites still listed.
	d = arch.Diff(25*simclock.Hour, 25*simclock.Hour, nil)
	if d.Count != 0 || len(d.Sites) != 2 {
		t.Fatalf("self diff = %+v, want 0 differences across 2 sites", d)
	}
}

// trackerAt builds a tracker whose clock sits at the given time.
func trackerAt(seed int64, at simclock.Time) (*bugs.Tracker, *simclock.Clock) {
	c := simclock.New(seed)
	if at > 0 {
		c.RunUntil(at)
	}
	return bugs.NewTracker(c), c
}

func TestCorrelateFoldsAcrossSites(t *testing.T) {
	trA, _ := trackerAt(1, simclock.Hour)
	trB, _ := trackerAt(2, 2*simclock.Hour)
	trA.File("grid/outage", "outage", "grid", "lyon")
	trB.File("grid/outage", "outage", "grid", "lyon")
	trB.File("disk/smart", "disk", "hw", "nancy")

	sources := []SiteTracker{
		{Site: "b-site", Bugs: trB},
		{Site: "a-site", Bugs: trA},
	}
	inc := Correlate(sources, CorrelateOptions{At: AtNow})
	if len(inc) != 2 {
		t.Fatalf("incidents = %d, want 2", len(inc))
	}
	// Sorted by first-seen: the outage (1h at site a) precedes the disk (2h).
	out := inc[0]
	if out.Signature != "grid/outage" {
		t.Fatalf("first incident = %q, want grid/outage", out.Signature)
	}
	if out.Tickets != 2 || out.OpenTickets != 2 || !out.Open {
		t.Fatalf("outage incident = %+v, want 2 open tickets", out)
	}
	if !reflect.DeepEqual(out.Sites, []string{"a-site", "b-site"}) {
		t.Fatalf("outage sites = %v, want sorted [a-site b-site]", out.Sites)
	}
	if out.FirstSeen != simclock.Hour || out.LastSeen != 2*simclock.Hour {
		t.Fatalf("outage first/last = %v/%v, want 1h/2h", out.FirstSeen, out.LastSeen)
	}
	if inc[1].Signature != "disk/smart" || inc[1].Tickets != 1 {
		t.Fatalf("second incident = %+v", inc[1])
	}
}

func TestCorrelateLifecycle(t *testing.T) {
	trA, cA := trackerAt(3, simclock.Hour)
	b, _ := trA.File("x/y", "x", "f", "t")
	cA.RunUntil(4 * simclock.Hour)
	if err := trA.Fix(b.ID); err != nil {
		t.Fatal(err)
	}
	sources := []SiteTracker{{Site: "a", Bugs: trA}}

	if inc := Correlate(sources, CorrelateOptions{At: AtNow}); len(inc) != 0 {
		t.Fatalf("open-only view shows %d incidents, want 0 (all fixed)", len(inc))
	}
	inc := Correlate(sources, CorrelateOptions{At: AtNow, IncludeClosed: true})
	if len(inc) != 1 || inc[0].Open || inc[0].OpenTickets != 0 {
		t.Fatalf("all view = %+v, want one closed incident", inc)
	}
	if inc[0].LastSeen != 4*simclock.Hour {
		t.Fatalf("closed LastSeen = %v, want the fix time 4h", inc[0].LastSeen)
	}
}

func TestCorrelateTimeScoped(t *testing.T) {
	trA, cA := trackerAt(4, simclock.Hour)
	b, _ := trA.File("x/y", "x", "f", "t")
	cA.RunUntil(4 * simclock.Hour)
	if err := trA.Fix(b.ID); err != nil {
		t.Fatal(err)
	}
	trB, _ := trackerAt(5, 2*simclock.Hour)
	trB.File("x/y", "x", "f", "t")
	sources := []SiteTracker{{Site: "a", Bugs: trA}, {Site: "b", Bugs: trB}}

	// Before anything was filed: no incidents existed.
	if inc := Correlate(sources, CorrelateOptions{At: 30 * simclock.Minute}); len(inc) != 0 {
		t.Fatalf("at 30m: %d incidents, want 0", len(inc))
	}
	// Between a's filing and b's: one ticket, open (a's fix came later).
	inc := Correlate(sources, CorrelateOptions{At: 90 * simclock.Minute})
	if len(inc) != 1 || inc[0].Tickets != 1 || !inc[0].Open {
		t.Fatalf("at 90m = %+v, want one open single-ticket incident", inc)
	}
	if !reflect.DeepEqual(inc[0].Sites, []string{"a"}) {
		t.Fatalf("at 90m sites = %v, want [a]", inc[0].Sites)
	}
	// After both filings, before a's fix: two open tickets.
	inc = Correlate(sources, CorrelateOptions{At: 3 * simclock.Hour})
	if len(inc) != 1 || inc[0].Tickets != 2 || inc[0].OpenTickets != 2 {
		t.Fatalf("at 3h = %+v, want two open tickets", inc)
	}
	// After a's fix: b's ticket keeps the incident open.
	inc = Correlate(sources, CorrelateOptions{At: 5 * simclock.Hour})
	if len(inc) != 1 || inc[0].OpenTickets != 1 {
		t.Fatalf("at 5h = %+v, want one remaining open ticket", inc)
	}
}

func TestSnapshotTrackers(t *testing.T) {
	trA, _ := trackerAt(6, simclock.Hour)
	trB, _ := trackerAt(7, simclock.Hour)
	trA.File("s", "t", "f", "x")
	trA.File("s", "t", "f", "x")
	sources := []SiteTracker{{Site: "a", Bugs: trA}, {Site: "b", Bugs: trB}}
	snaps := SnapshotTrackers(sources)
	if len(snaps) != 2 || snaps[0].Version != 2 || snaps[1].Version != 0 {
		t.Fatalf("snapshots = %+v, want versions [2 0]", snaps)
	}
	if len(snaps[0].List) != 1 || len(snaps[1].List) != 0 {
		t.Fatalf("snapshot lists = %d/%d tickets, want 1/0", len(snaps[0].List), len(snaps[1].List))
	}
	if k := VersionKey64(snaps); k != "2.0" {
		t.Fatalf("version key = %q, want 2.0", k)
	}
	// Correlating the snapshots equals correlating the live sources.
	a := Correlate(sources, CorrelateOptions{At: AtNow})
	b := CorrelateSnapshots(snaps, CorrelateOptions{At: AtNow})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshot correlation diverges: %+v vs %+v", a, b)
	}
	// The versions-only read names the same key and copies no ticket.
	vers := SnapshotVersions(sources)
	if VersionKey64(vers) != "2.0" || vers[0].List != nil || vers[1].List != nil {
		t.Fatalf("versions-only snapshots = %+v, want key 2.0 and no tickets", vers)
	}
	// Snapshots hold values: a later filing moves the tracker, not them.
	trA.File("s", "t", "f", "x")
	if got := snaps[0].List[0].Occurrences; got != 2 {
		t.Fatalf("snapshot ticket changed under a later File: %d occurrences, want 2", got)
	}
}

// fixtureFleet is a hand-built sweep result (every field of FleetResult is
// wire-visible, so no campaign needs to run to test the fold).
func fixtureFleet() *core.FleetResult {
	return &core.FleetResult{
		Campaigns: make([]core.FleetCampaign, 3),
		Weekly: []core.WeeklyAggregate{
			{Week: 0, Rate: core.Aggregate{Mean: 0.85, Std: 0.02, Min: 0.83, Max: 0.87, N: 3}},
			{Week: 1, Rate: core.Aggregate{Mean: 0.90, Std: 0.01, Min: 0.89, Max: 0.91, N: 3}},
		},
		FirstWeek:  core.Aggregate{Mean: 0.85, Std: 0.02, Min: 0.83, Max: 0.87, N: 3},
		FinalWeeks: core.Aggregate{Mean: 0.90, Std: 0.01, Min: 0.89, Max: 0.91, N: 3},
		BugsFiled:  core.Aggregate{Mean: 12, Std: 1, Min: 11, Max: 13, N: 3},
		BugsFixed:  core.Aggregate{Mean: 8, Std: 1, Min: 7, Max: 9, N: 3},
		BugsOpen:   core.Aggregate{Mean: 4, Std: 0.5, Min: 3, Max: 5, N: 3},
	}
}

func TestTrendFromFleet(t *testing.T) {
	trend := TrendFromFleet(fixtureFleet(), 42, 2)
	if trend.Seeds != 3 || trend.BaseSeed != 42 || trend.Weeks != 2 {
		t.Fatalf("trend header = %+v", trend)
	}
	if len(trend.Points) != 2 || trend.Points[0].Week != 1 {
		t.Fatalf("points = %+v, want 2 points, 1-based weeks", trend.Points)
	}
	if trend.Points[0].Rate.Mean != 85 || trend.Points[1].Rate.Max != 91 {
		t.Fatalf("rates not converted to percent: %+v", trend.Points)
	}
	if trend.BugsFiled.Mean != 12 {
		t.Fatalf("bug bands must stay in counts: %+v", trend.BugsFiled)
	}
}

// TestTrendRenderRoundTrip is the CLI ≡ API proof at the package level:
// rendering a Trend decoded from its own JSON (what a gateway client
// holds) is byte-identical to rendering the original (what the CLI holds).
func TestTrendRenderRoundTrip(t *testing.T) {
	trend := TrendFromFleet(fixtureFleet(), 42, 2)
	body, err := json.Marshal(trend)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Trend
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	var direct, viaWire bytes.Buffer
	trend.RenderText(&direct)
	decoded.RenderText(&viaWire)
	if direct.String() != viaWire.String() {
		t.Fatalf("renders diverge:\ndirect:\n%s\nvia wire:\n%s", direct.String(), viaWire.String())
	}
	if direct.Len() == 0 {
		t.Fatal("renderer produced nothing")
	}
}

func TestTrendStore(t *testing.T) {
	var store TrendStore
	if tr, v := store.Latest(); tr != nil || v != 0 {
		t.Fatalf("empty store = %v, %d", tr, v)
	}
	trend := TrendFromFleet(fixtureFleet(), 42, 2)
	if v := store.Put(trend); v != 1 {
		t.Fatalf("first Put version = %d, want 1", v)
	}
	if tr, v := store.Latest(); tr != trend || v != 1 {
		t.Fatalf("Latest = %v, %d", tr, v)
	}
	if v := store.Put(trend); v != 2 {
		t.Fatalf("second Put version = %d, want 2", v)
	}
}
