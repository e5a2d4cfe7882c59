package status

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ci"
	"repro/internal/simclock"
)

// fixture: a CI server with two simple jobs and one matrix job, exposed
// over real HTTP.
func fixture(t *testing.T) (*simclock.Clock, *ci.Server, *Client) {
	t.Helper()
	c := simclock.New(50)
	s := ci.NewServer(c, 16)
	mk := func(res ci.Result) ci.Script {
		return func(bc *ci.BuildContext) ci.Outcome {
			return ci.Outcome{Result: res, Duration: simclock.Minute}
		}
	}
	s.CreateJob(&ci.Job{Name: "disk/sol", Script: mk(ci.Success)})
	s.CreateJob(&ci.Job{Name: "disk/helios", Script: mk(ci.Failure)})
	s.CreateJob(&ci.Job{Name: "kwapi/sophia", Script: mk(ci.Success)})
	s.CreateJob(&ci.Job{
		Name: "environments",
		Script: func(bc *ci.BuildContext) ci.Outcome {
			if bc.Axis("cluster") == "helios" && bc.Axis("image") == "img-b" {
				return ci.Outcome{Result: ci.Unstable, Duration: simclock.Minute}
			}
			return ci.Outcome{Result: ci.Success, Duration: simclock.Minute}
		},
		Axes: []ci.Axis{
			{Name: "image", Values: []string{"img-a", "img-b"}},
			{Name: "cluster", Values: []string{"sol", "helios"}},
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return c, s, NewClient(ts.URL)
}

func runAll(c *simclock.Clock, s *ci.Server) {
	for _, name := range s.JobNames() {
		s.Trigger(name, "test")
	}
	c.Run()
}

func TestBuildGrid(t *testing.T) {
	c, s, cl := fixture(t)
	runAll(c, s)
	g, err := cl.BuildGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Families) != 3 { // disk, kwapi, environments
		t.Fatalf("families = %v", g.Families)
	}
	if got := g.Cell("disk", "sol").Result; got != "SUCCESS" {
		t.Fatalf("disk/sol = %q", got)
	}
	if got := g.Cell("disk", "helios").Result; got != "FAILURE" {
		t.Fatalf("disk/helios = %q", got)
	}
	if got := g.Cell("kwapi", "sophia").Result; got != "SUCCESS" {
		t.Fatalf("kwapi/sophia = %q", got)
	}
	// Matrix contributions: worst across images per cluster.
	if got := g.Cell("environments", "sol").Result; got != "SUCCESS" {
		t.Fatalf("environments/sol = %q", got)
	}
	if got := g.Cell("environments", "helios").Result; got != "UNSTABLE" {
		t.Fatalf("environments/helios = %q", got)
	}
}

func TestGridOKRateAndReport(t *testing.T) {
	c, s, cl := fixture(t)
	runAll(c, s)
	g, _ := cl.BuildGrid()
	// 5 populated cells: 3 SUCCESS, 1 FAILURE, 1 UNSTABLE.
	if got := g.OKRate(); got < 0.59 || got > 0.61 {
		t.Fatalf("OK rate = %v, want 0.6", got)
	}
	rep := g.ReportFor("helios")
	if len(rep.Rows) != 2 {
		t.Fatalf("helios rows = %+v", rep.Rows)
	}
	for _, r := range rep.Rows {
		if r.Family == "disk" && r.Status.Result != "FAILURE" {
			t.Fatalf("helios disk = %q", r.Status.Result)
		}
	}
}

func TestGridBeforeAnyBuild(t *testing.T) {
	_, _, cl := fixture(t)
	g, err := cl.BuildGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Families) != 0 || g.OKRate() != 0 {
		t.Fatalf("pre-build grid: %+v", g)
	}
}

func TestTrend(t *testing.T) {
	builds := []ci.BuildJSON{
		{Result: "SUCCESS", EndedAtSec: 10},
		{Result: "FAILURE", EndedAtSec: 20},
		{Result: "UNSTABLE", EndedAtSec: 30},
		{Result: "SUCCESS", EndedAtSec: 100},
		{Result: "SUCCESS", EndedAtSec: 110},
		// matrix parent: skipped
		{Result: "FAILURE", EndedAtSec: 115, CellBuilds: []int{1, 2}},
		// still building: skipped
		{Result: "NOT_BUILT", EndedAtSec: 0, Building: true},
	}
	pts := Trend(builds, 60)
	if len(pts) != 2 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].Total != 2 || pts[0].Success != 1 || pts[0].Unstable != 1 || pts[0].Rate != 0.5 {
		t.Fatalf("bucket 0 = %+v", pts[0])
	}
	if pts[1].Total != 2 || pts[1].Rate != 1.0 {
		t.Fatalf("bucket 1 = %+v", pts[1])
	}
	if Trend(builds, 0) != nil {
		t.Fatal("zero bucket accepted")
	}
}

// TestTrendBucketBoundaries pins the bucketing rules at the edges: empty
// input, negative bucket size, a build landing exactly on a bucket
// boundary, single-sample buckets, and gaps (buckets in which nothing
// completed never appear).
func TestTrendBucketBoundaries(t *testing.T) {
	if pts := Trend(nil, 60); len(pts) != 0 {
		t.Fatalf("empty input produced %+v", pts)
	}
	if Trend([]ci.BuildJSON{{Result: "SUCCESS"}}, -5) != nil {
		t.Fatal("negative bucket accepted")
	}

	const day = 86400.0
	const week = 7 * day
	builds := []ci.BuildJSON{
		// Exactly on the epoch: first bucket.
		{Result: "SUCCESS", EndedAtSec: 0},
		// Last instant of week 0 vs exactly the week-1 boundary: the
		// boundary sample must fall in the NEXT bucket (half-open buckets).
		{Result: "FAILURE", EndedAtSec: week - 1},
		{Result: "SUCCESS", EndedAtSec: week},
		// A single-sample bucket far away; weeks 2..4 stay empty.
		{Result: "SUCCESS", EndedAtSec: 5*week + 12},
	}
	pts := Trend(builds, week)
	if len(pts) != 3 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].BucketStartSec != 0 || pts[0].Total != 2 || pts[0].Rate != 0.5 {
		t.Fatalf("week 0 = %+v", pts[0])
	}
	if pts[1].BucketStartSec != week || pts[1].Total != 1 || pts[1].Rate != 1.0 {
		t.Fatalf("week 1 = %+v", pts[1])
	}
	// The gap: the next point jumps straight to week 5.
	if pts[2].BucketStartSec != 5*week || pts[2].Total != 1 {
		t.Fatalf("week 5 = %+v", pts[2])
	}

	// A bucket holding only an UNSTABLE build has no verdicts: rate 0,
	// unstable counted separately.
	pts = Trend([]ci.BuildJSON{{Result: "UNSTABLE", EndedAtSec: 30}}, 60)
	if len(pts) != 1 || pts[0].Total != 0 || pts[0].Unstable != 1 || pts[0].Rate != 0 {
		t.Fatalf("unstable-only bucket = %+v", pts)
	}
}

// TestClientDefaultTimeout: NewClient must never hang forever on a stalled
// server — the page in front of operators inherits any hang.
func TestClientDefaultTimeout(t *testing.T) {
	c := NewClient("http://example.invalid")
	if c.http.Timeout != DefaultTimeout {
		t.Fatalf("NewClient timeout = %v, want %v", c.http.Timeout, DefaultTimeout)
	}
	custom := &http.Client{Timeout: time.Second}
	if cc := NewClientWith("http://example.invalid", custom); cc.http != custom {
		t.Fatal("NewClientWith ignored the supplied client")
	}
}

// TestLocalClient runs the whole grid assembly through the in-process
// transport — no listener involved.
func TestLocalClient(t *testing.T) {
	c, s, _ := fixture(t)
	runAll(c, s)
	cl := NewLocalClient(s.Handler())
	g, err := cl.BuildGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Families) == 0 {
		t.Fatal("in-process grid is empty")
	}
	builds, err := cl.AllBuilds()
	if err != nil || len(builds) == 0 {
		t.Fatalf("AllBuilds = %d builds, err %v", len(builds), err)
	}
}

func TestRenderHTML(t *testing.T) {
	c, s, cl := fixture(t)
	runAll(c, s)
	g, _ := cl.BuildGrid()
	var buf bytes.Buffer
	if err := g.RenderHTML(&buf); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{"<table>", "disk", "helios", "class=\"FAILURE\"", "class=\"SUCCESS\"", "Overall OK rate"} {
		if !strings.Contains(html, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
}

func TestRenderText(t *testing.T) {
	c, s, cl := fixture(t)
	runAll(c, s)
	g, _ := cl.BuildGrid()
	var buf bytes.Buffer
	g.RenderText(&buf)
	txt := buf.String()
	if !strings.Contains(txt, "KO") || !strings.Contains(txt, "OK") {
		t.Fatalf("text grid:\n%s", txt)
	}
	if !strings.Contains(txt, "overall OK rate") {
		t.Fatal("missing rate line")
	}
}

func TestRenderTrend(t *testing.T) {
	var buf bytes.Buffer
	RenderTrend(&buf, []TrendPoint{
		{BucketStartSec: 0, Total: 10, Success: 9, Rate: 0.9},
		{BucketStartSec: 86400, Total: 10, Success: 10, Rate: 1.0},
	})
	out := buf.String()
	if !strings.Contains(out, "90.0% ok") || !strings.Contains(out, "day     1") {
		t.Fatalf("trend:\n%s", out)
	}
}

func TestClientErrors(t *testing.T) {
	cl := NewClient("http://127.0.0.1:1") // nothing listens
	if _, err := cl.Root(); err == nil {
		t.Fatal("no error from dead server")
	}
	_, _, live := fixture(t)
	if _, err := live.JobDetail("ghost"); err == nil {
		t.Fatal("ghost job accepted")
	}
	// A failing upstream is asked once: riding out an outage is the
	// caller's decision.
	requests := 0
	down := NewLocalClient(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		http.Error(w, "maintenance", http.StatusServiceUnavailable)
	}))
	if _, err := down.Root(); err == nil || !strings.Contains(err.Error(), "503") || requests != 1 {
		t.Fatalf("a 503 upstream: err %v after %d requests, want an error naming it after one", err, requests)
	}
}

func TestSplitJobName(t *testing.T) {
	if f, tg, ok := splitJobName("disk/sol"); !ok || f != "disk" || tg != "sol" {
		t.Fatal("split failed")
	}
	for _, bad := range []string{"plain", "/x", "x/"} {
		if _, _, ok := splitJobName(bad); ok {
			t.Fatalf("split accepted %q", bad)
		}
	}
}

func TestAllBuilds(t *testing.T) {
	c, s, cl := fixture(t)
	runAll(c, s)
	builds, err := cl.AllBuilds()
	if err != nil {
		t.Fatal(err)
	}
	// 3 simple + matrix parent + 4 cells = 8.
	if len(builds) != 8 {
		t.Fatalf("builds = %d", len(builds))
	}
}

func TestWorseResult(t *testing.T) {
	order := []string{"SUCCESS", "NOT_BUILT", "UNSTABLE", "ABORTED", "FAILURE"}
	for i, a := range order {
		for j, b := range order {
			if got := worseResult(a, b); got != (i > j) {
				t.Errorf("worseResult(%s, %s) = %v", a, b, got)
			}
		}
	}
	if worseResult("", "SUCCESS") || !worseResult("FAILURE", "") {
		t.Error("an unknown result must rank with SUCCESS")
	}
	if got := testing.AllocsPerRun(100, func() { worseResult("FAILURE", "UNSTABLE") }); got != 0 {
		t.Errorf("worseResult allocates %v times per call", got)
	}
}
