package core

// End-to-end integration tests: the full framework plus the status page
// consuming the CI REST API over real HTTP — the complete loop of the
// paper, from silent fault to red cell on the web page to green again.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/status"
)

func TestEndToEndStatusPageShowsFaultAndRecovery(t *testing.T) {
	cfg := quietConfig(21)
	cfg.OperatorMinAge = simclock.Day
	f := New(cfg)
	f.Start()

	ts := httptest.NewServer(f.CI.Handler())
	defer ts.Close()
	client := status.NewClient(ts.URL)

	// Break suno's disks silently, run half a day of testing.
	f.Faults.InjectNode(faults.DiskCacheOff, "suno-5.sophia")
	f.RunFor(18 * simclock.Hour)

	grid, err := client.BuildGrid()
	if err != nil {
		t.Fatal(err)
	}
	if st := grid.Cells["refapi"]["suno"]; st.Result != "FAILURE" {
		t.Fatalf("refapi/suno = %q, want FAILURE", st.Result)
	}
	// Transposed view has the row too.
	rep := grid.ReportFor("suno")
	failures := 0
	for _, row := range rep.Rows {
		if row.Status.Result == "FAILURE" {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("per-target report shows no failure")
	}

	// HTML page renders the red cell.
	var buf bytes.Buffer
	if err := grid.RenderHTML(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `class="FAILURE"`) {
		t.Fatal("HTML page has no failure cell")
	}

	// Operators fix it; the next daily wave turns the cell green.
	f.RunFor(3 * simclock.Day)
	grid, _ = client.BuildGrid()
	if st := grid.Cells["refapi"]["suno"]; st.Result != "SUCCESS" {
		t.Fatalf("refapi/suno after fix = %q, want SUCCESS", st.Result)
	}
	if f.Faults.ActiveCount() != 0 {
		t.Fatalf("faults still active: %d", f.Faults.ActiveCount())
	}
}

func TestEndToEndTrendFromAPI(t *testing.T) {
	cfg := quietConfig(22)
	f := New(cfg)
	f.Start()
	f.RunFor(3 * simclock.Day)

	ts := httptest.NewServer(f.CI.Handler())
	defer ts.Close()
	builds, err := status.NewClient(ts.URL).AllBuilds()
	if err != nil {
		t.Fatal(err)
	}
	pts := status.Trend(builds, float64(simclock.Day/simclock.Second))
	if len(pts) < 2 {
		t.Fatalf("trend points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Total > 0 && (p.Rate < 0.9 || p.Rate > 1.0) {
			t.Fatalf("healthy trend point out of range: %+v", p)
		}
	}
}

func TestEndToEndManualTriggerViaAPI(t *testing.T) {
	f := New(quietConfig(23))
	f.Start()
	f.CI.AddToken("s3cret", "lucas")
	f.RunFor(simclock.Hour)

	ts := httptest.NewServer(f.CI.Handler())
	defer ts.Close()

	// Users can manually trigger a job through the web interface
	// (slide 20: "access control for users to trigger jobs manually").
	resp, err := http.Post(ts.URL+"/job/refapi/sol/build?token=s3cret", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("trigger status = %d", resp.StatusCode)
	}
	f.RunFor(simclock.Hour)
	last := f.CI.LastCompleted("refapi/sol")
	if last == nil || last.Cause != "user lucas" {
		t.Fatalf("manual build = %+v", last)
	}
}
