package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/oar"
	"repro/internal/simclock"
)

// raceDetector is set by race_test.go; allocation guards skip under it.
var raceDetector bool

// userLoadOnly is a framework with the user load's requests built and no
// other process armed: arrivals are ten years apart on average (the guard
// below counts submissions, so one falling into its four weeks would show),
// and what the clock runs is what a test submits — abandon timers and
// walltime expiries.
func userLoadOnly(tb testing.TB) *Framework {
	cfg := PaperCampaignConfig(1)
	cfg.UserJobInterval = 520 * simclock.Week
	f := New(cfg)
	f.startUserLoad()
	return f
}

// TestUserRequestsEqualTheirParse is the differential test behind
// string-free submissions: every (cluster, node count, walltime) the user
// load can draw, built by oar.ClusterRequest once and copied per draw, is
// the request the parser makes of the string the load used to format.
func TestUserRequestsEqualTheirParse(t *testing.T) {
	f := userLoadOnly(t)
	clusters := f.TB.Clusters()
	if len(f.userReqs) != len(clusters) {
		t.Fatalf("%d request families for %d clusters", len(f.userReqs), len(clusters))
	}
	maxHours := int(20*f.Cfg.UserMeanWalltime/simclock.Hour) + 1 // simclock.Exponential clamps at 20 means
	checked := 0
	for i, cl := range clusters {
		if want := min(f.Cfg.UserMaxNodes, len(cl.Nodes)) + 1; len(f.userReqs[i]) != want {
			t.Fatalf("%s: %d requests, want %d", cl.Name, len(f.userReqs[i]), want)
		}
		for n, req := range f.userReqs[i] {
			nodes := fmt.Sprint(n)
			if n == 0 {
				nodes = "ALL"
			}
			for h := 1; h <= maxHours; h++ {
				req.Walltime = simclock.Time(h) * simclock.Hour
				text := fmt.Sprintf("cluster='%s'/nodes=%s,walltime=%d:00:00", cl.Name, nodes, h)
				parsed, err := oar.ParseRequest(text)
				if err != nil {
					t.Fatalf("%s: %v", text, err)
				}
				if !reflect.DeepEqual(req, parsed) || req.String() != parsed.String() {
					t.Fatalf("%s: built %#v, parsed %#v", text, req, parsed)
				}
				checked++
			}
		}
	}
	t.Logf("%d (cluster, nodes, walltime) draws checked", checked)
}

// TestUserSubmissionAllocatesTheJobAndItsNodes: a user submission — draw,
// submit, abandon timer, and later its start, walltime expiry and the
// scheduling passes it sets off — allocates at most the oar.Job and the
// slice of node names it is given.
func TestUserSubmissionAllocatesTheJobAndItsNodes(t *testing.T) {
	if raceDetector {
		t.Skip("allocation guards run without the race detector")
	}
	f := userLoadOnly(t)
	arrive := func() {
		f.submitUserJob()
		f.RunFor(10 * simclock.Minute)
	}
	for i := 0; i < 2000; i++ {
		arrive() // two simulated weeks: queues, free lists and tables reach their sizes
	}
	if got := testing.AllocsPerRun(2000, arrive); got > 2 {
		t.Errorf("a user submission allocates %v times; want the Job and its node slice", got)
	}
	submitted, started, _ := f.OAR.Stats()
	if submitted != 4001 || started < submitted/2 {
		t.Fatalf("%d submitted, %d started", submitted, started)
	}
}

// BenchmarkUserSubmit is one arrival of the user load and the ten simulated
// minutes after it, in the steady state of a testbed that runs nothing else.
func BenchmarkUserSubmit(b *testing.B) {
	f := userLoadOnly(b)
	for i := 0; i < 2000; i++ {
		f.submitUserJob()
		f.RunFor(10 * simclock.Minute)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.submitUserJob()
		f.RunFor(10 * simclock.Minute)
	}
}
