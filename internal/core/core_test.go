package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/oar"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// quietConfig disables background entropy so tests control everything.
func quietConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.InitialFaults = 0
	cfg.FaultMeanInterval = 0
	cfg.UserJobInterval = 0
	cfg.EnvMatrixPeriod = 0
	return cfg
}

func TestFrameworkWiring(t *testing.T) {
	f := New(quietConfig(1))
	f.Start()
	// 303 simple jobs, each with its spec, + environments matrix.
	if got := len(f.Sched.Stats()); got != 303 {
		t.Fatalf("specs = %d, want 303", got)
	}
	for _, st := range f.Sched.Stats() {
		if f.CI.JobByName(st.Name) == nil {
			t.Fatalf("spec %s has no CI job", st.Name)
		}
	}
	if f.CI.JobByName("environments") == nil {
		t.Fatal("no environments matrix job")
	}
	// Start is idempotent.
	f.Start()
	if got := len(f.Sched.Stats()); got != 303 {
		t.Fatalf("double Start duplicated specs: %d", got)
	}
}

// TestCampaignRunsNoGoroutines: builds, sweeps and background processes
// are clock events, so a simulated week of the default campaign starts no
// goroutine. It compares goroutine IDs, not counts, so a goroutine of an
// earlier test that exits during the week cannot hide one the week started
// or fail the test on its own.
func TestCampaignRunsNoGoroutines(t *testing.T) {
	before := goroutines()
	f := New(DefaultConfig())
	f.Start()
	f.RunFor(simclock.Week)
	for id, stack := range goroutines() {
		if _, ok := before[id]; !ok {
			t.Errorf("a campaign week started goroutine %s:\n%s", id, stack)
		}
	}
}

// goroutines maps the ID of every goroutine runtime.Stack reports to its
// stack.
func goroutines() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if rest, ok := strings.CutPrefix(g, "goroutine "); ok {
			id, _, _ := strings.Cut(rest, " ")
			out[id] = g
		}
	}
	return out
}

func TestHealthyWeekIsNearlyAllGreen(t *testing.T) {
	f := New(quietConfig(2))
	f.Start()
	f.RunFor(simclock.Week)
	weekly := f.WeeklyReport()
	if len(weekly) == 0 {
		t.Fatal("no builds after a week")
	}
	total, success := 0, 0
	for _, w := range weekly {
		total += w.Total()
		success += w.Success
	}
	if total < 500 {
		t.Fatalf("only %d verdicts in a week", total)
	}
	rate := float64(success) / float64(total)
	if rate < 0.97 {
		t.Fatalf("healthy success rate = %.3f", rate)
	}
	if st := f.Bugs.Stats(); st.Filed > 5 {
		t.Fatalf("healthy testbed filed %d bugs", st.Filed)
	}
}

func TestFaultIsDetectedFiledFixedAndRecovers(t *testing.T) {
	cfg := quietConfig(3)
	cfg.OperatorMinAge = simclock.Hour
	f := New(cfg)
	f.Start()
	// Let the first clean wave pass.
	f.RunFor(simclock.Day)
	flt, err := f.Faults.InjectNode(faults.CStatesOn, "taurus-3.lyon")
	if err != nil {
		t.Fatal(err)
	}
	f.RunFor(3 * simclock.Day)

	bug := f.Bugs.BySignature("cstates-on:taurus-3.lyon")
	if bug == nil {
		t.Fatal("fault never became a bug")
	}
	if bug.State.String() != "fixed" {
		t.Fatalf("bug not fixed after 3 days: %+v", bug)
	}
	if !flt.Fixed {
		t.Fatal("fixing the bug did not remove the fault")
	}
	// The description matches again.
	rep, _ := f.Checker.CheckNode("taurus-3.lyon")
	if !rep.OK {
		t.Fatalf("node still drifted after fix: %v", rep.Mismatches)
	}
}

func TestBugDedupAcrossRepeatedDetections(t *testing.T) {
	cfg := quietConfig(4)
	cfg.OperatorInterval = 0 // nobody fixes anything
	f := New(cfg)
	f.Start()
	f.Faults.InjectNode(faults.DiskCacheOff, "suno-4.sophia")
	f.RunFor(4 * simclock.Day) // several daily refapi runs
	bug := f.Bugs.BySignature("disk-cache-off:suno-4.sophia")
	if bug == nil {
		t.Fatal("bug not filed")
	}
	if bug.Occurrences < 3 {
		t.Fatalf("occurrences = %d, expected several daily detections", bug.Occurrences)
	}
	if st := f.Bugs.Stats(); st.Filed != 1 {
		t.Fatalf("filed = %d, dedup failed", st.Filed)
	}
}

func TestRandomRebootsQuarantinesNode(t *testing.T) {
	cfg := quietConfig(5)
	cfg.OperatorInterval = 0
	f := New(cfg)
	f.Start()
	f.Faults.InjectNode(faults.RandomReboots, "graphite-2.nancy")
	// multireboot (weekly) or stdenv (daily) will catch it eventually.
	f.RunFor(2 * simclock.Week)
	bug := f.Bugs.BySignature("random-reboots:graphite-2.nancy")
	if bug == nil {
		t.Skip("fault not exercised by node-sampling tests in this window (seed-dependent)")
	}
	if f.TB.Node("graphite-2.nancy").State != testbed.Suspected {
		t.Fatal("flaky node not quarantined")
	}
}

func TestOperatorHealsDegradedSite(t *testing.T) {
	cfg := quietConfig(6)
	cfg.OperatorMinAge = simclock.Hour
	f := New(cfg)
	f.Start()
	for _, n := range f.TB.Site("luxembourg").Nodes()[:6] { // 6/38 > 10%
		n.State = testbed.Suspected
	}
	f.RunFor(3 * simclock.Day)
	bug := f.Bugs.BySignature("oarstate-degraded:luxembourg")
	if bug == nil {
		t.Fatal("degraded site not reported")
	}
	alive := 0
	for _, n := range f.TB.Site("luxembourg").Nodes() {
		if n.State == testbed.Alive {
			alive++
		}
	}
	if alive != 38 {
		t.Fatalf("site not healed: %d/38 alive", alive)
	}
}

func TestEnvMatrixRunsAndRetries(t *testing.T) {
	cfg := quietConfig(7)
	cfg.EnvMatrixPeriod = simclock.Week
	cfg.EnvMatrixRetries = 2
	f := New(cfg)
	f.Start()
	// Keep one cluster fully busy so its 14 cells go unstable.
	f.Clock.After(30*simclock.Minute, func() {
		f.OAR.Submit("cluster='sol'/nodes=ALL,walltime=300", oar.SubmitOptions{User: "user"})
	})
	f.RunFor(3 * simclock.Day)
	builds := f.CI.Builds("environments")
	var parents, cells14 int
	for _, b := range builds {
		if b.Cell == nil {
			parents++
		} else if b.Parent > 1 && b.Cell["cluster"] == "sol" {
			cells14++
		}
	}
	// Initial run + 2 matrix-reloaded retries.
	if parents != 3 {
		t.Fatalf("environment matrix parents = %d, want 3", parents)
	}
	// The two retries re-ran only sol's 14 unstable cells each.
	if cells14 != 28 {
		t.Fatalf("retried sol cells = %d, want 28", cells14)
	}
}

func TestWeeklyReportOrdering(t *testing.T) {
	f := New(quietConfig(8))
	f.Start()
	f.RunFor(2*simclock.Week + simclock.Day)
	weekly := f.WeeklyReport()
	if len(weekly) < 2 {
		t.Fatalf("weeks = %d", len(weekly))
	}
	for i := 1; i < len(weekly); i++ {
		if weekly[i].Week <= weekly[i-1].Week {
			t.Fatal("weeks out of order")
		}
	}
}

func TestSummaryString(t *testing.T) {
	f := New(quietConfig(9))
	f.Start()
	f.RunFor(simclock.Week)
	s := f.Summary()
	if s.Builds == 0 {
		t.Fatal("no builds in summary")
	}
	if !strings.Contains(s.String(), "bugs filed") {
		t.Fatalf("summary = %q", s.String())
	}
}

func TestRolloutDelaysFamilies(t *testing.T) {
	cfg := quietConfig(10)
	cfg.Rollout = map[string]simclock.Time{"disk": 2 * simclock.Week}
	f := New(cfg)
	f.Start()
	f.RunFor(simclock.Day)
	for _, st := range f.Sched.Stats() {
		if strings.HasPrefix(st.Name, "disk/") {
			t.Fatal("disk specs registered before rollout time")
		}
	}
	f.RunFor(2 * simclock.Week)
	found := false
	for _, st := range f.Sched.Stats() {
		if strings.HasPrefix(st.Name, "disk/") {
			found = true
		}
	}
	if !found {
		t.Fatal("disk specs never registered")
	}
}

func TestUserLoadOccupiesTestbed(t *testing.T) {
	cfg := quietConfig(11)
	cfg.UserJobInterval = 10 * simclock.Minute
	cfg.UserMeanWalltime = 4 * simclock.Hour
	f := New(cfg)
	f.Start()
	f.RunFor(2 * simclock.Day)
	if f.OAR.BusyNodes() < 50 {
		t.Fatalf("user load too light: %d nodes busy", f.OAR.BusyNodes())
	}
}

func TestTitleForSignature(t *testing.T) {
	got := titleForSignature("disk-cache-off:sol-1.sophia")
	if got != "disk cache off: sol-1.sophia" {
		t.Fatalf("title = %q", got)
	}
}
