package sched

import (
	"testing"

	"repro/internal/ci"
	"repro/internal/oar"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// fixture wires a minimal CI job whose script submits an immediate OAR job
// (the paper's pattern) and releases it after a fixed test duration.
type fixture struct {
	clock *simclock.Clock
	tb    *testbed.Testbed
	oar   *oar.Server
	ci    *ci.Server
	sched *Scheduler
}

func newFixture(cfg Config) *fixture {
	f := &fixture{clock: simclock.New(77), tb: testbed.Default()}
	f.oar = oar.NewServer(f.clock, f.tb)
	f.ci = ci.NewServer(f.clock, ci.Options{NumExecutors: 4})
	f.sched = New(f.clock, f.oar, f.ci, cfg)
	return f
}

// addTestJob creates a CI job running an OAR-backed dummy test.
func (f *fixture) addTestJob(name, request string, testDur simclock.Time) {
	f.ci.CreateJob(&ci.Job{
		Name: name,
		Script: func(bc *ci.BuildContext) ci.Outcome {
			j, err := f.oar.Submit(request, oar.SubmitOptions{User: "jenkins", Immediate: true})
			if err != nil {
				return ci.Outcome{Result: ci.Failure, Duration: simclock.Minute}
			}
			if j.State != oar.Running {
				// Slide 17: cancelled OAR job → unstable build.
				return ci.Outcome{Result: ci.Unstable, Duration: simclock.Minute}
			}
			f.clock.After(testDur, func() { f.oar.Release(j.ID) })
			return ci.Outcome{Result: ci.Success, Duration: testDur}
		},
	})
}

func weekendStart(c *simclock.Clock) {
	// Epoch is Monday 00:00; jump to Saturday to dodge the peak-hour policy
	// in tests that don't exercise it.
	c.RunUntil(5 * simclock.Day)
}

func TestRegisterValidation(t *testing.T) {
	f := newFixture(DefaultConfig())
	ok := &Spec{Name: "a", JobName: "j", Cluster: "sol", Site: "sophia",
		Request: "cluster='sol'/nodes=1,walltime=1", Period: simclock.Day}
	if err := f.sched.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := f.sched.Register(ok); err == nil {
		t.Fatal("duplicate accepted")
	}
	bad := []*Spec{
		{Name: "", JobName: "j", Request: "nodes=1", Period: simclock.Day},
		{Name: "b", JobName: "", Request: "nodes=1", Period: simclock.Day},
		{Name: "c", JobName: "j", Request: "nodes=1", Period: 0},
		{Name: "d", JobName: "j", Request: "((", Period: simclock.Day},
	}
	for _, sp := range bad {
		if err := f.sched.Register(sp); err == nil {
			t.Fatalf("bad spec %+v accepted", sp)
		}
	}
	if got := f.sched.Stats(); len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("names = %v", got)
	}
}

func TestTriggersWhenResourcesFree(t *testing.T) {
	f := newFixture(DefaultConfig())
	weekendStart(f.clock)
	f.addTestJob("disk-sol", "cluster='sol'/nodes=ALL,walltime=2", 30*simclock.Minute)
	f.sched.Register(&Spec{Name: "disk/sol", JobName: "disk-sol", Cluster: "sol",
		Site: "sophia", Kind: HardwareCentric,
		Request: "cluster='sol'/nodes=ALL,walltime=2", Period: simclock.Day})
	f.sched.Poll()
	f.clock.RunFor(simclock.Hour)
	st := f.sched.Stats()[0]
	if st.Triggers != 1 || st.Runs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	counts := f.sched.DecisionCounts()
	if counts[ActionTriggered] != 1 {
		t.Fatalf("decisions = %v", counts)
	}
}

func TestBackoffOnBusyResources(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(cfg)
	weekendStart(f.clock)
	// Occupy the whole sol cluster with a long user job.
	f.oar.Submit("cluster='sol'/nodes=ALL,walltime=200", oar.SubmitOptions{User: "user"})
	f.addTestJob("disk-sol", "cluster='sol'/nodes=ALL,walltime=2", 30*simclock.Minute)
	f.sched.Register(&Spec{Name: "disk/sol", JobName: "disk-sol", Cluster: "sol",
		Site: "sophia", Kind: HardwareCentric,
		Request: "cluster='sol'/nodes=ALL,walltime=2", Period: simclock.Day})

	f.sched.Start()
	f.clock.RunFor(2 * simclock.Day)
	f.sched.Stop()

	var backoffs []simclock.Time
	for _, d := range f.sched.Decisions() {
		if d.Action == ActionDeferResources {
			backoffs = append(backoffs, d.Backoff)
		}
	}
	if len(backoffs) < 4 {
		t.Fatalf("only %d resource deferrals in 2 days", len(backoffs))
	}
	// Exponential: 30m, 1h, 2h, ... capped at 12h.
	if backoffs[0] != 30*simclock.Minute || backoffs[1] != simclock.Hour || backoffs[2] != 2*simclock.Hour {
		t.Fatalf("backoff sequence starts %v", backoffs[:3])
	}
	for i := 1; i < len(backoffs); i++ {
		if backoffs[i] < backoffs[i-1] {
			t.Fatalf("backoff shrank: %v", backoffs)
		}
		if backoffs[i] > cfg.BackoffMax {
			t.Fatalf("backoff above cap: %v", backoffs[i])
		}
	}
	if st := f.sched.Stats()[0]; st.Triggers != 0 {
		t.Fatalf("triggered despite busy cluster: %+v", st)
	}
}

func TestBackoffResetsAfterSuccessfulRun(t *testing.T) {
	f := newFixture(DefaultConfig())
	weekendStart(f.clock)
	user, _ := f.oar.Submit("cluster='sol'/nodes=ALL,walltime=3", oar.SubmitOptions{User: "user"})
	f.addTestJob("disk-sol", "cluster='sol'/nodes=ALL,walltime=2", 30*simclock.Minute)
	f.sched.Register(&Spec{Name: "disk/sol", JobName: "disk-sol", Cluster: "sol",
		Site: "sophia", Kind: HardwareCentric,
		Request: "cluster='sol'/nodes=ALL,walltime=2", Period: 100 * simclock.Day})
	f.sched.Start()
	f.clock.RunFor(simclock.Day)
	if user.State != oar.Terminated {
		t.Fatal("user job still holding cluster")
	}
	st := f.sched.Stats()[0]
	if st.Runs != 1 {
		t.Fatalf("test never ran: %+v", st)
	}
	if st.Backoff != 0 {
		t.Fatalf("backoff not reset: %v", st.Backoff)
	}
}

func TestPeakHoursPolicy(t *testing.T) {
	f := newFixture(DefaultConfig())
	// Monday 10:00 — peak.
	f.clock.RunUntil(10 * simclock.Hour)
	f.addTestJob("disk-sol", "cluster='sol'/nodes=ALL,walltime=2", 30*simclock.Minute)
	f.addTestJob("cmd-sol", "cluster='sol'/nodes=1,walltime=1", 10*simclock.Minute)
	f.sched.Register(&Spec{Name: "disk/sol", JobName: "disk-sol", Cluster: "sol",
		Site: "sophia", Kind: HardwareCentric,
		Request: "cluster='sol'/nodes=ALL,walltime=2", Period: simclock.Day})
	f.sched.Register(&Spec{Name: "cmdline/sol", JobName: "cmd-sol", Cluster: "sol",
		Site: "sophia", Kind: SoftwareCentric,
		Request: "cluster='sol'/nodes=1,walltime=1", Period: simclock.Day})
	f.sched.Poll()
	counts := f.sched.DecisionCounts()
	if counts[ActionDeferPeak] != 1 {
		t.Fatalf("hardware test not deferred at peak: %v", counts)
	}
	if counts[ActionTriggered] != 1 {
		t.Fatalf("software test blocked by peak policy: %v", counts)
	}
	// After hours (Monday 20:00) the hardware test goes through.
	f.clock.RunUntil(20 * simclock.Hour)
	f.sched.Poll()
	if f.sched.DecisionCounts()[ActionTriggered] != 2 {
		t.Fatalf("hardware test not triggered off-peak: %v", f.sched.DecisionCounts())
	}
}

func TestPeakPolicyDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AvoidPeak = false
	f := newFixture(cfg)
	f.clock.RunUntil(10 * simclock.Hour) // Monday 10:00
	f.addTestJob("disk-sol", "cluster='sol'/nodes=ALL,walltime=2", 30*simclock.Minute)
	f.sched.Register(&Spec{Name: "disk/sol", JobName: "disk-sol", Cluster: "sol",
		Site: "sophia", Kind: HardwareCentric,
		Request: "cluster='sol'/nodes=ALL,walltime=2", Period: simclock.Day})
	f.sched.Poll()
	if f.sched.DecisionCounts()[ActionTriggered] != 1 {
		t.Fatal("peak policy applied despite AvoidPeak=false")
	}
}

func TestSameSitePolicy(t *testing.T) {
	f := newFixture(DefaultConfig())
	weekendStart(f.clock)
	f.addTestJob("t1", "cluster='sol'/nodes=ALL,walltime=2", 2*simclock.Hour)
	f.addTestJob("t2", "cluster='helios'/nodes=ALL,walltime=2", 2*simclock.Hour)
	f.addTestJob("t3", "cluster='taurus'/nodes=ALL,walltime=2", 2*simclock.Hour)
	f.sched.Register(&Spec{Name: "a", JobName: "t1", Cluster: "sol", Site: "sophia",
		Kind: HardwareCentric, Request: "cluster='sol'/nodes=ALL,walltime=2", Period: simclock.Day})
	f.sched.Register(&Spec{Name: "b", JobName: "t2", Cluster: "helios", Site: "sophia",
		Kind: HardwareCentric, Request: "cluster='helios'/nodes=ALL,walltime=2", Period: simclock.Day})
	f.sched.Register(&Spec{Name: "c", JobName: "t3", Cluster: "taurus", Site: "lyon",
		Kind: HardwareCentric, Request: "cluster='taurus'/nodes=ALL,walltime=2", Period: simclock.Day})

	f.sched.Poll()
	f.clock.RunFor(simclock.Minute)
	counts := f.sched.DecisionCounts()
	// a (sophia) and c (lyon) trigger; b defers because sophia is busy.
	if counts[ActionTriggered] != 2 || counts[ActionDeferSiteBusy] != 1 {
		t.Fatalf("decisions = %v", counts)
	}
	// Once a finishes, b gets its turn.
	f.clock.RunFor(3 * simclock.Hour)
	f.sched.Poll()
	f.clock.RunFor(simclock.Minute)
	if f.sched.DecisionCounts()[ActionTriggered] != 3 {
		t.Fatalf("b never triggered: %v", f.sched.DecisionCounts())
	}
}

func TestUnstableBuildTriggersBackoff(t *testing.T) {
	f := newFixture(DefaultConfig())
	weekendStart(f.clock)
	// The CI job always reports Unstable (its OAR job lost the race).
	f.ci.CreateJob(&ci.Job{Name: "always-unstable", Script: func(bc *ci.BuildContext) ci.Outcome {
		return ci.Outcome{Result: ci.Unstable, Duration: simclock.Minute}
	}})
	f.sched.Register(&Spec{Name: "u", JobName: "always-unstable", Cluster: "sol",
		Site: "sophia", Kind: SoftwareCentric,
		Request: "cluster='sol'/nodes=1,walltime=1", Period: simclock.Day})
	f.sched.Start()
	f.clock.RunFor(simclock.Day)
	f.sched.Stop()
	st := f.sched.Stats()[0]
	if st.Unstables < 2 {
		t.Fatalf("unstables = %d, want several", st.Unstables)
	}
	if st.Backoff < simclock.Hour {
		t.Fatalf("backoff = %v after repeated unstables", st.Backoff)
	}
	// Far fewer triggers than the 144 polls of a day.
	if st.Triggers > 12 {
		t.Fatalf("triggers = %d, backoff not applied", st.Triggers)
	}
}

func TestNoDoubleTriggerWhileRunning(t *testing.T) {
	f := newFixture(DefaultConfig())
	weekendStart(f.clock)
	f.addTestJob("slow", "cluster='sol'/nodes=1,walltime=10", 8*simclock.Hour)
	f.sched.Register(&Spec{Name: "s", JobName: "slow", Cluster: "sol", Site: "sophia",
		Kind: SoftwareCentric, Request: "cluster='sol'/nodes=1,walltime=10", Period: simclock.Hour})
	f.sched.Start()
	f.clock.RunFor(6 * simclock.Hour)
	f.sched.Stop()
	if st := f.sched.Stats()[0]; st.Triggers != 1 {
		t.Fatalf("triggers = %d while first run still active", st.Triggers)
	}
}

func TestPeriodRespectedAfterRun(t *testing.T) {
	f := newFixture(DefaultConfig())
	weekendStart(f.clock)
	f.addTestJob("fast", "cluster='sol'/nodes=1,walltime=1", 10*simclock.Minute)
	f.sched.Register(&Spec{Name: "f", JobName: "fast", Cluster: "sol", Site: "sophia",
		Kind: SoftwareCentric, Request: "cluster='sol'/nodes=1,walltime=1", Period: 12 * simclock.Hour})
	f.sched.Start()
	f.clock.RunFor(36 * simclock.Hour) // spans weekend + Monday; software tests ignore peak
	f.sched.Stop()
	st := f.sched.Stats()[0]
	if st.Triggers < 2 || st.Triggers > 4 {
		t.Fatalf("triggers = %d over 36h with 12h period", st.Triggers)
	}
}

func TestKindString(t *testing.T) {
	if SoftwareCentric.String() != "software-centric" || HardwareCentric.String() != "hardware-centric" {
		t.Fatal("kind strings")
	}
}
