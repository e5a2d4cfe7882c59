package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/suites"
)

func TestAddExperimentsBeforeStart(t *testing.T) {
	f := New(quietConfig(31))
	err := f.AddExperiments(&suites.Experiment{
		Name: "alice-io", Owner: "alice", Cluster: "suno", Nodes: 2,
		Env: "jessie-x64-std", Workload: suites.WorkloadDiskIO,
		Baseline: 140, Tolerance: 0.1, Period: simclock.Day,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	found := false
	for _, st := range f.Sched.Stats() {
		if st.Name == "regression/alice-io" {
			found = true
		}
	}
	if !found {
		t.Fatal("regression spec not registered")
	}
	// It runs and passes on a healthy testbed.
	f.RunFor(simclock.Day)
	last := f.CI.LastCompleted("regression/alice-io")
	if last == nil {
		t.Fatal("regression test never ran")
	}
	if last.Result.String() != "SUCCESS" {
		t.Fatalf("healthy regression = %v", last.Result)
	}
}

func TestAddExperimentsAfterStartDetectsRegression(t *testing.T) {
	cfg := quietConfig(32)
	cfg.OperatorInterval = 0 // keep the bug open for inspection
	f := New(cfg)
	f.Start()
	f.RunFor(simclock.Hour)

	if err := f.AddExperiments(&suites.Experiment{
		Name: "bob-io", Owner: "bob", Cluster: "helios", Nodes: 1,
		Env: "jessie-x64-std", Workload: suites.WorkloadDiskIO,
		Baseline: 110, Tolerance: 0.1, Period: simclock.Day,
	}); err != nil {
		t.Fatal(err)
	}
	// Kill the disks of the whole cluster so whichever node the replay
	// lands on regresses.
	for _, n := range f.TB.Cluster("helios").Nodes {
		f.Faults.InjectNode(faults.DiskDying, n.Name)
	}
	f.RunFor(2 * simclock.Day)

	// The replay itself must have failed with a diagnosis. (The disk test
	// family catches the same fault independently, so the *bug* may be
	// credited to whichever family detected it first — that is the dedup
	// working as intended.)
	replayFailed := false
	for _, b := range f.CI.Builds("regression/bob-io") {
		if b.Result.String() == "FAILURE" && len(b.BugSignatures) > 0 {
			replayFailed = true
			if b.BugSignatures[0][:11] != "disk-dying:" {
				t.Fatalf("replay diagnosis = %v", b.BugSignatures)
			}
		}
	}
	if !replayFailed {
		t.Fatal("user experiment replay never regressed")
	}
	if f.Bugs.BySignature("disk-dying:helios-1.sophia") == nil &&
		f.Bugs.BySignature("disk-dying:helios-2.sophia") == nil {
		t.Fatal("no disk-dying bug filed at all")
	}
}

func TestAddExperimentsRejectsInvalid(t *testing.T) {
	f := New(quietConfig(33))
	if err := f.AddExperiments(&suites.Experiment{Name: "x"}); err == nil {
		t.Fatal("invalid experiment accepted")
	}
}
