package suites

import (
	"strings"
	"testing"

	"repro/internal/ci"
	"repro/internal/faults"
	"repro/internal/testbed"
)

func diskExperiment(cluster string) *Experiment {
	return &Experiment{
		Name:      "io-paper-fig3",
		Owner:     "alice",
		Cluster:   cluster,
		Nodes:     2,
		Env:       "jessie-x64-std",
		Workload:  WorkloadDiskIO,
		Baseline:  110, // 7200 rpm HDD expectation
		Tolerance: 0.10,
	}
}

func TestExperimentValidation(t *testing.T) {
	tb := testbed.Default()
	good := diskExperiment("suno")
	good.Baseline = expectedBaseline(tb, good)
	if err := good.Validate(tb); err != nil {
		t.Fatal(err)
	}
	bad := []*Experiment{
		{},
		{Name: "x", Cluster: "nimbus", Nodes: 1, Env: "jessie-x64-std", Workload: WorkloadDiskIO, Tolerance: 0.1},
		{Name: "x", Cluster: "suno", Nodes: 500, Env: "jessie-x64-std", Workload: WorkloadDiskIO, Tolerance: 0.1},
		{Name: "x", Cluster: "suno", Nodes: 1, Env: "win311", Workload: WorkloadDiskIO, Tolerance: 0.1},
		{Name: "x", Cluster: "suno", Nodes: 1, Env: "jessie-x64-std", Workload: "quantum", Tolerance: 0.1},
		{Name: "x", Cluster: "suno", Nodes: 1, Env: "jessie-x64-std", Workload: WorkloadMPI, Tolerance: 0.1}, // no IB on suno
		{Name: "x", Cluster: "suno", Nodes: 1, Env: "jessie-x64-std", Workload: WorkloadDiskIO, Tolerance: 0},
	}
	for i, e := range bad {
		if err := e.Validate(tb); err == nil {
			t.Errorf("bad experiment %d accepted", i)
		}
	}
	if _, err := RegressionTests(tb, bad[1:2]); err == nil {
		t.Error("RegressionTests accepted invalid experiment")
	}
}

func TestExpectedBaselines(t *testing.T) {
	tb := testbed.Default()
	if got := expectedBaseline(tb, diskExperiment("suno")); got != 140 {
		t.Errorf("suno (10k rpm) disk baseline = %v, want 140", got)
	}
	if got := expectedBaseline(tb, diskExperiment("paravance")); got != 430 {
		t.Errorf("paravance (SSD) disk baseline = %v, want 430", got)
	}
	cpu := &Experiment{Workload: WorkloadCPU}
	if got := expectedBaseline(tb, cpu); got != 1.0 {
		t.Errorf("cpu baseline = %v", got)
	}
}

func runRegression(t *testing.T, ctx *Context, e *Experiment) ci.Outcome {
	t.Helper()
	e.Baseline = expectedBaseline(ctx.TB, e)
	tests, err := RegressionTests(ctx.TB, []*Experiment{e})
	if err != nil {
		t.Fatal(err)
	}
	if tests[0].Family != "regression" {
		t.Fatalf("family = %q", tests[0].Family)
	}
	return runTest(ctx, tests[0])
}

func TestRegressionPassesOnHealthyTestbed(t *testing.T) {
	ctx := newContext(301)
	out := runRegression(t, ctx, diskExperiment("suno"))
	if out.Result != ci.Success {
		t.Fatalf("healthy replay failed: %v", out.Log)
	}
	if ctx.OAR.BusyNodes() != 0 {
		t.Fatal("experiment leaked nodes")
	}
}

func TestRegressionCatchesDiskDrift(t *testing.T) {
	ctx := newContext(302)
	// Drift the firmware of the first two suno nodes (the ones OAR picks).
	ctx.Faults.InjectNode(faults.DiskFirmwareDrift, "suno-1.sophia")
	ctx.Faults.InjectNode(faults.DiskFirmwareDrift, "suno-2.sophia")
	out := runRegression(t, ctx, diskExperiment("suno"))
	if out.Result != ci.Failure {
		t.Fatalf("28%% disk regression not caught: %v", out.Log)
	}
	if !strings.HasPrefix(out.BugSignatures[0], "disk-firmware-drift:suno-") {
		t.Fatalf("sigs = %v", out.BugSignatures)
	}
}

func TestRegressionCatchesCStates(t *testing.T) {
	ctx := newContext(303)
	for _, n := range ctx.TB.Cluster("taurus").Nodes {
		ctx.Faults.InjectNode(faults.CStatesOn, n.Name)
	}
	e := &Experiment{
		Name: "hpl-variance", Owner: "bob", Cluster: "taurus", Nodes: 1,
		Env: "jessie-x64-std", Workload: WorkloadCPU, Tolerance: 0.5,
	}
	out := runRegression(t, ctx, e)
	if out.Result != ci.Failure {
		t.Fatalf("jitter regression not caught: %v", out.Log)
	}
	if !strings.HasPrefix(out.BugSignatures[0], "cstates-on:taurus-") {
		t.Fatalf("sigs = %v", out.BugSignatures)
	}
}

func TestRegressionCatchesOFED(t *testing.T) {
	ctx := newContext(304)
	for _, n := range ctx.TB.Cluster("taurus").Nodes {
		ctx.Faults.InjectNode(faults.OFEDFlaky, n.Name)
	}
	e := &Experiment{
		Name: "ring-latency", Owner: "carol", Cluster: "taurus", Nodes: 4,
		Env: "jessie-x64-min", Workload: WorkloadMPI, Tolerance: 0.2,
	}
	// OFED failures are probabilistic (50 % per node per start): with 4
	// nodes a few replays are virtually certain to trip it.
	failed := false
	for i := 0; i < 6 && !failed; i++ {
		out := runRegression(t, ctx, e)
		failed = out.Result == ci.Failure
	}
	if !failed {
		t.Fatal("OFED regression never caught in 6 replays")
	}
}

func TestRelativeDeviation(t *testing.T) {
	if d := relativeDeviation(90, 100); d != 0.1 {
		t.Fatalf("dev = %v", d)
	}
	if d := relativeDeviation(110, 100); d < 0.0999 || d > 0.1001 {
		t.Fatalf("dev = %v", d)
	}
	if d := relativeDeviation(5, 0); d != 0 {
		t.Fatalf("zero baseline dev = %v", d)
	}
}

// expectedBaseline computes the healthy-testbed result of an experiment's
// workload — what the owner would have measured when donating it.
func expectedBaseline(tb *testbed.Testbed, e *Experiment) float64 {
	cl := tb.Cluster(e.Cluster)
	switch e.Workload {
	case WorkloadDiskIO:
		ref, err := describeDisk(cl)
		if err != nil {
			return 0
		}
		return expectedReadMBps(ref)
	case WorkloadCPU:
		return 1.0 // 1 % run-to-run variance on a well-configured node
	case WorkloadMPI:
		return 1.6 // µs small-message latency, flat model
	}
	return 0
}
