package suites

// Regression experiments — the paper's future-work item (slide 23: "Adding
// real user experiments as regression tests?"), implemented as an opt-in
// extension. A user donates a canned experiment (environment, resources,
// workload, the result they measured when it worked); the framework replays
// it periodically and fails when the measured result drifts outside the
// recorded tolerance — exactly the "5 % performance change → wrong
// conclusions" scenario of slide 13, detected before the next user hits it.
//
// Regression tests are NOT part of the paper's 751 configurations; they are
// registered separately (see core.Config.Experiments).

import (
	"fmt"

	"repro/internal/kadeploy"
	"repro/internal/oar"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// Workload identifies the canned payload an experiment replays.
type Workload string

// The supported canned workloads.
const (
	// WorkloadDiskIO measures sequential disk read bandwidth (MB/s) and is
	// sensitive to firmware drift, cache settings and dying media.
	WorkloadDiskIO Workload = "disk-io"
	// WorkloadCPU measures the runtime variance of a CPU kernel (%) and is
	// sensitive to power-management settings (C-states).
	WorkloadCPU Workload = "cpu-kernel"
	// WorkloadMPI starts an MPI job over InfiniBand and is sensitive to the
	// OFED stack's health.
	WorkloadMPI Workload = "mpi-latency"
)

// Experiment is one user-donated regression experiment.
type Experiment struct {
	Name     string // unique, e.g. "smith-sc16-fig4"
	Owner    string
	Cluster  string
	Nodes    int
	Env      string // kadeploy environment name
	Workload Workload

	// Baseline is the result the owner measured when the experiment was
	// donated; Tolerance is the acceptable relative deviation (e.g. 0.1).
	Baseline  float64
	Tolerance float64

	Period simclock.Time // replay frequency (default: weekly)
}

// Validate checks an experiment registration against the testbed.
func (e *Experiment) Validate(tb *testbed.Testbed) error {
	if e.Name == "" {
		return fmt.Errorf("suites: experiment needs a name")
	}
	cl := tb.Cluster(e.Cluster)
	if cl == nil {
		return fmt.Errorf("suites: experiment %s targets unknown cluster %q", e.Name, e.Cluster)
	}
	if e.Nodes < 1 || e.Nodes > len(cl.Nodes) {
		return fmt.Errorf("suites: experiment %s wants %d nodes of %d-node %s",
			e.Name, e.Nodes, len(cl.Nodes), e.Cluster)
	}
	if _, err := kadeploy.EnvByName(e.Env); err != nil {
		return err
	}
	switch e.Workload {
	case WorkloadDiskIO, WorkloadCPU, WorkloadMPI:
	default:
		return fmt.Errorf("suites: experiment %s has unknown workload %q", e.Name, e.Workload)
	}
	if e.Workload == WorkloadMPI && !cl.Nodes[0].Inv.HasIB() {
		return fmt.Errorf("suites: experiment %s needs InfiniBand, %s has none", e.Name, e.Cluster)
	}
	if e.Tolerance <= 0 {
		return fmt.Errorf("suites: experiment %s needs a positive tolerance", e.Name)
	}
	return nil
}

func describeDisk(cl *testbed.Cluster) (testbed.Disk, error) {
	if len(cl.Nodes[0].Inv.Disks) == 0 {
		return testbed.Disk{}, fmt.Errorf("suites: cluster %s has no disks", cl.Name)
	}
	return cl.Nodes[0].Inv.Disks[0], nil
}

// RegressionTests wraps experiments into schedulable tests of the
// "regression" family. Invalid experiments are rejected.
func RegressionTests(tb *testbed.Testbed, experiments []*Experiment) ([]*Test, error) {
	var out []*Test
	for _, e := range experiments {
		if err := e.Validate(tb); err != nil {
			return nil, err
		}
		e := e
		period := e.Period
		if period <= 0 {
			period = simclock.Week
		}
		out = append(out, &Test{
			Family:  "regression",
			Name:    "regression/" + e.Name,
			Cluster: e.Cluster,
			Site:    tb.Cluster(e.Cluster).Site,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("cluster='%s'/nodes=%d,walltime=2", e.Cluster, e.Nodes),
			Period:  period,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				return runExperiment(ctx, e, job)
			},
		})
	}
	return out, nil
}

// runExperiment deploys the experiment's environment and replays its
// workload, comparing the measurement against the recorded baseline.
func runExperiment(ctx *Context, e *Experiment, job *oar.Job) Verdict {
	v := ctx.NewVerdict()
	env, _ := kadeploy.EnvByName(e.Env)
	nodes := make([]*testbed.Node, len(job.Nodes))
	for i, name := range job.Nodes {
		nodes[i] = ctx.TB.Node(name)
	}
	res, err := ctx.Deployer.Deploy(nodes, env)
	if err != nil {
		v.Duration = 2 * simclock.Minute
		v.fail(fmt.Sprintf("service-flaky:%s/kadeploy", nodes[0].Site),
			"experiment %s: deploy error: %v", e.Name, err)
		return v
	}
	v.Duration = res.Duration + 15*simclock.Minute // deploy + workload replay
	if res.Failed > 0 {
		for _, name := range res.FailedNodes() {
			v.fail("random-reboots:"+name, "experiment %s lost node %s", e.Name, name)
		}
		return v
	}

	for _, name := range job.Nodes {
		measured, sig := measure(ctx, e, name)
		dev := relativeDeviation(measured, e.Baseline)
		if dev > e.Tolerance {
			v.fail(sig, "experiment %s on %s: measured %.2f, baseline %.2f (%.0f%% off)",
				e.Name, name, measured, e.Baseline, 100*dev)
		} else {
			v.logf("experiment %s on %s: %.2f (baseline %.2f, within %.0f%%)",
				e.Name, name, measured, e.Baseline, 100*e.Tolerance)
		}
	}
	return v
}

// measure replays the workload on one node and returns the measurement and
// the bug signature to file if it regressed (diagnosed from the substrate,
// the way an operator would bisect a user report).
func measure(ctx *Context, e *Experiment, node string) (float64, string) {
	switch e.Workload {
	case WorkloadDiskIO:
		read := e.Baseline * ctx.Faults.DiskReadFactor(node)
		sig := "disk-firmware-drift:" + node
		if ctx.Faults.DiskReadFactor(node) < 0.4 {
			sig = "disk-dying:" + node
		}
		return read, sig
	case WorkloadCPU:
		return 100 * ctx.Faults.CPUJitter(node), "cstates-on:" + node
	case WorkloadMPI:
		if ctx.Faults.OFEDStartFails(node) {
			// Failure to start at all: report as infinite latency.
			return e.Baseline * 1000, "ofed-flaky:" + node
		}
		return e.Baseline, "ofed-flaky:" + node
	}
	return 0, "regression:" + e.Name
}

func relativeDeviation(measured, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	d := (measured - baseline) / baseline
	if d < 0 {
		d = -d
	}
	return d
}
