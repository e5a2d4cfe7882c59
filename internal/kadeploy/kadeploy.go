// Package kadeploy simulates Kadeploy, Grid'5000's scalable OS deployment
// system (slide 8: "Provides a Hardware-as-a-Service cloud infrastructure
// ... 200 nodes deployed in ~5 minutes").
//
// A deployment runs the real tool's three phases:
//
//  1. reboot every node into a minimal deployment environment,
//  2. broadcast the image and write it to disk (chain-pipelined, so the
//     per-node cost is roughly constant and a small log-depth term covers
//     the pipeline fill),
//  3. reboot into the deployed environment.
//
// Like Kadeploy3, the engine gives up on stragglers instead of delaying the
// whole deployment: nodes that fail or exceed the per-node timeout are
// reported failed and the deployment completes with the survivors. That
// design decision is what keeps 200-node deployments near the 5-minute mark
// even with a ~1 % per-node failure rate.
//
// Faults shape deployments: the kernel-race boot delay slows phases 1 and 3,
// a disabled disk write cache slows phase 2 (image writing), random-reboot
// hardware makes nodes fail outright, and a flaky kadeploy service at the
// site fails the whole deployment at submission.
package kadeploy

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// Environment is a deployable system image. Kameleon-generated images are
// identified by name; size drives the copy phase.
type Environment struct {
	Name   string
	SizeMB int
	Kernel string
}

// StdEnv is the standard environment installed on every node at boot.
var StdEnv = Environment{Name: "jessie-x64-std", SizeMB: 1500, Kernel: testbed.StdKernel}

// Registry is the set of supported environments: the "14 images" axis of
// the paper's matrix job (slide 15: 14 images × 32 clusters = 448
// configurations).
var Registry = []Environment{
	{Name: "jessie-x64-min", SizeMB: 450, Kernel: testbed.StdKernel},
	{Name: "jessie-x64-base", SizeMB: 700, Kernel: testbed.StdKernel},
	{Name: "jessie-x64-nfs", SizeMB: 800, Kernel: testbed.StdKernel},
	{Name: "jessie-x64-std", SizeMB: 1500, Kernel: testbed.StdKernel},
	{Name: "jessie-x64-big", SizeMB: 2400, Kernel: testbed.StdKernel},
	{Name: "wheezy-x64-min", SizeMB: 400, Kernel: "3.2.0-4-amd64"},
	{Name: "wheezy-x64-base", SizeMB: 650, Kernel: "3.2.0-4-amd64"},
	{Name: "wheezy-x64-nfs", SizeMB: 750, Kernel: "3.2.0-4-amd64"},
	{Name: "wheezy-x64-std", SizeMB: 1400, Kernel: "3.2.0-4-amd64"},
	{Name: "wheezy-x64-big", SizeMB: 2200, Kernel: "3.2.0-4-amd64"},
	{Name: "centos-7-min", SizeMB: 600, Kernel: "3.10.0-327.el7"},
	{Name: "ubuntu-1404-min", SizeMB: 550, Kernel: "3.13.0-83-generic"},
	{Name: "ubuntu-1604-min", SizeMB: 650, Kernel: "4.4.0-21-generic"},
	{Name: "fedora-23-min", SizeMB: 700, Kernel: "4.2.3-300.fc23"},
}

// EnvByName returns the registered environment, or an error for unknown
// names (a deregistered image is a bug the environments tests catch).
func EnvByName(name string) (Environment, error) {
	for _, e := range Registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Environment{}, fmt.Errorf("kadeploy: unknown environment %q", name)
}

// NodeResult is the outcome of a deployment on one node.
type NodeResult struct {
	Node     string
	OK       bool
	Reason   string // failure reason when !OK
	Duration simclock.Time
}

// Result is the outcome of one deployment.
type Result struct {
	Env      Environment
	PerNode  []NodeResult
	Duration simclock.Time // wall time of the whole deployment
	OK       int
	Failed   int
}

// FailedNodes returns the names of nodes that did not deploy.
func (r *Result) FailedNodes() []string {
	var out []string
	for _, nr := range r.PerNode {
		if !nr.OK {
			out = append(out, nr.Node)
		}
	}
	return out
}

// Config tunes the deployment timing model. Defaults reproduce the paper's
// 200-nodes-in-≈5-minutes figure.
type Config struct {
	// MinEnvBoot is the base duration of phase 1 (reboot to deployment env).
	MinEnvBoot simclock.Time
	// BootJitter is the ± spread applied to both reboots, per node.
	BootJitter simclock.Time
	// FinalBoot is the base duration of phase 3.
	FinalBoot simclock.Time
	// WriteMBps is the per-node image write throughput in phase 2.
	WriteMBps float64
	// PipelineStep is the pipeline-fill cost per chain-tree level.
	PipelineStep simclock.Time
	// NodeTimeout drops a straggler from the deployment.
	NodeTimeout simclock.Time
}

// DefaultConfig returns the calibrated timing model.
func DefaultConfig() Config {
	return Config{
		MinEnvBoot:   85 * simclock.Second,
		BootJitter:   20 * simclock.Second,
		FinalBoot:    100 * simclock.Second,
		WriteMBps:    55,
		PipelineStep: 4 * simclock.Second,
		NodeTimeout:  10 * simclock.Minute,
	}
}

// Deployer runs deployments against the testbed. Deployments are invoked
// from CI build scripts on executor goroutines; the simulation run token
// serializes the actual deployment work (RNG draws, node boot counters),
// and the mutex below guards the deployer's own counters so Count stays
// accurate when queried from outside goroutines.
type Deployer struct {
	clock  *simclock.Clock
	faults *faults.Injector
	cfg    Config

	mu          sync.Mutex
	deployments int

	res Result // the last deployment's outcome, see Deploy
}

// NewDeployer returns a deployer with the default timing model.
func NewDeployer(clock *simclock.Clock, inj *faults.Injector) *Deployer {
	return &Deployer{clock: clock, faults: inj, cfg: DefaultConfig()}
}

// NewDeployerWithConfig allows benchmarks to explore the timing model.
func NewDeployerWithConfig(clock *simclock.Clock, inj *faults.Injector, cfg Config) *Deployer {
	return &Deployer{clock: clock, faults: inj, cfg: cfg}
}

// Count returns how many deployments have been run.
func (d *Deployer) Count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deployments
}

// Deploy installs env on the given nodes and returns the per-node outcome.
// The returned Result.Duration is simulated wall time; the caller (a test
// script running inside an OAR job) accounts for it in its own timeline.
// Deploy fails as a whole when the site's kadeploy service is down.
//
// The Result, PerNode included, is the deployer's own and its next Deploy
// overwrites it: copy what must outlive that (a test script reads it before
// it parks, and deployments run one at a time under the run token).
func (d *Deployer) Deploy(nodes []*testbed.Node, env Environment) (*Result, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("kadeploy: empty node set")
	}
	site := nodes[0].Site
	for _, n := range nodes {
		if n.Site != site {
			return nil, fmt.Errorf("kadeploy: nodes span sites %s and %s", site, n.Site)
		}
	}
	d.mu.Lock()
	d.deployments++
	d.mu.Unlock()
	if d.faults != nil && d.faults.ServiceFails(site, "kadeploy") {
		return nil, fmt.Errorf("kadeploy: service error at %s (server unreachable)", site)
	}

	res := &d.res
	*res = Result{Env: env, PerNode: res.PerNode[:0]}
	// Pipeline fill: the image flows down a chain tree; depth grows with
	// log2(N) and each level costs PipelineStep.
	depth := simclock.Time(math.Ceil(math.Log2(float64(len(nodes)+1)))) * d.cfg.PipelineStep

	var slowest simclock.Time
	for _, n := range nodes {
		nr := d.deployOne(n, env, depth)
		res.PerNode = append(res.PerNode, nr)
		if nr.OK {
			res.OK++
			if nr.Duration > slowest {
				slowest = nr.Duration
			}
		} else {
			res.Failed++
		}
	}
	slices.SortFunc(res.PerNode, func(a, b NodeResult) int { return strings.Compare(a.Node, b.Node) })
	if res.OK == 0 {
		// Total failure still costs the timeout before kadeploy gives up.
		res.Duration = d.cfg.NodeTimeout
	} else {
		res.Duration = slowest
	}
	return res, nil
}

// retryDetect is the time kadeploy spends before declaring a node dead and
// retrying it (unreachable-after-reboot watchdog). It is short enough that
// a single retry keeps the node inside the deployment's ≈5-minute window.
const retryDetect = 90 * simclock.Second

func (d *Deployer) deployOne(n *testbed.Node, env Environment, pipelineFill simclock.Time) NodeResult {
	failProb := d.faults.RebootFailProb(n.Name)
	var wasted simclock.Time
	// Kadeploy3 retries a node that died during a reboot once before giving
	// up on it; that keeps the baseline fleet flakiness (~1 % per reboot)
	// from failing whole deployments.
	for attempt := 0; attempt < 2; attempt++ {
		if simclock.Bernoulli(d.clock.Rand(), failProb) || simclock.Bernoulli(d.clock.Rand(), failProb) {
			n.BootCount++ // it did start rebooting before dying
			wasted += retryDetect
			continue
		}
		bootDelay := d.faults.BootDelayFor(n.Name)
		p1 := simclock.Jitter(d.clock.Rand(), d.cfg.MinEnvBoot, d.cfg.BootJitter) + bootDelay
		writeFactor := d.faults.DiskWriteFactor(n.Name)
		writeSecs := float64(env.SizeMB) / (d.cfg.WriteMBps * writeFactor)
		p2 := pipelineFill + simclock.Time(writeSecs*float64(simclock.Second))
		p3 := simclock.Jitter(d.clock.Rand(), d.cfg.FinalBoot, d.cfg.BootJitter) + bootDelay

		total := wasted + p1 + p2 + p3
		n.BootCount += 2
		if total > d.cfg.NodeTimeout {
			return NodeResult{Node: n.Name, Reason: "deployment timeout (straggler dropped)", Duration: d.cfg.NodeTimeout}
		}
		return NodeResult{Node: n.Name, OK: true, Duration: total}
	}
	return NodeResult{Node: n.Name, Reason: "node did not come back after reboot (retried once)"}
}

// Reboot reboots one node (the multireboot test family). It returns the
// duration on success, or an error when the node fails to come back.
func (d *Deployer) Reboot(n *testbed.Node) (simclock.Time, error) {
	if simclock.Bernoulli(d.clock.Rand(), d.faults.RebootFailProb(n.Name)) {
		return 0, fmt.Errorf("kadeploy: %s did not come back after reboot", n.Name)
	}
	n.BootCount++
	dur := simclock.Jitter(d.clock.Rand(), d.cfg.FinalBoot, d.cfg.BootJitter) + d.faults.BootDelayFor(n.Name)
	return dur, nil
}
