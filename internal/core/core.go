// Package core assembles the complete testbed testing framework of the
// paper: the simulated Grid'5000 substrate (testbed, Reference API, OAR,
// Kadeploy, KaVLAN, monitoring), the Jenkins-like CI server with its test
// jobs, the external scheduler, the status page data source, and the bug
// tracker — plus an *operations model* (ops.go) that reproduces the
// paper's evaluation: users load the testbed, faults arrive silently,
// tests catch them, bugs get filed and deduplicated, operators fix them,
// and the testbed's measured reliability climbs (slides 22–23).
package core

import (
	"fmt"

	"repro/internal/bugs"
	"repro/internal/checks"
	"repro/internal/ci"
	"repro/internal/faults"
	"repro/internal/kadeploy"
	"repro/internal/kavlan"
	"repro/internal/monitor"
	"repro/internal/oar"
	"repro/internal/refapi"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/suites"
	"repro/internal/testbed"
)

// Config parameterises a framework instance and its operations model.
type Config struct {
	Seed      int64
	Executors int
	Sched     sched.Config

	// Fault process: a backlog present at campaign start (the undiscovered
	// problems of a testbed that never tested itself) plus ongoing arrivals
	// with exponentially distributed inter-arrival times.
	InitialFaults     int
	FaultMeanInterval simclock.Time // 0 disables ongoing injection

	// Operator model: every OperatorInterval, operators fix up to
	// FixesPerPass open bugs that have been open at least OperatorMinAge.
	OperatorInterval simclock.Time
	OperatorMinAge   simclock.Time
	FixesPerPass     int

	// User workload: a job submitted every UserJobInterval on average,
	// occupying random nodes; WholeClusterFrac of them grab entire
	// clusters (the contention that motivates the external scheduler).
	UserJobInterval  simclock.Time // 0 disables user load
	UserMeanWalltime simclock.Time
	UserMaxNodes     int
	WholeClusterFrac float64

	// EnvMatrixPeriod triggers the 448-cell environments matrix job; failed
	// or unstable cells are retried via Matrix Reloaded up to
	// EnvMatrixRetries times.
	EnvMatrixPeriod  simclock.Time // 0 disables
	EnvMatrixRetries int

	// Rollout optionally delays activation of test families, reproducing
	// "tests still being added": family name → activation offset. Families
	// absent from the map activate immediately.
	Rollout map[string]simclock.Time

	// RetainBuildLogs keeps per-build logs on the CI server (and makes the
	// test suites render their log lines). Campaigns drop logs by default:
	// the operations model and every report read verdicts and bug
	// signatures, never log text, and a 10-week campaign otherwise formats
	// millions of lines just to throw them away.
	RetainBuildLogs bool

	// Spec optionally replaces the generated testbed's cluster
	// specification (nil = testbed.DefaultSpec, the paper-scale grid).
	// internal/federation carves per-cluster campaign micro-shards out of
	// one spec this way: each micro-shard is a complete Framework over a
	// single cluster, labeled with the site that owns it.
	Spec []testbed.ClusterSpec
}

// DefaultConfig returns the calibrated operations model used by the
// experiment harness.
func DefaultConfig() Config {
	return Config{
		Seed:              42,
		Executors:         16,
		Sched:             sched.DefaultConfig(),
		InitialFaults:     25,
		FaultMeanInterval: 10 * simclock.Hour,
		OperatorInterval:  6 * simclock.Hour,
		OperatorMinAge:    12 * simclock.Hour,
		FixesPerPass:      3,
		UserJobInterval:   10 * simclock.Minute,
		UserMeanWalltime:  4 * simclock.Hour,
		UserMaxNodes:      20,
		WholeClusterFrac:  0.08,
		EnvMatrixPeriod:   simclock.Week,
		EnvMatrixRetries:  2,
	}
}

// PaperCampaignConfig returns the operations profile calibrated to
// reproduce the paper's slide-23 trend: a testbed that never tested itself
// (large fault backlog) adopts the framework, operators keep up with a
// finite fix capacity, and new test families keep being added — success
// climbs from the mid-80s towards the low-90s.
func PaperCampaignConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.InitialFaults = 80
	cfg.FaultMeanInterval = 7 * simclock.Hour
	cfg.OperatorInterval = 12 * simclock.Hour
	cfg.OperatorMinAge = 2 * simclock.Day
	cfg.FixesPerPass = 4
	cfg.Rollout = map[string]simclock.Time{
		"disk":     2 * simclock.Week,
		"mpigraph": 3 * simclock.Week,
		"kwapi":    4 * simclock.Week,
		"console":  5 * simclock.Week,
		"kavlan":   6 * simclock.Week,
	}
	return cfg
}

// BugHuntConfig is the PaperCampaignConfig variant used for the slide-22
// bug-count experiment: operators with half the fix capacity, so the
// filed/fixed ratio lands near the paper's 118/84 after a few weeks.
func BugHuntConfig(seed int64) Config {
	cfg := PaperCampaignConfig(seed)
	cfg.FixesPerPass = 2
	return cfg
}

// Framework owns every subsystem.
type Framework struct {
	Cfg Config

	Clock    *simclock.Clock
	TB       *testbed.Testbed
	Ref      *refapi.Store
	Faults   *faults.Injector
	OAR      *oar.Server
	Deployer *kadeploy.Deployer
	VLAN     *kavlan.Manager
	Monitor  *monitor.Collector
	Checker  *checks.Checker
	CI       *ci.Server
	Sched    *sched.Scheduler
	Bugs     *bugs.Tracker

	Ctx   *suites.Context
	Tests []*suites.Test

	// weekly accumulates build verdicts per simulated week, indexed by
	// week number. Counters update incrementally in onBuildComplete;
	// WeeklyReport and Summary never rescan build history.
	weekly     []WeekCounts
	envRetries map[int]int // parent build number → retry generation
	started    bool

	userReqs   [][]oar.Request // per cluster, per node count: see startUserLoad
	abandon    func(job any)   // abandonQueued as a value, made once
	fixScratch []*bugs.Bug     // reused operator-pass candidate buffer
}

// WeekCounts accumulates build verdicts per simulated week.
type WeekCounts struct {
	Week     int
	Success  int
	Failure  int
	Unstable int
}

// Total returns the number of verdicts (success+failure).
func (w *WeekCounts) Total() int { return w.Success + w.Failure }

// Rate returns the success rate among verdicts, the paper's "% of tests
// successful" metric.
func (w *WeekCounts) Rate() float64 {
	if w.Total() == 0 {
		return 0
	}
	return float64(w.Success) / float64(w.Total())
}

// New builds and wires a framework. Nothing runs until Start.
func New(cfg Config) *Framework {
	if cfg.Executors <= 0 {
		cfg.Executors = 16
	}
	if cfg.EnvMatrixRetries < 0 {
		cfg.EnvMatrixRetries = 0
	}
	f := &Framework{
		Cfg:        cfg,
		Clock:      simclock.New(cfg.Seed),
		envRetries: map[int]int{},
	}
	if cfg.Spec != nil {
		f.TB = testbed.Generate(cfg.Spec)
	} else {
		f.TB = testbed.Default()
	}
	f.Ref = refapi.NewStore(f.TB, f.Clock.Now())
	f.Faults = faults.NewInjector(f.Clock, f.TB)
	f.OAR = oar.NewServer(f.Clock, f.TB)
	f.Deployer = kadeploy.NewDeployer(f.Clock, f.Faults)
	f.VLAN = kavlan.NewManager(f.Clock, f.TB, f.Faults)
	f.Monitor = monitor.NewCollector(f.Clock, f.TB, f.Faults)
	f.Checker = checks.NewChecker(f.Clock, f.TB, f.Ref)
	f.CI = ci.NewServer(f.Clock, ci.Options{
		NumExecutors:     cfg.Executors,
		DiscardBuildLogs: !cfg.RetainBuildLogs,
	})
	f.Bugs = bugs.NewTracker(f.Clock)
	f.Sched = sched.New(f.Clock, f.OAR, f.CI, cfg.Sched)
	f.abandon = f.abandonQueued

	f.Ctx = &suites.Context{
		Clock:    f.Clock,
		TB:       f.TB,
		Ref:      f.Ref,
		OAR:      f.OAR,
		Deployer: f.Deployer,
		VLAN:     f.VLAN,
		Monitor:  f.Monitor,
		Checker:  f.Checker,
		Faults:   f.Faults,
		Quiet:    !cfg.RetainBuildLogs,
	}
	f.Tests = suites.All(f.TB)

	// Observe every completed build: weekly stats, bug filing, node
	// quarantine, matrix retries.
	f.CI.OnComplete(f.onBuildComplete)
	return f
}

// setupJobs creates CI jobs and scheduler specs, honouring the rollout
// plan. Called from Start.
func (f *Framework) setupJobs() {
	for _, t := range f.Tests {
		t := t
		delay, delayed := f.Cfg.Rollout[t.Family]
		if !delayed {
			f.registerTest(t)
			continue
		}
		f.Clock.At(delay, func() { f.registerTest(t) })
	}
	// The environments matrix job.
	envJob := suites.EnvironmentsJob(f.Ctx)
	if err := f.CI.CreateJob(envJob); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
}

func (f *Framework) registerTest(t *suites.Test) {
	if err := f.CI.CreateJob(&ci.Job{
		Name:        t.Name,
		Description: fmt.Sprintf("%s family, %s", t.Family, t.Kind),
		Script:      t.Script(f.Ctx),
	}); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	if err := f.Sched.Register(&sched.Spec{
		Name:    t.Name,
		JobName: t.Name,
		Cluster: t.Cluster,
		Site:    t.Site,
		Kind:    t.Kind,
		Request: t.Request,
		Period:  t.Period,
	}); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
}

// AddExperiments registers user-donated experiments as regression tests
// (the paper's future-work extension, slide 23). Callable before or after
// Start; experiments are validated against the testbed.
func (f *Framework) AddExperiments(exps ...*suites.Experiment) error {
	tests, err := suites.RegressionTests(f.TB, exps)
	if err != nil {
		return err
	}
	for _, t := range tests {
		if f.started {
			f.registerTest(t)
		} else {
			f.Tests = append(f.Tests, t)
		}
	}
	return nil
}

// Start arms every process: CI jobs, the scheduler loop, fault arrivals,
// the operator loop, user workload and the environments matrix cron.
func (f *Framework) Start() {
	if f.started {
		return
	}
	f.started = true
	f.setupJobs()
	f.Sched.Start()
	f.startFaultProcess()
	f.startOperatorProcess()
	f.startUserLoad()
	f.startEnvMatrixCron()
}

// RunFor advances the simulation by d.
func (f *Framework) RunFor(d simclock.Time) { f.Clock.RunFor(d) }
