// The repository's reproduction claim as plain tests: every quantitative
// claim of the paper this repository reproduces (E1–E10; each experiment's
// comment names its slide), the reproduction's two simulated-time scaling
// extensions (E11, E12) and the four ablations of its central design
// choices, each run at full scale on the deterministic simulator.
// TestReproduction holds every reproduced metric exactly to the table
// below. When a change is meant to move a number, paste the "reproduced"
// line of the failure over the experiment's row.
package repro_test

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/checks"
	"repro/internal/ci"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kadeploy"
	"repro/internal/monitor"
	"repro/internal/oar"
	"repro/internal/refapi"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/status"
	"repro/internal/suites"
	"repro/internal/testbed"
)

type metrics = map[string]float64

var experiments = []struct {
	name string
	run  func(testing.TB) metrics
	want metrics
}{
	{"E1_TestbedScale", e1TestbedScale, metrics{"clusters": 32, "cores": 8490, "nodes": 894, "sites": 8}},
	{"E2_NodeVerification", e2NodeVerification, metrics{"faults_injected": 40, "mismatches_found": 40, "nodes_verified": 894}},
	{"E3_Deploy", e3Deploy, metrics{"nodes_deployed": 199, "sim_minutes": 6.11188655755}},
	{"E4_MonitoringRate", e4MonitoringRate, metrics{"hz": 1}},
	{"E5_MatrixEnvironments", e5MatrixEnvironments, metrics{"configurations": 448, "green_cells": 447, "sim_hours": 2.1302476014269445}},
	{"E6_SchedulerPolicies", e6SchedulerPolicies, metrics{"defer_peak": 14, "defer_resources": 8, "defer_site": 3, "max_backoff_hours": 12, "triggered": 10, "unstable_builds": 0}},
	{"E7_TestCoverage", e7TestCoverage, metrics{"configurations": 751, "families": 16}},
	{"E8_BugCampaign", e8BugCampaign, metrics{"bugs_filed": 115, "bugs_fixed": 76, "bugs_open": 39}},
	{"E9_ReliabilityTrend", e9ReliabilityTrend, metrics{"final_weeks_pct": 95.27048619769872, "first_week_pct": 85.11560693641619, "weeks": 10}},
	{"E10_StatusAggregation", e10StatusAggregation, metrics{"grid_cells": 304, "ok_rate_pct": 98.02631578947368}},
	{"E11_ExecutorScaling", e11ExecutorScaling, metrics{"builds_per_simhour_x1": 2.038216560509554, "builds_per_simhour_x2": 4.0392706872370265, "builds_per_simhour_x4": 8.044692737430168, "builds_per_simhour_x8": 15.78082191780822, "speedup_x4": 3.9469273743016764, "speedup_x8": 7.742465753424658}},
	{"E12_SweepScaling", e12SweepScaling, metrics{"nodes_per_simhour_x1": 120, "nodes_per_simhour_x2": 240, "nodes_per_simhour_x4": 478.92857142857144, "nodes_per_simhour_x8": 957.8571428571429, "speedup_x4": 3.991071428571429, "speedup_x8": 7.982142857142858}},
	{"Ablation_PerNodeScheduling", ablationPerNodeScheduling, metrics{"per_node_days": 4.241666666666666, "whole_cluster_days": 38.05}},
	{"Ablation_Backoff", ablationBackoff, metrics{"expo_first_run_day": 5.166666666666667, "expo_probes": 15, "fixed_first_run_day": 5.041666666666667, "fixed_probes": 241}},
	{"Ablation_MatrixRetry", ablationMatrixRetry, metrics{"full_rerun_cells": 2240, "reloaded_cells": 557}},
	{"Ablation_CancelPolicy", ablationCancelPolicy, metrics{"cron_hours_per_run": 9.838709677419354, "cron_runs": 6.2, "sched_hours_per_run": 0.5, "sched_runs": 5.2}},
}

func TestReproduction(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			if got := e.run(t); !reflect.DeepEqual(got, e.want) {
				t.Errorf("reproduced %#v\nrecorded   %#v", got, e.want)
			}
		})
	}
}

// E1: testbed scale (slide 6).
func e1TestbedScale(testing.TB) metrics {
	st := testbed.Default().Stats()
	return metrics{"sites": float64(st.Sites), "clusters": float64(st.Clusters),
		"nodes": float64(st.Nodes), "cores": float64(st.Cores)}
}

// E2: node verification catches description drift (slide 7). Only
// description-drift faults are injected: behavioural ones are out of
// g5k-checks' scope by design.
func e2NodeVerification(t testing.TB) metrics {
	const injected = 40
	clock := simclock.New(1)
	tb := testbed.Default()
	ref := refapi.NewStore(tb, clock.Now())
	inj := faults.NewInjector(clock, tb)
	checker := checks.NewChecker(clock, tb, ref)
	driftKinds := []faults.Kind{
		faults.DiskFirmwareDrift, faults.DiskCacheOff, faults.CStatesOn,
		faults.HyperThreadFlip, faults.TurboFlip, faults.RAMLoss, faults.WrongKernel,
	}
	for placed := 0; placed < injected; {
		k := driftKinds[clock.Rand().Intn(len(driftKinds))]
		n := simclock.Pick(clock.Rand(), tb.Nodes())
		if _, err := inj.InjectNode(k, n.Name); err == nil {
			placed++
		}
	}
	rep := &checks.Report{}
	detected, verified := 0, 0
	for _, n := range tb.Nodes() {
		if err := checker.CheckNodeInto(n.Name, rep); err != nil {
			t.Fatal(err)
		}
		verified++
		if !rep.OK {
			detected += len(rep.Mismatches)
		}
	}
	return metrics{"faults_injected": injected, "mismatches_found": float64(detected),
		"nodes_verified": float64(verified)}
}

// E3: Kadeploy, 200 nodes in ≈5 minutes (slide 8).
func e3Deploy(t testing.TB) metrics {
	clock := simclock.New(1)
	tb := testbed.Default()
	d := kadeploy.NewDeployer(clock, faults.NewInjector(clock, tb))
	var nodes []*testbed.Node
	for _, cl := range []string{"griffon", "graphene", "graoully", "grisou"} {
		nodes = append(nodes, tb.Cluster(cl).Nodes...)
	}
	res, err := d.Deploy(nodes[:200], kadeploy.StdEnv)
	if err != nil {
		t.Fatal(err)
	}
	return metrics{"sim_minutes": res.Duration.Duration().Minutes(), "nodes_deployed": float64(res.OK)}
}

// E4: monitoring at ≈1 Hz (slide 9): a minute of one metric is 61 samples
// on the inclusive grid.
func e4MonitoringRate(t testing.TB) metrics {
	clock := simclock.New(1)
	tb := testbed.Default()
	col := monitor.NewCollector(clock, tb)
	clock.RunUntil(2 * simclock.Minute)
	samples := 0
	for _, n := range tb.Cluster("taurus").Nodes {
		ss, err := col.Query(monitor.MetricPowerW, n.Name, 0, simclock.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if err := monitor.CheckRate(ss); err != nil {
			t.Fatal(err)
		}
		samples = len(ss)
	}
	return metrics{"hz": float64(samples-1) / 60}
}

// E5: environments matrix, 14 × 32 = 448 configurations (slide 15).
func e5MatrixEnvironments(t testing.TB) metrics {
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.InitialFaults = 0
	cfg.FaultMeanInterval = 0
	cfg.UserJobInterval = 0
	cfg.EnvMatrixPeriod = 0
	f := core.New(cfg)
	f.Start()
	parent, err := f.CI.Trigger("environments", "bench")
	if err != nil {
		t.Fatal(err)
	}
	f.RunFor(2 * simclock.Day)
	if !parent.Completed() {
		t.Fatal("matrix did not complete in 2 sim-days")
	}
	green := 0
	for _, num := range parent.CellBuilds {
		if f.CI.Build("environments", num).Result == ci.Success {
			green++
		}
	}
	return metrics{"configurations": float64(len(parent.CellBuilds)), "green_cells": float64(green),
		"sim_hours": (parent.EndedAt - parent.StartedAt).Duration().Hours()}
}

// E6: scheduler policies (slides 16–17): three hardware tests on sophia
// (the same-site policy) and one on lyon, while users hold most of sol for
// two days straight.
func e6SchedulerPolicies(testing.TB) metrics {
	f := newFixture(5)
	s := sched.New(f.clock, f.oar, f.ci, sched.DefaultConfig())
	for _, at := range [][2]string{{"sol", "sophia"}, {"helios", "sophia"}, {"uvb", "sophia"}, {"taurus", "lyon"}} {
		f.scheduledTest(s, sched.Spec{Name: "disk/" + at[0], Cluster: at[0], Site: at[1],
			Kind: sched.HardwareCentric, Request: "cluster='" + at[0] + "'/nodes=ALL,walltime=1",
			Period: simclock.Day}, new(jobRuns))
	}
	f.oar.Submit("cluster='sol'/nodes=16,walltime=48", oar.SubmitOptions{User: "alice"})
	s.Start()
	f.clock.RunFor(3 * simclock.Day)
	s.Stop()

	counts := s.DecisionCounts()
	maxBackoffH := 0.0
	for _, d := range s.Decisions() {
		maxBackoffH = max(maxBackoffH, d.Backoff.Duration().Hours())
	}
	unstables := 0
	for _, st := range s.Stats() {
		unstables += st.Unstables
	}
	return metrics{
		"triggered":       float64(counts[sched.ActionTriggered]),
		"defer_resources": float64(counts[sched.ActionDeferResources]),
		"defer_peak":      float64(counts[sched.ActionDeferPeak]),
		"defer_site":      float64(counts[sched.ActionDeferSiteBusy]),
		"unstable_builds": float64(unstables), "max_backoff_hours": maxBackoffH,
	}
}

// E7: test coverage, 751 configurations in 16 families (slide 21).
func e7TestCoverage(testing.TB) metrics {
	tb := testbed.Default()
	return metrics{"configurations": float64(suites.ConfigurationCount(tb)),
		"families": float64(len(suites.CountByFamily(tb)))}
}

// E8: bug campaign, "118 bugs filed (inc. 84 fixed)" (slide 22).
func e8BugCampaign(testing.TB) metrics {
	f := core.New(core.BugHuntConfig(42))
	f.Start()
	f.RunFor(3 * simclock.Week)
	st := f.Bugs.Stats()
	return metrics{"bugs_filed": float64(st.Filed), "bugs_fixed": float64(st.Fixed), "bugs_open": float64(st.Open)}
}

// E9: reliability trend, 85 % → 93 % (slide 23). The final figure averages
// the last three weeks to smooth noise.
func e9ReliabilityTrend(testing.TB) metrics {
	f := core.New(core.PaperCampaignConfig(42))
	f.Start()
	f.RunFor(10 * simclock.Week)
	weekly := f.WeeklyReport()
	sum := 0.0
	for _, wc := range weekly[len(weekly)-3:] {
		sum += wc.Rate()
	}
	return metrics{"first_week_pct": 100 * weekly[0].Rate(), "final_weeks_pct": 100 * (sum / 3),
		"weeks": float64(len(weekly))}
}

// E10: status page aggregation (slides 18–19), over the CI server's REST
// API as the paper's status page reads it.
func e10StatusAggregation(t testing.TB) metrics {
	cfg := core.DefaultConfig()
	cfg.InitialFaults = 10
	f := core.New(cfg)
	f.Start()
	f.RunFor(simclock.Week)
	ts := httptest.NewServer(f.CI.Handler())
	defer ts.Close()
	grid, err := status.NewClient(ts.URL).BuildGrid()
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, fam := range grid.Families {
		cells += len(grid.Cells[fam])
	}
	return metrics{"grid_cells": float64(cells), "ok_rate_pct": 100 * grid.OKRate()}
}

// scaling runs one campaign at 1, 2, 4 and 8 workers and reports each
// throughput per simulated hour and the 4- and 8-way speedups.
func scaling(unit string, perSimHour func(workers int) float64) metrics {
	m := metrics{}
	for _, w := range []int{1, 2, 4, 8} {
		m[fmt.Sprintf("%s_x%d", unit, w)] = perSimHour(w)
	}
	m["speedup_x4"] = m[unit+"_x4"] / m[unit+"_x1"]
	m["speedup_x8"] = m[unit+"_x8"] / m[unit+"_x1"]
	return m
}

// E11: executor pool scaling (this reproduction's extension). The paper's
// CI server runs builds on a bounded executor pool; a fixed backlog of 96
// independent configurations (20–40 minute builds) completes faster as the
// pool grows. Same-job builds serialize, so the parallelism comes entirely
// from the pool fanning distinct configurations out.
func e11ExecutorScaling(t testing.TB) metrics {
	const jobCount = 96
	return scaling("builds_per_simhour", func(executors int) float64 {
		clock := simclock.New(11)
		s := ci.NewServer(clock, ci.Options{NumExecutors: executors})
		for i := 0; i < jobCount; i++ {
			name := fmt.Sprintf("cfg-%03d", i)
			dur := (20 + simclock.Time(i%21)) * simclock.Minute
			if err := s.CreateJob(&ci.Job{Name: name, Script: func(*ci.BuildContext) ci.Outcome {
				return ci.Outcome{Result: ci.Success, Duration: dur}
			}}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Trigger(name, "campaign"); err != nil {
				t.Fatal(err)
			}
		}
		clock.Run()
		if s.TotalBuilds() != jobCount {
			t.Fatalf("completed %d of %d builds at %d executors", s.TotalBuilds(), jobCount, executors)
		}
		return jobCount / clock.Now().Duration().Hours()
	})
}

// E12: parallel verification sweep scaling (this reproduction's
// extension): a whole-testbed g5k-checks sweep sharded over chains of clock
// events, each node check occupying 30 simulated seconds of its worker —
// the management-network fan-out the real campaign uses.
func e12SweepScaling(t testing.TB) metrics {
	return scaling("nodes_per_simhour", func(workers int) float64 {
		clock := simclock.New(13)
		tb := testbed.Default()
		checker := checks.NewChecker(clock, tb, refapi.NewStore(tb, clock.Now()))
		var reports []checks.Report
		var err error
		checker.CheckTestbedParallel(workers, 30*simclock.Second, func(r []checks.Report, e error) { reports, err = r, e })
		clock.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != tb.TotalNodes() {
			t.Fatalf("sweep covered %d of %d nodes", len(reports), tb.TotalNodes())
		}
		for _, r := range reports {
			if !r.OK {
				t.Fatalf("healthy testbed failed verification: %s", r.Summary())
			}
		}
		return float64(len(reports)) / clock.Now().Duration().Hours()
	})
}

// contendedFixture is an OAR + CI pair over the default testbed, for E6 and
// the ablations: each of those compares the paper's mechanism against the
// obvious alternative and reports both sides.
type contendedFixture struct {
	clock *simclock.Clock
	oar   *oar.Server
	ci    *ci.Server
}

func newFixture(seed int64) *contendedFixture {
	f := &contendedFixture{clock: simclock.New(seed)}
	f.oar = oar.NewServer(f.clock, testbed.Default())
	f.ci = ci.NewServer(f.clock, ci.Options{NumExecutors: 8})
	return f
}

// staggeredLoad runs n independent user streams against the cluster, each
// repeatedly holding `nodes` nodes for ~5 h then sleeping ~3 h. Streams
// drift out of phase, so individual nodes are regularly free while the
// whole cluster almost never is — the situation of slide 16 ("waiting for
// all nodes of a given cluster to be available can take weeks").
func (f *contendedFixture) staggeredLoad(cluster string, n, nodes int, gapMean simclock.Time) {
	for i := 0; i < n; i++ {
		var arm func()
		arm = func() {
			f.oar.Submit(fmt.Sprintf("cluster='%s'/nodes=%d,walltime=5", cluster, nodes), oar.SubmitOptions{User: "user"})
			f.clock.After(5*simclock.Hour+simclock.Exponential(f.clock.Rand(), gapMean), arm)
		}
		f.clock.After(simclock.Time(i)*2*simclock.Hour, arm)
	}
}

// jobRuns counts the builds of a test job: ok ones got their nodes and ran
// for 30 minutes, unstable ones were cancelled after a minute.
type jobRuns struct{ ok, unstable int }

// scheduledTest installs a CI job running the paper's immediate-or-cancel
// submission protocol for the spec's request, and hands the spec to the
// external scheduler.
func (f *contendedFixture) scheduledTest(s *sched.Scheduler, spec sched.Spec, runs *jobRuns) {
	f.ci.CreateJob(&ci.Job{Name: spec.Name, Script: func(*ci.BuildContext) ci.Outcome {
		j, _ := f.oar.Submit(spec.Request, oar.SubmitOptions{User: "jenkins", Immediate: true})
		if j.State != oar.Running {
			runs.unstable++
			return ci.Outcome{Result: ci.Unstable, Duration: simclock.Minute}
		}
		// Release refuses a job that has already ended, which is the intent.
		f.clock.After(30*simclock.Minute, func() { _ = f.oar.Release(j.ID) })
		runs.ok++
		return ci.Outcome{Result: ci.Success, Duration: 30 * simclock.Minute}
	}})
	spec.JobName = spec.Name
	s.Register(&spec)
}

// runUntil starts the scheduler and steps the campaign an hour at a time
// until done reports true or the horizon passes; it returns the day reached.
func (f *contendedFixture) runUntil(s *sched.Scheduler, horizon simclock.Time, done func() bool) float64 {
	s.Start()
	defer s.Stop()
	for f.clock.Now() < horizon && !done() {
		f.clock.RunFor(simclock.Hour)
	}
	return f.clock.Now().Duration().Hours() / 24
}

// The paper's open question (slide 23): hardware tests need ALL nodes of a
// cluster at once; would per-node scheduling cover the cluster faster? The
// simulated days until every node of a contended 20-node cluster has been
// disk-tested once, both ways. Contention patterns are seed-sensitive, so
// both sides average a fixed panel of five seeds.
func ablationPerNodeScheduling(testing.TB) metrics {
	const cluster, clusterSize, seeds = "sol", 20, 5
	const horizon = 45 * simclock.Day
	whole := func(seed int64) float64 {
		f := newFixture(seed)
		f.staggeredLoad(cluster, 3, 7, 3*simclock.Hour)
		var runs jobRuns
		s := sched.New(f.clock, f.oar, f.ci, sched.DefaultConfig())
		f.scheduledTest(s, sched.Spec{Name: "disk", Cluster: cluster, Site: "sophia",
			Kind: sched.HardwareCentric, Request: "cluster='" + cluster + "'/nodes=ALL,walltime=1",
			Period: 10 * horizon}, &runs)
		return f.runUntil(s, horizon, func() bool { return runs.ok > 0 })
	}
	perNode := func(seed int64) float64 {
		f := newFixture(seed)
		f.staggeredLoad(cluster, 3, 7, 3*simclock.Hour)
		cfg := sched.DefaultConfig()
		cfg.MaxActivePerSite = 4           // per-node tests are small; allow a few at once
		cfg.BackoffMax = 2 * simclock.Hour // probing one node is cheap; stay responsive
		s := sched.New(f.clock, f.oar, f.ci, cfg)
		runs := make([]jobRuns, clusterSize)
		for i := range runs {
			node := fmt.Sprintf("%s-%d.sophia", cluster, i+1)
			f.scheduledTest(s, sched.Spec{Name: "disk-" + node, Cluster: cluster, Site: "sophia",
				Kind: sched.SoftwareCentric, Request: "host='" + node + "'/nodes=1,walltime=1",
				Period: 10 * horizon}, &runs[i])
		}
		return f.runUntil(s, horizon, func() bool {
			for _, r := range runs {
				if r.ok == 0 {
					return false
				}
			}
			return true
		})
	}
	var wholeDays, perNodeDays float64
	for seed := int64(1); seed <= seeds; seed++ {
		wholeDays += whole(seed)
		perNodeDays += perNode(seed)
	}
	return metrics{"whole_cluster_days": wholeDays / seeds, "per_node_days": perNodeDays / seeds}
}

// Exponential backoff against a fixed 30-minute retry while 28 of helios'
// 30 nodes stay pinned for five straight days: how many availability probes
// does each policy spend, and how much later does the exponential one run
// the test once the nodes free up?
func ablationBackoff(testing.TB) metrics {
	run := func(expo bool) (probes, firstRunDay float64) {
		f := newFixture(1)
		f.oar.Submit("cluster='helios'/nodes=28,walltime=120", oar.SubmitOptions{User: "user"})
		cfg := sched.DefaultConfig()
		cfg.AvoidPeak = false // isolate the backoff policy
		if !expo {
			cfg.BackoffMax = sched.BackoffBase
		}
		var runs jobRuns
		s := sched.New(f.clock, f.oar, f.ci, cfg)
		f.scheduledTest(s, sched.Spec{Name: "t", Cluster: "helios", Site: "sophia",
			Kind: sched.HardwareCentric, Request: "cluster='helios'/nodes=ALL,walltime=1",
			Period: 60 * simclock.Day}, &runs)
		firstRunDay = f.runUntil(s, 8*simclock.Day, func() bool { return runs.ok > 0 })
		counts := s.DecisionCounts()
		return float64(counts[sched.ActionDeferResources] + counts[sched.ActionTriggered]), firstRunDay
	}
	m := metrics{}
	m["expo_probes"], m["expo_first_run_day"] = run(true)
	m["fixed_probes"], m["fixed_first_run_day"] = run(false)
	return m
}

// Matrix Reloaded (retry only the failed cells) against naive full re-runs
// of a flaky 14 × 32 matrix until everything is green, counting cell
// executions — node-hours burnt on the testbed. Each cell fails with 20 %
// probability, independently, until it has succeeded once.
func ablationMatrixRetry(testing.TB) metrics {
	axis := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%02d", prefix, i)
		}
		return out
	}
	// run triggers the matrix, then up to ten more rounds of next until the
	// round is green, and returns the cells executed.
	run := func(next func(s *ci.Server, prev *ci.Build) *ci.Build) float64 {
		clock := simclock.New(1)
		s := ci.NewServer(clock, ci.Options{NumExecutors: 64})
		passed := map[string]bool{}
		s.CreateJob(&ci.Job{
			Name:      "m",
			Axes:      []ci.Axis{{Name: "image", Values: axis("img", 14)}, {Name: "cluster", Values: axis("cl", 32)}},
			Retention: 10000,
			Script: func(bc *ci.BuildContext) ci.Outcome {
				key := bc.Axis("image") + "/" + bc.Axis("cluster")
				if !passed[key] && clock.Rand().Float64() < 0.2 {
					return ci.Outcome{Result: ci.Failure, Duration: 5 * simclock.Minute}
				}
				passed[key] = true
				return ci.Outcome{Result: ci.Success, Duration: 5 * simclock.Minute}
			},
		})
		parent, _ := s.Trigger("m", "bench")
		clock.Run()
		cells := len(parent.CellBuilds)
		for round := 0; round < 10 && parent.Result != ci.Success; round++ {
			parent = next(s, parent)
			clock.Run()
			cells += len(parent.CellBuilds)
		}
		return float64(cells)
	}
	return metrics{
		"reloaded_cells": run(func(s *ci.Server, prev *ci.Build) *ci.Build {
			b, _ := s.RetryFailedCells("m", prev.Number, "retry")
			return b
		}),
		"full_rerun_cells": run(func(s *ci.Server, _ *ci.Build) *ci.Build {
			b, _ := s.Trigger("m", "bench")
			return b
		}),
	}
}

// The paper's whole protocol (external scheduler pre-check + immediate-or-
// cancel submission) against what it replaced: plain Jenkins time-based
// scheduling, where the build submits a normal OAR job and blocks on its
// executor until the job starts (slide 16: "it would use a Jenkins
// worker"). Executor-hours per completed test run over a contended week on
// uvb (20 nodes), a fixed panel of five seeds.
func ablationCancelPolicy(testing.TB) metrics {
	const cluster, seeds = "uvb", 5
	const request = "cluster='" + cluster + "'/nodes=ALL,walltime=1"
	const wait = 12 * simclock.Hour

	paper := func(seed int64) (execHours, runs float64) {
		f := newFixture(seed)
		f.staggeredLoad(cluster, 2, 7, 6*simclock.Hour)
		cfg := sched.DefaultConfig()
		cfg.AvoidPeak = false // isolate the cancellation protocol
		var r jobRuns
		s := sched.New(f.clock, f.oar, f.ci, cfg)
		f.scheduledTest(s, sched.Spec{Name: "t", Cluster: cluster, Site: "sophia",
			Kind: sched.HardwareCentric, Request: request, Period: simclock.Day}, &r)
		s.Start()
		f.clock.RunFor(simclock.Week)
		s.Stop()
		busy := simclock.Time(r.ok)*30*simclock.Minute + simclock.Time(r.unstable)*simclock.Minute
		return busy.Duration().Hours(), float64(r.ok)
	}
	cron := func(seed int64) (execHours, runs float64) {
		f := newFixture(seed)
		f.staggeredLoad(cluster, 2, 7, 6*simclock.Hour)
		var busy simclock.Time
		completed := 0
		f.ci.CreateJob(&ci.Job{Name: "t", Script: func(*ci.BuildContext) ci.Outcome {
			j, _ := f.oar.Submit(request, oar.SubmitOptions{User: "jenkins"})
			if j.State == oar.Running {
				f.clock.After(30*simclock.Minute, func() { _ = f.oar.Release(j.ID) })
				busy += 30 * simclock.Minute
				completed++
				return ci.Outcome{Result: ci.Success, Duration: 30 * simclock.Minute}
			}
			// The executor is pinned while the job waits in the OAR queue; a
			// job that got to run inside the window still counts as a test run.
			busy += wait
			f.clock.After(wait, func() {
				switch j.State {
				case oar.Waiting:
					_ = f.oar.Cancel(j.ID)
				case oar.Running:
					completed++
					_ = f.oar.Release(j.ID)
				case oar.Terminated:
					completed++
				}
			})
			return ci.Outcome{Result: ci.Aborted, Duration: wait}
		}})
		f.clock.Every(simclock.Day, func() { _, _ = f.ci.Trigger("t", "cron") })
		f.clock.RunFor(simclock.Week)
		return busy.Duration().Hours(), float64(completed)
	}

	var paperHours, paperRuns, cronHours, cronRuns float64
	for seed := int64(1); seed <= seeds; seed++ {
		h, r := paper(seed)
		paperHours, paperRuns = paperHours+h, paperRuns+r
		h, r = cron(seed)
		cronHours, cronRuns = cronHours+h, cronRuns+r
	}
	return metrics{"sched_hours_per_run": paperHours / paperRuns, "cron_hours_per_run": cronHours / cronRuns,
		"sched_runs": paperRuns / seeds, "cron_runs": cronRuns / seeds}
}
