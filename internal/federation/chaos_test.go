package federation

import (
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simclock"
)

// chaosFed builds a small federation with a fast fault profile, suitable
// for disaster tests.
func chaosFed(workers int) *Federation {
	fed := New(Config{
		Seed:    99,
		Spec:    subSpec("luxembourg", "nantes", "lyon"),
		Workers: workers,
		Configure: func(site string, seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 6
			return cfg
		},
	})
	fed.Start()
	return fed
}

// clockDebt returns how far each site lags the federated clock, by site
// name. Debt is never negative: nothing steps a site ahead of the clock.
func clockDebt(t *testing.T, fed *Federation) map[string]simclock.Time {
	t.Helper()
	fed.mu.Lock()
	defer fed.mu.Unlock()
	debt := make(map[string]simclock.Time, len(fed.sites))
	for i, site := range fed.sites {
		if fed.behind[i] < 0 {
			t.Fatalf("site %s has negative clock debt %v", site, fed.behind[i])
		}
		debt[site] = fed.behind[i]
	}
	return debt
}

// assertNoClockDebt is the after-a-full-heal invariant: every site repaid
// everything it owed.
func assertNoClockDebt(t *testing.T, fed *Federation) {
	t.Helper()
	for site, d := range clockDebt(t, fed) {
		if d != 0 {
			t.Fatalf("site %s still owes %v of clock debt after every event healed", site, d)
		}
	}
}

func TestChaosOutageFreezesAndCatchesUp(t *testing.T) {
	fed := chaosFed(1)
	if err := fed.ScheduleChaos(faults.ScheduleEntry{
		Kind: faults.SiteOutage, Sites: []string{"lyon"}, At: simclock.Week, Duration: simclock.Week,
	}); err != nil {
		t.Fatalf("schedule: %v", err)
	}

	fed.Advance(simclock.Week)
	// The outage lands exactly at the new clock: active, lyon down.
	if fed.SiteAvailable("lyon") {
		t.Fatal("lyon should be down at 1w")
	}
	if !fed.SiteAvailable("nantes") {
		t.Fatal("nantes should be up")
	}
	if down, unreachable := fed.LostSites(); !reflect.DeepEqual(down, []string{"lyon"}) || unreachable != nil {
		t.Fatalf("LostSites = %v, %v", down, unreachable)
	}
	if !fed.Summary().Degraded {
		t.Fatal("federation should report degraded")
	}
	sum := fed.Summary()
	if !sum.Degraded || len(sum.DownSites) != 1 {
		t.Fatalf("summary not degraded: %+v", sum)
	}
	for _, s := range sum.Sites {
		if s.Site == "lyon" && !s.Down {
			t.Fatal("lyon SiteSummary should be marked Down")
		}
	}

	// The downed tick: lyon freezes at the barrier, the others step; the
	// heal lands exactly at 2w as the Advance returns.
	fed.Advance(simclock.Week)
	if got := fed.bySite["lyon"][0].F.Clock.Now(); got != simclock.Week {
		t.Fatalf("lyon clock = %v, want frozen at 1w", got)
	}
	if got := fed.bySite["nantes"][0].F.Clock.Now(); got != 2*simclock.Week {
		t.Fatalf("nantes clock = %v, want 2w", got)
	}
	if debt := clockDebt(t, fed); debt["lyon"] != simclock.Week || debt["nantes"] != 0 || debt["luxembourg"] != 0 {
		t.Fatalf("clock debt after the frozen tick = %v, want lyon alone owing 1w", debt)
	}

	// Healed at 2w: the next tick steps lyon with a catch-up tick (2w
	// total) and the lockstep resumes.
	fed.Advance(simclock.Week)
	if fed.Summary().Degraded {
		t.Fatal("federation should have healed at 2w")
	}
	for _, sh := range fed.Shards() {
		if got := sh.F.Clock.Now(); got != 3*simclock.Week {
			t.Fatalf("shard %s clock = %v, want back in lockstep at 3w", sh.Site, got)
		}
	}
	assertNoClockDebt(t, fed)
	sum = fed.Summary()
	if sum.Degraded || sum.DownSites != nil || sum.UnreachableSites != nil {
		t.Fatalf("healed summary still degraded: %+v", sum)
	}

	// The outage filed exactly one ticket per surviving site — on its
	// coordinator micro-shard (the site's first cluster), not once per
	// cluster — closed on heal; the downed site never heard of it.
	for _, site := range fed.Sites() {
		for i, sh := range fed.bySite[site] {
			b := sh.F.Bugs.BySignature("site-outage:lyon")
			if site == "lyon" || i > 0 {
				if b != nil {
					t.Fatalf("micro-shard %s/%s should not carry the outage ticket", sh.Site, sh.Cluster)
				}
				continue
			}
			if b == nil {
				t.Fatalf("coordinator %s/%s missing the outage ticket", sh.Site, sh.Cluster)
			}
			if b.State != bugs.Fixed {
				t.Fatalf("coordinator %s outage ticket state = %v, want fixed after heal", sh.Site, b.State)
			}
		}
	}
}

// TestChaosSiteFreezeIsAtomic is the micro-sharding chaos invariant: a
// site outage freezes every one of the site's micro-shards at the same
// barrier (none sneaks through a tick), and heal catch-up replays them
// back into lockstep deterministically — the same clocks and summaries
// whether the catch-up ran serially or work-stealing.
func TestChaosSiteFreezeIsAtomic(t *testing.T) {
	outcomes := make([]Summary, 0, 2)
	for _, workers := range []int{1, 4} {
		fed := chaosFed(workers)
		if err := fed.ScheduleChaos(faults.ScheduleEntry{
			Kind: faults.SiteOutage, Sites: []string{"lyon"}, At: simclock.Week, Duration: 2 * simclock.Week,
		}); err != nil {
			t.Fatalf("schedule: %v", err)
		}

		// Two downed ticks: every lyon micro-shard must freeze at exactly
		// 1w — atomically, as one site — while every other micro-shard
		// keeps stepping.
		fed.Advance(3 * simclock.Week)
		for _, sh := range fed.bySite["lyon"] {
			if got := sh.F.Clock.Now(); got != simclock.Week {
				t.Fatalf("workers=%d: lyon/%s clock = %v, want frozen at 1w with its site", workers, sh.Cluster, got)
			}
		}
		if debt := clockDebt(t, fed); debt["lyon"] != 2*simclock.Week {
			t.Fatalf("workers=%d: lyon owes %v after two frozen ticks, want 2w", workers, debt["lyon"])
		}
		for _, site := range []string{"luxembourg", "nantes"} {
			for _, sh := range fed.bySite[site] {
				if got := sh.F.Clock.Now(); got != 3*simclock.Week {
					t.Fatalf("workers=%d: %s/%s clock = %v, want 3w", workers, site, sh.Cluster, got)
				}
			}
		}

		// Heal lands at 3w; the next tick replays lyon's debt. All of the
		// site's micro-shards catch up in the same tick, back to lockstep.
		fed.Advance(simclock.Week)
		for _, sh := range fed.Shards() {
			if got := sh.F.Clock.Now(); got != 4*simclock.Week {
				t.Fatalf("workers=%d: %s/%s clock = %v, want lockstep at 4w", workers, sh.Site, sh.Cluster, got)
			}
		}
		assertNoClockDebt(t, fed)
		outcomes = append(outcomes, fed.Summary())
	}
	if !reflect.DeepEqual(outcomes[0], outcomes[1]) {
		t.Fatalf("heal catch-up diverged between serial and work-stealing replay:\nserial:   %+v\nparallel: %+v",
			outcomes[0], outcomes[1])
	}
}

func TestChaosPartitionReachability(t *testing.T) {
	fed := chaosFed(1)
	fed.Advance(simclock.Week)
	ev, err := fed.InjectGrid(faults.WANPartition, []string{"lyon"}, 0, 0)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	// Partitioned sites keep serving and stepping; only merges exclude them.
	if !fed.SiteAvailable("lyon") {
		t.Fatal("partitioned site should stay available")
	}
	if down, unreachable := fed.LostSites(); down != nil || !reflect.DeepEqual(unreachable, []string{"lyon"}) {
		t.Fatalf("LostSites = %v, %v", down, unreachable)
	}
	fed.Advance(simclock.Week)
	if got := fed.bySite["lyon"][0].F.Clock.Now(); got != 2*simclock.Week {
		t.Fatalf("partitioned shard clock = %v, want 2w (still stepping)", got)
	}
	sum := fed.Summary()
	if !sum.Degraded {
		t.Fatal("summary should be degraded under partition")
	}
	var lyonBuilds, mergedBuilds, sumBuilds int
	for _, s := range sum.Sites {
		sumBuilds += s.Summary.Builds
		if s.Site == "lyon" {
			lyonBuilds = s.Summary.Builds
			if !s.Unreachable || s.Down {
				t.Fatalf("lyon flags = %+v", s)
			}
		}
	}
	mergedBuilds = sum.Merged.Builds
	if mergedBuilds != sumBuilds-lyonBuilds {
		t.Fatalf("merged builds %d should exclude lyon's %d of %d", mergedBuilds, lyonBuilds, sumBuilds)
	}

	// Heal: the groups reconcile — the merge covers every site again.
	if _, err := fed.HealGrid(ev.ID); err != nil {
		t.Fatalf("heal: %v", err)
	}
	sum = fed.Summary()
	if sum.Degraded || sum.Merged.Builds != sumBuilds {
		t.Fatalf("post-heal merge = %d, want reconciled %d", sum.Merged.Builds, sumBuilds)
	}
}

func TestChaosRejectsUnknownSites(t *testing.T) {
	fed := chaosFed(1)
	if err := fed.ScheduleChaos(faults.ScheduleEntry{Kind: faults.SiteOutage, Sites: []string{"atlantis"}}); err == nil {
		t.Fatal("unknown site should be rejected")
	}
	if _, err := fed.InjectGrid(faults.SiteOutage, []string{"atlantis"}, 0, 0); err == nil {
		t.Fatal("unknown site should be rejected")
	}
	if _, err := fed.HealGrid(12345); err == nil {
		t.Fatal("healing a non-event should fail")
	}
}

// runChaosFederated simulates a disaster campaign — an outage, a rolling
// maintenance and a partition — at the given worker count.
func runChaosFederated(t *testing.T, workers int) (Summary, []core.WeekCounts) {
	t.Helper()
	fed := New(Config{
		Seed:    77,
		Spec:    subSpec("luxembourg", "nantes", "lyon", "sophia"),
		Workers: workers,
		Configure: func(site string, seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 10
			return cfg
		},
	})
	fed.Start()
	if err := fed.ScheduleChaos(
		faults.ScheduleEntry{Kind: faults.SiteOutage, Sites: []string{"lyon"}, At: simclock.Week, Duration: simclock.Week},
		faults.ScheduleEntry{Kind: faults.RollingMaintenance, Sites: []string{"nantes", "sophia"}, At: 2 * simclock.Week, Duration: simclock.Week},
		faults.ScheduleEntry{Kind: faults.WANPartition, Sites: []string{"luxembourg"}, At: simclock.Week, Duration: 2 * simclock.Week},
	); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	fed.Advance(5 * simclock.Week)
	for _, sh := range fed.Shards() {
		if got := sh.F.Clock.Now(); got != 5*simclock.Week {
			t.Fatalf("shard %s clock = %v, want 5w after every event healed", sh.Site, got)
		}
	}
	assertNoClockDebt(t, fed)
	return fed.Summary(), fed.WeeklyReport()
}

// TestChaosSerialParallelDeterminism is the disaster-mode extension of the
// federation's load-bearing property: with site-scale events injected,
// frozen barriers and catch-up ticks, serial and parallel advances must
// still be bit-identical. CI runs this under -race (make race).
func TestChaosSerialParallelDeterminism(t *testing.T) {
	serial, serialWeekly := runChaosFederated(t, 1)
	parallel, parallelWeekly := runChaosFederated(t, 4)

	for i := range serial.Sites {
		if serial.Sites[i] != parallel.Sites[i] {
			t.Fatalf("site %s diverged under chaos:\nserial:   %+v\nparallel: %+v",
				serial.Sites[i].Site, serial.Sites[i].Summary, parallel.Sites[i].Summary)
		}
	}
	if serial.Merged != parallel.Merged {
		t.Fatalf("merged summary diverged under chaos:\nserial:   %+v\nparallel: %+v", serial.Merged, parallel.Merged)
	}
	if !reflect.DeepEqual(serialWeekly, parallelWeekly) {
		t.Fatalf("weekly reports diverged under chaos")
	}
	if serial.Degraded {
		t.Fatal("every event should have healed by 5w")
	}
	if serial.Merged.Builds == 0 {
		t.Fatal("chaos campaign completed no builds")
	}
	// The disaster left its mark: grid tickets were filed on each
	// surviving site's coordinator shard.
	if serial.Merged.BugsFiled == 0 {
		t.Fatal("no bugs filed at all")
	}
}

// TestMergeWeeklyDegraded covers the degraded-merge path: reports of
// unequal length (a frozen shard stops reporting early) and missing
// reports (a partitioned shard drops out of the merge entirely).
func TestMergeWeeklyDegraded(t *testing.T) {
	full := []core.WeekCounts{
		{Week: 0, Success: 4, Failure: 1},
		{Week: 1, Success: 6},
		{Week: 2, Success: 5, Unstable: 2},
	}
	frozen := []core.WeekCounts{{Week: 0, Success: 3}}

	got := MergeWeekly(full, frozen)
	want := []core.WeekCounts{
		{Week: 0, Success: 7, Failure: 1},
		{Week: 1, Success: 6},
		{Week: 2, Success: 5, Unstable: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unequal-length merge = %+v, want %+v", got, want)
	}

	// A missing (nil) report merges as zero contribution, not a crash.
	if got := MergeWeekly(full, nil); !reflect.DeepEqual(got, full) {
		t.Fatalf("nil-report merge = %+v, want %+v", got, full)
	}
	if got := MergeWeekly(nil, nil); len(got) != 0 {
		t.Fatalf("all-nil merge = %+v, want empty", got)
	}

	// Sparse weeks (a shard dark in the middle) stay sparse in the merge.
	sparse := []core.WeekCounts{{Week: 0, Success: 1}, {Week: 3, Success: 2}}
	got = MergeWeekly(sparse)
	if len(got) != 2 || got[1].Week != 3 {
		t.Fatalf("sparse merge = %+v", got)
	}
}
