package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/ci"
	"repro/internal/simclock"
)

// fleetTestProfile is a scaled-down campaign profile so fleet tests stay
// fast under -race: no 448-cell matrix, lighter user load, quick operators.
func fleetTestProfile() *Config {
	cfg := DefaultConfig()
	cfg.Executors = 4
	cfg.InitialFaults = 6
	cfg.FaultMeanInterval = 4 * simclock.Hour
	cfg.OperatorInterval = 3 * simclock.Hour
	cfg.OperatorMinAge = 2 * simclock.Hour
	cfg.UserJobInterval = simclock.Hour
	cfg.EnvMatrixPeriod = 0
	return &cfg
}

// TestFleetDeterministicAcrossParallelism runs the same seed sweep serially
// and at 4-way parallelism: per-seed campaign outcomes must be identical —
// the whole point of one-simclock-per-campaign isolation.
func TestFleetDeterministicAcrossParallelism(t *testing.T) {
	fc := FleetConfig{
		Seeds:    SeedRange(7, 4),
		Duration: 2 * simclock.Day,
		Profile:  fleetTestProfile(),
	}
	fc.Parallel = 1
	serial := RunFleet(fc)
	fc.Parallel = 4
	parallel := RunFleet(fc)

	if len(serial.Campaigns) != 4 || len(parallel.Campaigns) != 4 {
		t.Fatalf("campaign counts: %d vs %d", len(serial.Campaigns), len(parallel.Campaigns))
	}
	for i := range serial.Campaigns {
		s, p := serial.Campaigns[i], parallel.Campaigns[i]
		if s.Seed != p.Seed {
			t.Fatalf("seed order diverged: %d vs %d", s.Seed, p.Seed)
		}
		if s.Summary != p.Summary {
			t.Errorf("seed %d: summary diverged:\n serial:   %+v\n parallel: %+v", s.Seed, s.Summary, p.Summary)
		}
		if !reflect.DeepEqual(s.Weekly, p.Weekly) {
			t.Errorf("seed %d: weekly trend diverged", s.Seed)
		}
	}
	if serial.BugsFiled.N != 4 || serial.BugsFiled.Mean <= 0 {
		t.Fatalf("bug aggregate looks empty: %+v", serial.BugsFiled)
	}
	if serial.BugsFiled.Min > serial.BugsFiled.Mean || serial.BugsFiled.Max < serial.BugsFiled.Mean {
		t.Fatalf("aggregate invariant violated: %+v", serial.BugsFiled)
	}
}

// TestFleetFirstWeekShape: a sweep of the paper's campaign profile starts
// where the paper's trend does — every seed reports a first week, and the
// mean first-week success rate sits in the paper's 85 % region, below the
// 92 % the trend climbs past.
func TestFleetFirstWeekShape(t *testing.T) {
	res := RunFleet(FleetConfig{Seeds: SeedRange(42, 4), Duration: simclock.Week})
	if fw := res.FirstWeek; fw.N != 4 || fw.Mean < 0.75 || fw.Mean > 0.92 {
		t.Fatalf("fleet trend shape off: first week %+v", fw)
	}
}

// TestFleetOverlappingSweeps drives two fleets concurrently with
// overlapping seed ranges — the shape a parameter study produces — and
// checks both complete and agree on the shared seeds. Run under -race this
// doubles as the fleet's data-race proof.
func TestFleetOverlappingSweeps(t *testing.T) {
	mk := func(base int64) FleetConfig {
		return FleetConfig{
			Seeds:    SeedRange(base, 3),
			Parallel: 3,
			Duration: 2 * simclock.Day,
			Profile:  fleetTestProfile(),
		}
	}
	var wg sync.WaitGroup
	var a, b *FleetResult
	wg.Add(2)
	go func() { defer wg.Done(); a = RunFleet(mk(20)) }() // seeds 20,21,22
	go func() { defer wg.Done(); b = RunFleet(mk(22)) }() // seeds 22,23,24
	wg.Wait()

	if len(a.Campaigns) != 3 || len(b.Campaigns) != 3 {
		t.Fatalf("campaigns: %d and %d", len(a.Campaigns), len(b.Campaigns))
	}
	// Seed 22 ran in both fleets, concurrently: outcomes must match.
	if a.Campaigns[2].Summary != b.Campaigns[0].Summary {
		t.Errorf("seed 22 diverged across overlapping fleets:\n %+v\n %+v",
			a.Campaigns[2].Summary, b.Campaigns[0].Summary)
	}
	for _, r := range []*FleetResult{a, b} {
		for i := range r.Campaigns {
			if r.Campaigns[i].Summary.Builds == 0 {
				t.Errorf("seed %d: no builds completed", r.Campaigns[i].Seed)
			}
		}
	}
}

// TestWeeklyCountersMatchRecount is the equivalence proof for the
// incremental weekly statistics: an independent recount (a second
// OnComplete listener applying the same classification) must agree with
// WeeklyReport after a long mixed campaign — faults, user load, matrix
// retries, operator fixes and all.
func TestWeeklyCountersMatchRecount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 99
	cfg.InitialFaults = 12
	f := New(cfg)

	recount := map[int]*WeekCounts{}
	f.CI.OnComplete(func(b *ci.Build) {
		if len(b.CellBuilds) > 0 || (b.Cell == nil && b.Job == "environments") {
			return // matrix parents are not counted; their cells are
		}
		week := int(b.EndedAt / simclock.Week)
		wc := recount[week]
		if wc == nil {
			wc = &WeekCounts{Week: week}
			recount[week] = wc
		}
		switch b.Result {
		case ci.Success:
			wc.Success++
		case ci.Failure, ci.Aborted:
			wc.Failure++
		case ci.Unstable:
			wc.Unstable++
		}
	})

	f.Start()
	f.RunFor(16 * simclock.Day)

	weekly := f.WeeklyReport()
	if len(weekly) < 3 {
		t.Fatalf("campaign too short: %d weeks", len(weekly))
	}
	total := 0
	for _, w := range weekly {
		rw := recount[w.Week]
		if rw == nil {
			t.Fatalf("week %d reported but not recounted", w.Week)
		}
		if w.Success != rw.Success || w.Failure != rw.Failure || w.Unstable != rw.Unstable {
			t.Errorf("week %d diverged: incremental %+v, recount %+v", w.Week, w, *rw)
		}
		total += w.Total()
	}
	if total == 0 {
		t.Fatal("no verdicts counted")
	}
	if len(recount) != len(weekly) {
		t.Errorf("week sets differ: recount has %d, report has %d", len(recount), len(weekly))
	}
}
