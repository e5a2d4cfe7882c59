package federation

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simclock"
)

// The two halves of a federated tick, apart: planning it under the
// federation lock, and stepping the micro-shards through it. g5kbench's
// campaign-fed times the whole tick end to end; these name the half a
// regression sits in. Four sites (10 micro-shards), two days into the
// campaign, serial stepping.

func benchFederation(b *testing.B) *Federation {
	fed := New(Config{
		Seed: 77,
		Spec: subSpec("luxembourg", "nantes", "lyon", "sophia"),
		Profile: func() *core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 10
			return &cfg
		}(),
	})
	fed.Start()
	fed.Advance(2 * simclock.Day)
	return fed
}

// BenchmarkPlanTick plans a tick of zero length: the same walk over grid
// events, sites and shards as any tick, and no clock moves, so it can be
// repeated without stepping anything.
func BenchmarkPlanTick(b *testing.B) {
	fed := benchFederation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fed.mu.Lock()
		plan := fed.planTickLocked(0)
		fed.mu.Unlock()
		if len(plan) != len(fed.shards) {
			b.Fatalf("plan covers %d of %d shards", len(plan), len(fed.shards))
		}
	}
}

// BenchmarkRunPlan steps every micro-shard through a tick of one simulated
// hour (the length g5kbench advances by); the
// plan is made with the timer stopped.
func BenchmarkRunPlan(b *testing.B) {
	fed := benchFederation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fed.mu.Lock()
		plan := fed.planTickLocked(simclock.Hour)
		fed.mu.Unlock()
		b.StartTimer()
		fed.runPlan(plan)
	}
}

// BenchmarkFederatedHour is one simulated hour of the default federation
// (32 micro-shards over the paper's grid, stepped serially) three days into
// its campaign: the unit of work g5kbench's campaign-fed times, without the
// harness around it.
func BenchmarkFederatedHour(b *testing.B) {
	fed := New(Config{Seed: 1, Workers: 1})
	fed.Start()
	fed.Advance(3 * simclock.Day)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		fed.Advance(simclock.Hour)
	}
}

// TestTickPlanAllocationsAreFlatInEventCount: planning a tick reads no grid
// event whose tickets are closed, so it allocates as much after 1 000
// healed events as after 10.
func TestTickPlanAllocationsAreFlatInEventCount(t *testing.T) {
	plan := func(fed *Federation) {
		fed.mu.Lock()
		fed.planTickLocked(0)
		fed.mu.Unlock()
	}
	perTick := func(events int) float64 {
		fed := New(Config{Seed: 1, Spec: subSpec("luxembourg", "nantes")})
		for range events {
			if _, err := fed.InjectGrid(faults.WANPartition, []string{"nantes"}, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		plan(fed) // files every event's tickets
		for id := 1; id <= events; id++ {
			if _, err := fed.HealGrid(id); err != nil {
				t.Fatal(err)
			}
		}
		plan(fed) // and closes them
		if fed.open != events {
			t.Fatalf("%d of %d healed events closed", fed.open, events)
		}
		return testing.AllocsPerRun(100, func() { plan(fed) })
	}
	if few, many := perTick(10), perTick(1000); few != many {
		t.Errorf("a tick's plan allocates %v times after 10 healed grid events, %v after 1 000", few, many)
	}
}
