package federation

import (
	"testing"

	"repro/internal/core"
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
		Configure: func(site string, seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 10
			return cfg
		},
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
