package sched

import (
	"fmt"
	"testing"

	"repro/internal/simclock"
)

// raceDetector is set by race_test.go: the detector's own bookkeeping is
// not what allocation guards count, so they skip under it.
var raceDetector bool

// siteBusyFixture registers a spec whose build holds site sophia for a
// year, then n more specs on that site, and polls once: the holder
// triggers and the n specs defer for the busy site. Every later poll, ten
// simulated minutes on, defers the n specs again.
func siteBusyFixture(tb testing.TB, n int) *fixture {
	f := newFixture(DefaultConfig())
	weekendStart(f.clock)
	const req = "cluster='sol'/nodes=1,walltime=1"
	f.addTestJob("hold", req, 365*simclock.Day)
	register := func(name, job string) {
		if err := f.sched.Register(&Spec{Name: name, JobName: job, Cluster: "sol", Site: "sophia",
			Kind: SoftwareCentric, Request: req, Period: simclock.Day}); err != nil {
			tb.Fatal(err)
		}
	}
	register("hold", "hold")
	for i := range n {
		register(fmt.Sprintf("s%03d", i), "never-triggered")
	}
	f.sched.Poll()
	if got := f.sched.DecisionCounts(); got[ActionTriggered] != 1 || got[ActionDeferSiteBusy] != n {
		tb.Fatalf("first poll decided %v, want 1 trigger and %d site-busy deferrals", got, n)
	}
	return f
}

// TestPollAllocatesNothing: once the decision ring is full, a poll
// allocates nothing, whether no spec is due or every due spec defers.
func TestPollAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation guards run without the race detector")
	}
	const n = 8
	f := siteBusyFixture(t, n)
	deferring := func() {
		f.clock.RunFor(pollInterval)
		f.sched.Poll()
	}
	for f.sched.DecisionCounts()[ActionDeferSiteBusy] < decisionLog {
		deferring()
	}
	before := f.sched.DecisionCounts()[ActionDeferSiteBusy]
	if got := testing.AllocsPerRun(100, deferring); got != 0 {
		t.Errorf("a poll whose %d due specs all defer allocates %v times, want 0", n, got)
	}
	if got := f.sched.DecisionCounts()[ActionDeferSiteBusy] - before; got != 101*n {
		t.Fatalf("%d site-busy deferrals over 101 polls, want %d", got, 101*n)
	}

	// At the same instant nothing is due: the deferrals moved every spec
	// ten minutes on, and the holder is running.
	total := func() (sum int) {
		for _, c := range f.sched.DecisionCounts() {
			sum += c
		}
		return sum
	}
	decided := total()
	if got := testing.AllocsPerRun(100, f.sched.Poll); got != 0 {
		t.Errorf("a poll with no spec due allocates %v times, want 0", got)
	}
	if got := total() - decided; got != 0 {
		t.Fatalf("polls with no spec due made %d decisions, want 0", got)
	}
}

// BenchmarkPoll times one poll over the 225 specs of the paper's campaign,
// all on one site: "quiet" when none is due, "deferring" when every due
// spec defers for the busy site (which also advances the clock ten
// minutes).
func BenchmarkPoll(b *testing.B) {
	const n = 224 // plus the holder
	b.Run("quiet", func(b *testing.B) {
		f := siteBusyFixture(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.sched.Poll()
		}
	})
	b.Run("deferring", func(b *testing.B) {
		f := siteBusyFixture(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.clock.RunFor(pollInterval)
			f.sched.Poll()
		}
	})
}
