package simclock

import (
	"runtime"
	"testing"
	"time"
)

// The steady state allocates nothing (see the package comment): these guards
// pin the three places that used to pay per operation. testing.AllocsPerRun
// counts every goroutine's allocations, which is what a guard over the
// driver and a simulation goroutine together needs.

// raceDetector is set by race_test.go: the detector's own bookkeeping is
// not what these guards count, so they skip under it and CI runs them in a
// plain step.
var raceDetector bool

func skipUnderRace(t *testing.T) {
	if raceDetector {
		t.Skip("allocation guards run without the race detector")
	}
}

// spinner starts a simulation goroutine that sleeps a minute at a time
// until stop is set, and runs it through its first sleeps.
func spinner(c *Clock) (stop *bool) {
	stop = new(bool)
	c.Go(func() {
		for !*stop {
			c.Sleep(Minute)
		}
	})
	c.RunFor(10 * Minute)
	return stop
}

func TestTickerFireAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	c := New(1)
	fires := 0
	tk := c.Every(Minute, func() { fires++ })
	c.RunFor(10 * Minute)
	if got := testing.AllocsPerRun(1000, func() { c.Step() }); got != 0 {
		t.Errorf("a ticker fire allocates %v times", got)
	}
	if fires != 10+1+1000 { // AllocsPerRun warms up with one extra call
		t.Errorf("ticker fired %d times", fires)
	}
	tk.Stop()
}

func TestSleepWakeAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	c := New(1)
	stop := spinner(c)
	before := c.Fired()
	if got := testing.AllocsPerRun(1000, func() { c.Step() }); got != 0 {
		t.Errorf("a Sleep and its wake-up on a warmed simulation goroutine allocate %v times", got)
	}
	if c.Fired()-before != 1001 {
		t.Errorf("%d wake-ups fired, want 1001", c.Fired()-before)
	}
	*stop = true
	c.Run()
	if c.Goroutines() != 0 {
		t.Errorf("%d simulation goroutines left", c.Goroutines())
	}
}

func TestGoAfterAFinishedGoroutineAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	c := New(1)
	ran := 0
	fn := func() { ran++ }
	c.Go(fn)
	c.RunFor(0)
	if got := testing.AllocsPerRun(1000, func() { c.Go(fn); c.RunFor(0) }); got != 0 {
		t.Errorf("Go after a finished goroutine allocates %v times", got)
	}
	if ran != 1+1+1000 || c.Goroutines() != 0 || len(c.parked.gs) != 1 {
		t.Errorf("ran %d functions, %d goroutines live, %d parked; want 1002, 0, 1", ran, c.Goroutines(), len(c.parked.gs))
	}
}

// TestCancelOfAFiredHandleNeverHitsALaterEvent is the handle rule: an event
// After returned is never recycled, so cancelling it long after it fired
// cannot cancel whatever the clock is using its free list for by then.
func TestCancelOfAFiredHandleNeverHitsALaterEvent(t *testing.T) {
	c := New(1)
	stop := spinner(c) // its wake-ups draw on the free list too
	var handles []*Event
	pooled, held := 0, 0
	for i := 0; i < 10000; i++ {
		handles = append(handles, c.After(Second, func() { held++ }))
		c.Schedule(Second, func(any) { pooled++ }, nil)
		c.RunFor(Second)
		handles[i].Cancel()
		handles[i/2].Cancel()
		for _, e := range c.free {
			if e == handles[i] || e.canceled.Load() {
				t.Fatalf("round %d: the free list holds a handed-out or canceled event", i)
			}
		}
	}
	if pooled != 10000 || held != 10000 {
		t.Fatalf("%d handle-less and %d held events fired, want 10000 each", pooled, held)
	}
	if len(c.free) > 2 {
		t.Errorf("free list grew to %d events for two in flight at a time", len(c.free))
	}
	*stop = true
	c.Run()
}

func BenchmarkTickerFire(b *testing.B) {
	c := New(1)
	c.Every(Minute, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

func BenchmarkSleepWake(b *testing.B) {
	c := New(1)
	stop := spinner(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
	b.StopTimer()
	*stop = true
	c.Run()
}

func BenchmarkGoReuse(b *testing.B) {
	c := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Go(fn)
		c.RunFor(0)
	}
}

// TestParkedGoroutinesExitWithTheirClock: goroutines parked for reuse hold
// no reference to their clock, so a dropped clock is collected — with every
// event and closure it holds — and its collection lets them return.
func TestParkedGoroutinesExitWithTheirClock(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		c := New(1)
		for i := 0; i < 8; i++ {
			c.Go(func() { c.Sleep(Minute) })
		}
		c.Run()
		if c.Goroutines() != 0 || len(c.parked.gs) != 8 {
			t.Fatalf("%d live, %d parked; want 0, 8", c.Goroutines(), len(c.parked.gs))
		}
	}()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines still there after their clock was dropped", runtime.NumGoroutine()-before)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}
