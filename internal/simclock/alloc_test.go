package simclock

import "testing"

// The steady state allocates nothing (see the package comment): these guards
// pin the places that used to pay per operation.

// raceDetector is set by race_test.go: the detector's own bookkeeping is
// not what these guards count, so they skip under it and CI runs them in a
// plain step.
var raceDetector bool

func skipUnderRace(t *testing.T) {
	if raceDetector {
		t.Skip("allocation guards run without the race detector")
	}
}

// chain keeps one handle-less event in flight, each fire scheduling the
// next a minute on, until stop is set.
func chain(c *Clock) (stop *bool) {
	stop = new(bool)
	var next func(any)
	next = func(any) {
		if !*stop {
			c.Schedule(Minute, next, nil)
		}
	}
	c.Schedule(Minute, next, nil)
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

// TestSleepWakeAllocatesNothing: a task that sleeps by scheduling its own
// continuation (the chain above) wakes on the event it just fired.
func TestSleepWakeAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	c := New(1)
	stop := chain(c)
	c.RunFor(10 * Minute)
	before := c.Fired()
	if got := testing.AllocsPerRun(1000, func() { c.Step() }); got != 0 {
		t.Errorf("a sleep and its wake-up on a warmed chain allocate %v times", got)
	}
	if c.Fired()-before != 1001 {
		t.Errorf("%d wake-ups fired, want 1001", c.Fired()-before)
	}
	*stop = true
	c.Run()
	if c.Goroutines() != 0 || len(c.free) != 1 {
		t.Errorf("%d goroutines, %d free events; want 0, 1", c.Goroutines(), len(c.free))
	}
}

// TestGoAfterAFinishedGoroutineAllocatesNothing: starting a task now, with
// Schedule(0, ...), after an earlier one finished reuses the finished one's
// event.
func TestGoAfterAFinishedGoroutineAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	c := New(1)
	ran := 0
	fn := func(any) { ran++ }
	c.Schedule(0, fn, nil)
	c.RunFor(0)
	if got := testing.AllocsPerRun(1000, func() { c.Schedule(0, fn, nil); c.RunFor(0) }); got != 0 {
		t.Errorf("starting a task after a finished one allocates %v times", got)
	}
	if ran != 1+1+1000 || c.Goroutines() != 0 || len(c.free) != 1 {
		t.Errorf("ran %d tasks, %d goroutines, %d free events; want 1002, 0, 1", ran, c.Goroutines(), len(c.free))
	}
}

// TestCancelOfAFiredHandleNeverHitsALaterEvent is the handle rule: an event
// After returned is never recycled, so cancelling it long after it fired
// cannot cancel whatever the clock is using its free list for by then.
func TestCancelOfAFiredHandleNeverHitsALaterEvent(t *testing.T) {
	c := New(1)
	stop := chain(c) // its events draw on the free list too
	var handles []*Event
	pooled, held := 0, 0
	for i := 0; i < 10000; i++ {
		handles = append(handles, c.After(Second, func() { held++ }))
		c.Schedule(Second, func(any) { pooled++ }, nil)
		c.RunFor(Second)
		handles[i].Cancel()
		handles[i/2].Cancel()
		for _, e := range c.free {
			if e == handles[i] || e.canceled {
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

// TestDelayedAddAndFireAllocateNothing: once a Delayed queue's ring has
// grown to its steady length, an Add and the fire of an older entry
// allocate nothing.
func TestDelayedAddAndFireAllocateNothing(t *testing.T) {
	skipUnderRace(t)
	c := New(1)
	fired := 0
	q := c.Delayed(Hour, func(any) { fired++ })
	arg := new(int)
	for range 100 {
		q.Add(arg)
		c.RunFor(Minute)
	}
	if got := testing.AllocsPerRun(1000, func() { q.Add(arg); c.RunFor(Minute) }); got != 0 {
		t.Errorf("an Add and a fire on a warmed queue allocate %v times", got)
	}
	// An entry fires in the minute its hour runs out: 59 stay pending.
	if fired != 100+1+1000-59 || q.n != 59 {
		t.Errorf("%d entries fired, %d pending; want 1042, 59", fired, q.n)
	}
}
