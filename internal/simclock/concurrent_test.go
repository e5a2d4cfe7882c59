package simclock

import (
	"sync"
	"testing"
)

func TestGoRunsDuringAdvance(t *testing.T) {
	c := New(1)
	ran := false
	c.Go(func() { ran = true })
	if ran {
		t.Fatal("goroutine ran before the driver advanced")
	}
	c.RunFor(0)
	if !ran {
		t.Fatal("goroutine did not run")
	}
	if c.Goroutines() != 0 {
		t.Fatalf("goroutines = %d after exit", c.Goroutines())
	}
}

func TestWaitUntilBlocksForSimTime(t *testing.T) {
	c := New(2)
	var trace []Time
	c.Go(func() {
		trace = append(trace, c.Now())
		c.WaitUntil(10 * Minute)
		trace = append(trace, c.Now())
		c.Sleep(5 * Minute)
		trace = append(trace, c.Now())
	})
	c.Run()
	want := []Time{0, 10 * Minute, 15 * Minute}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, trace[i], want[i])
		}
	}
}

func TestWaitUntilPastReturnsImmediately(t *testing.T) {
	c := New(3)
	c.RunUntil(Hour)
	hops := 0
	c.Go(func() {
		c.WaitUntil(Minute) // already past
		hops++
		c.Sleep(0)
		c.Sleep(-Minute)
		hops++
	})
	c.Run()
	if hops != 2 || c.Now() != Hour {
		t.Fatalf("hops=%d now=%v", hops, c.Now())
	}
}

// TestConcurrentWaitersResumeInScheduleOrder is the determinism contract:
// N goroutines parked at the same instant resume one at a time, in the
// order their wake-ups were scheduled.
func TestConcurrentWaitersResumeInScheduleOrder(t *testing.T) {
	for round := 0; round < 3; round++ {
		c := New(4)
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			c.Go(func() {
				c.WaitUntil(Hour) // all eight wake at the same instant
				order = append(order, i)
				c.Sleep(Minute)
				order = append(order, 100+i)
			})
		}
		c.Run()
		if len(order) != 16 {
			t.Fatalf("order = %v", order)
		}
		for i := 0; i < 8; i++ {
			if order[i] != i || order[8+i] != 100+i {
				t.Fatalf("round %d: nondeterministic resume order %v", round, order)
			}
		}
		if c.Now() != Hour+Minute {
			t.Fatalf("now = %v", c.Now())
		}
	}
}

// TestAdvanceLeavesLateSleepersParked checks that RunUntil does not wake
// goroutines whose wake-up lies beyond the horizon, and that a later run
// resumes them.
func TestAdvanceLeavesLateSleepersParked(t *testing.T) {
	c := New(5)
	woke := false
	c.Go(func() {
		c.Sleep(2 * Hour)
		woke = true
	})
	c.RunFor(Hour)
	if woke {
		t.Fatal("woke before its time")
	}
	if c.Goroutines() != 1 {
		t.Fatalf("goroutines = %d, want 1 parked", c.Goroutines())
	}
	c.RunFor(Hour)
	if !woke {
		t.Fatal("never woke")
	}
}

// TestGoFromSimulationGoroutine spawns nested goroutines from inside a
// simulation goroutine and from event callbacks.
func TestGoFromSimulationGoroutine(t *testing.T) {
	c := New(6)
	var got []string
	c.Go(func() {
		got = append(got, "parent")
		c.Go(func() {
			got = append(got, "child")
			c.Sleep(Minute)
			got = append(got, "child-awake")
		})
		c.Sleep(2 * Minute)
		got = append(got, "parent-awake")
	})
	c.After(Second, func() {
		c.Go(func() { got = append(got, "from-event") })
	})
	c.Run()
	want := []string{"parent", "child", "from-event", "child-awake", "parent-awake"}
	if len(got) != len(want) {
		t.Fatalf("got = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

// TestSchedulingFromOutsideGoroutines checks that At/After/Now/Go are safe
// to call from plain OS goroutines while nothing is running — the pattern
// external API handlers (status page, stress tests) use.
func TestSchedulingFromOutsideGoroutines(t *testing.T) {
	c := New(7)
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.After(Time(i)*Minute, func() {
				mu.Lock()
				fired++
				mu.Unlock()
			})
			_ = c.Now()
			_ = c.Fired()
		}(i)
	}
	wg.Wait()
	c.Run()
	if fired != 16 {
		t.Fatalf("fired = %d", fired)
	}
}

// TestInterleavedEventsAndGoroutines mixes plain events with goroutine
// wake-ups at identical instants; events and wake-ups must interleave in
// schedule order, and the goroutine must observe event effects that were
// scheduled before its wake-up.
func TestInterleavedEventsAndGoroutines(t *testing.T) {
	c := New(8)
	counter := 0
	seen := -1
	c.After(Hour, func() { counter = 10 }) // scheduled first → runs first at t=1h
	c.Go(func() {
		c.WaitUntil(Hour) // wake-up scheduled second
		seen = counter
	})
	c.Run()
	if seen != 10 {
		t.Fatalf("goroutine saw counter=%d, want 10", seen)
	}
}

// TestLatchJoinsFanOut: a coordinator spawns workers, parks in Wait, and
// resumes only after every worker called Done — with the workers' effects
// visible.
func TestLatchJoinsFanOut(t *testing.T) {
	c := New(9)
	const workers = 5
	sum := 0
	done := false
	c.Go(func() {
		l := c.NewLatch(workers)
		for w := 1; w <= workers; w++ {
			w := w
			c.Go(func() {
				c.Sleep(Time(w) * Minute) // workers park and overlap
				sum += w
				l.Done()
			})
		}
		l.Wait()
		if sum != 15 {
			t.Errorf("coordinator resumed before workers finished: sum=%d", sum)
		}
		done = true
	})
	c.Run()
	if !done {
		t.Fatal("coordinator never resumed")
	}
	if got := c.Now(); got != 5*Minute {
		t.Fatalf("clock at %v, want 5m (slowest worker)", got)
	}
}

// An open latch (count zero) never parks.
func TestLatchZeroIsOpen(t *testing.T) {
	c := New(10)
	reached := false
	c.Go(func() {
		c.NewLatch(0).Wait()
		reached = true
	})
	c.Run()
	if !reached {
		t.Fatal("Wait on open latch parked forever")
	}
}

// Done from event-callback context (not a simulation goroutine) must wake
// waiters too — the driver side of the contract.
func TestLatchDoneFromEvent(t *testing.T) {
	c := New(11)
	l := c.NewLatch(2)
	var resumedAt Time
	c.Go(func() {
		l.Wait()
		resumedAt = c.Now()
	})
	c.After(Hour, l.Done)
	c.After(2*Hour, l.Done)
	c.Run()
	if resumedAt != 2*Hour {
		t.Fatalf("waiter resumed at %v, want 2h", resumedAt)
	}
}

// Multiple waiters resume in the order they went to sleep.
func TestLatchWaitersFIFO(t *testing.T) {
	c := New(12)
	l := c.NewLatch(1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		c.Go(func() {
			c.Sleep(Time(i+1) * Second) // deterministic sleep order = wait order
			l.Wait()
			order = append(order, i)
		})
	}
	c.After(Minute, l.Done)
	c.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("resume order = %v, want [0 1 2]", order)
	}
}
