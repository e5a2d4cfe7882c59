package simclock

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtEpoch(t *testing.T) {
	c := New(1)
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestAfterRunsInOrder(t *testing.T) {
	c := New(1)
	var got []int
	c.After(3*Second, func() { got = append(got, 3) })
	c.After(1*Second, func() { got = append(got, 1) })
	c.After(2*Second, func() { got = append(got, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Now() != 3*Second {
		t.Fatalf("clock at %v, want 3s", c.Now())
	}
}

func TestEqualTimeEventsRunInScheduleOrder(t *testing.T) {
	c := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(Second, func() { got = append(got, i) })
	}
	c.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time order = %v", got)
		}
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	c := New(1)
	c.RunUntil(10 * Second)
	fired := Time(-1)
	c.At(2*Second, func() { fired = c.Now() })
	c.Run()
	if fired != 10*Second {
		t.Fatalf("past event fired at %v, want now (10s)", fired)
	}
}

func TestCancel(t *testing.T) {
	c := New(1)
	fired := false
	e := c.After(Second, func() { fired = true })
	e.Cancel()
	c.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	// Cancel is idempotent and nil-safe.
	e.Cancel()
	var nilEvent *Event
	nilEvent.Cancel()
}

func TestRunUntilAdvancesClockExactly(t *testing.T) {
	c := New(1)
	c.After(Minute, func() {})
	c.RunUntil(30 * Second)
	if c.Now() != 30*Second {
		t.Fatalf("clock at %v, want 30s", c.Now())
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", c.Pending())
	}
	c.RunFor(Minute)
	if c.Now() != 90*Second {
		t.Fatalf("clock at %v, want 90s", c.Now())
	}
	if c.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", c.Fired())
	}
}

func TestNestedScheduling(t *testing.T) {
	c := New(1)
	var times []Time
	c.After(Second, func() {
		times = append(times, c.Now())
		c.After(Second, func() {
			times = append(times, c.Now())
		})
	})
	c.Run()
	if len(times) != 2 || times[0] != Second || times[1] != 2*Second {
		t.Fatalf("nested times = %v", times)
	}
}

func TestTicker(t *testing.T) {
	c := New(1)
	var ticks []Time
	tk := c.Every(10*Second, func() { ticks = append(ticks, c.Now()) })
	c.RunUntil(35 * Second)
	tk.Stop()
	c.RunUntil(100 * Second)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	for i, tm := range ticks {
		if want := Time(i+1) * 10 * Second; tm != want {
			t.Fatalf("tick %d at %v, want %v", i, tm, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	c := New(1)
	n := 0
	var tk *Ticker
	tk = c.Every(Second, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	c.Run()
	if n != 2 {
		t.Fatalf("ticks = %d, want 2", n)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero period")
		}
	}()
	New(1).Every(0, func() {})
}

func TestWeekdayEpochIsMonday(t *testing.T) {
	if wd := Time(0).Weekday(); wd != time.Monday {
		t.Fatalf("epoch weekday = %v, want Monday", wd)
	}
	if wd := (Day).Weekday(); wd != time.Tuesday {
		t.Fatalf("epoch+1d weekday = %v, want Tuesday", wd)
	}
	if wd := (6 * Day).Weekday(); wd != time.Sunday {
		t.Fatalf("epoch+6d weekday = %v, want Sunday", wd)
	}
	if wd := (7 * Day).Weekday(); wd != time.Monday {
		t.Fatalf("epoch+7d weekday = %v, want Monday", wd)
	}
}

func TestHourOfDay(t *testing.T) {
	if h := (3*Day + 13*Hour + 30*Minute).HourOfDay(); h != 13 {
		t.Fatalf("hour = %d, want 13", h)
	}
	if h := Time(0).HourOfDay(); h != 0 {
		t.Fatalf("hour = %d, want 0", h)
	}
}

func TestTimeString(t *testing.T) {
	got := (2*Day + 3*Hour + 4*Minute + 5*Second).String()
	if got != "D2 03:04:05" {
		t.Fatalf("String() = %q", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		c := New(42)
		var out []Time
		for i := 0; i < 100; i++ {
			c.After(Time(c.Rand().Int63n(int64(Hour))), func() {
				out = append(out, c.Now())
			})
		}
		c.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: events always fire in non-decreasing time order, whatever the
// scheduling order.
func TestEventOrderingProperty(t *testing.T) {
	f := func(offsets []uint32) bool {
		c := New(7)
		var fired []Time
		for _, o := range offsets {
			c.After(Time(o%1000)*Second, func() { fired = append(fired, c.Now()) })
		}
		c.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := Jitter(rng, 10*Second, 3*Second)
		if d < 7*Second || d > 13*Second {
			t.Fatalf("jitter %v out of [7s,13s]", d)
		}
	}
	if d := Jitter(rng, 5*Second, 0); d != 5*Second {
		t.Fatalf("no-spread jitter = %v", d)
	}
	if d := Jitter(rng, -5*Second, 0); d != 0 {
		t.Fatalf("negative base jitter = %v, want 0", d)
	}
	// Never negative even when spread exceeds base.
	for i := 0; i < 1000; i++ {
		if d := Jitter(rng, Second, Minute); d < 0 {
			t.Fatalf("negative jitter %v", d)
		}
	}
}

func TestExponentialBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sum Time
	const n = 20000
	for i := 0; i < n; i++ {
		d := Exponential(rng, Minute)
		if d < 0 || d > 20*Minute {
			t.Fatalf("exponential %v out of bounds", d)
		}
		sum += d
	}
	mean := sum / n
	if mean < 50*Second || mean > 70*Second {
		t.Fatalf("empirical mean %v too far from 1m", mean)
	}
	if Exponential(rng, 0) != 0 {
		t.Fatal("zero-mean exponential should be 0")
	}
	// Up to MaxInt64/20 the cap is 20*mean; beyond, the cap and the draw
	// saturate at MaxInt64 instead of wrapping negative.
	for _, mean := range []Time{math.MaxInt64 / 20, 1 << 61, math.MaxInt64 / 2, math.MaxInt64} {
		limit := Time(math.MaxInt64)
		if mean <= limit/20 {
			limit = 20 * mean
		}
		for i := 0; i < 1000; i++ {
			if d := Exponential(rng, mean); d < 0 || d > limit {
				t.Fatalf("Exponential(%d) = %d, out of [0, %d]", int64(mean), int64(d), int64(limit))
			}
		}
	}
}

func TestBernoulli(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if Bernoulli(rng, 0) {
		t.Fatal("p=0 returned true")
	}
	if !Bernoulli(rng, 1) {
		t.Fatal("p=1 returned false")
	}
	n := 0
	for i := 0; i < 10000; i++ {
		if Bernoulli(rng, 0.3) {
			n++
		}
	}
	if n < 2700 || n > 3300 {
		t.Fatalf("p=0.3 hit %d/10000", n)
	}
}

func TestShuffledLeavesInputIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := []int{1, 2, 3, 4, 5, 6, 7, 8}
	out := Shuffled(rng, in)
	for i, v := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		if in[i] != v {
			t.Fatal("input mutated")
		}
	}
	if len(out) != len(in) {
		t.Fatal("length changed")
	}
	seen := map[int]bool{}
	for _, v := range out {
		seen[v] = true
	}
	if len(seen) != len(in) {
		t.Fatal("shuffle lost elements")
	}
}

func TestMaxQueueLen(t *testing.T) {
	c := New(1)
	for i := 0; i < 50; i++ {
		c.After(Time(i)*Second, func() {})
	}
	c.Run()
	if c.MaxQueueLen() != 50 {
		t.Fatalf("max queue len = %d, want 50", c.MaxQueueLen())
	}
}
