package ci

import (
	"fmt"
	"testing"

	"repro/internal/simclock"
)

// window is a build's occupancy interval on the simulated clock.
type window struct {
	start, end simclock.Time
}

// maxOverlap returns the maximum number of windows covering one instant.
func maxOverlap(ws []window) int {
	best := 0
	for _, w := range ws {
		n := 0
		for _, o := range ws {
			if o.start < w.end && w.start < o.end {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

func completedWindows(s *Server, jobs ...string) []window {
	var ws []window
	for _, j := range jobs {
		for _, b := range s.Builds(j) {
			if b.Completed() && len(b.CellBuilds) == 0 {
				ws = append(ws, window{b.StartedAt, b.EndedAt})
			}
		}
	}
	return ws
}

// TestConcurrentBuildWindowsOverlap is the headline property of the
// executor pool: with NumExecutors: 4, at least two builds run
// concurrently, observed as overlapping build windows on the sim clock.
func TestConcurrentBuildWindowsOverlap(t *testing.T) {
	c := simclock.New(21)
	s := NewServer(c, Options{NumExecutors: 4})
	var jobs []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("job-%d", i)
		jobs = append(jobs, name)
		if err := s.CreateJob(&Job{Name: name, Script: constScript(Success, simclock.Hour)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Trigger(name, "test"); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()
	ws := completedWindows(s, jobs...)
	if len(ws) != 4 {
		t.Fatalf("completed builds = %d, want 4", len(ws))
	}
	if got := maxOverlap(ws); got < 2 {
		t.Fatalf("max overlapping build windows = %d, want ≥ 2 (windows: %v)", got, ws)
	}
	// Four independent one-hour builds on four executors all fit in one hour.
	if c.Now() != simclock.Hour {
		t.Fatalf("makespan = %v, want 1h", c.Now())
	}
}

// TestSameJobBuildsSerialize checks per-job serialization: three queued
// builds of one job never overlap, even with executors to spare.
func TestSameJobBuildsSerialize(t *testing.T) {
	c := simclock.New(22)
	s := NewServer(c, Options{NumExecutors: 4})
	if err := s.CreateJob(&Job{Name: "serial", Script: constScript(Success, simclock.Hour)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Trigger("serial", "test"); err != nil {
			t.Fatal(err)
		}
	}
	c.RunUntil(simclock.Minute)
	if s.busy() != 1 {
		t.Fatalf("busy = %d, want 1 (same-job builds must not overlap)", s.busy())
	}
	c.Run()
	if got := maxOverlap(completedWindows(s, "serial")); got != 1 {
		t.Fatalf("same-job overlap = %d, want 1", got)
	}
	if c.Now() != 3*simclock.Hour {
		t.Fatalf("makespan = %v, want 3h", c.Now())
	}
}

// TestMatrixCellsRunConcurrently: different cells of one matrix build are
// different configurations and spread across the pool, while re-runs of
// one cell serialize.
func TestMatrixCellsRunConcurrently(t *testing.T) {
	c := simclock.New(23)
	s := NewServer(c, Options{NumExecutors: 4})
	err := s.CreateJob(&Job{
		Name:   "matrix",
		Script: constScript(Success, simclock.Hour),
		Axes:   []Axis{{Name: "cluster", Values: []string{"a", "b", "c", "d"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	parent, _ := s.Trigger("matrix", "test")
	c.Run()
	if !parent.Completed() {
		t.Fatal("matrix parent incomplete")
	}
	ws := completedWindows(s, "matrix")
	if len(ws) != 4 {
		t.Fatalf("cells = %d", len(ws))
	}
	if got := maxOverlap(ws); got != 4 {
		t.Fatalf("cell overlap = %d, want 4", got)
	}
	if c.Now() != simclock.Hour {
		t.Fatalf("makespan = %v, want 1h", c.Now())
	}
}

// TestPoolShrinksToZeroWhenIdle: between bursts of work no executor is
// busy and nothing is left pending on the clock.
func TestPoolShrinksToZeroWhenIdle(t *testing.T) {
	c := simclock.New(25)
	s := NewServer(c, Options{NumExecutors: 8})
	idle := func(when string) {
		t.Helper()
		if s.busy() != 0 || s.queued() != 0 || c.Step() {
			t.Fatalf("%s: busy %d, queued %d, or an event still pending", when, s.busy(), s.queued())
		}
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("burst-%d", i)
		s.CreateJob(&Job{Name: name, Script: constScript(Success, simclock.Minute)})
		s.Trigger(name, "test")
	}
	c.Run()
	idle("after the first burst")
	// A second burst works fine after the pool shrank.
	for i := 0; i < 4; i++ {
		s.Trigger(fmt.Sprintf("burst-%d", i), "again")
	}
	c.Run()
	if s.TotalBuilds() != 8 {
		t.Fatalf("builds = %d", s.TotalBuilds())
	}
	idle("after the second burst")
}

// raceDetector is set by race_test.go: the detector's own bookkeeping is
// not what allocation guards count, so they skip under it.
var raceDetector bool

// TestWarmBuildDispatchAndCompletionAllocNothing: once warmed, a build's
// trip through the pool — its pump, its script, its completion event, or
// its inline completion when it lasts no time — allocates nothing but the
// Build the job's history keeps.
func TestWarmBuildDispatchAndCompletionAllocNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation guards run without the race detector")
	}
	for _, dur := range []simclock.Time{0, simclock.Hour} {
		c := simclock.New(27)
		s := NewServer(c, Options{NumExecutors: 2, DiscardBuildLogs: true})
		script := func(*BuildContext) Outcome { return Outcome{Result: Success, Duration: dur} }
		if err := s.CreateJob(&Job{Name: "j", Retention: 8, Script: script}); err != nil {
			t.Fatal(err)
		}
		build := func() {
			s.Trigger("j", "test") //nolint:errcheck // the job exists
			c.Run()
		}
		for i := 0; i < 100; i++ {
			build()
		}
		if got := testing.AllocsPerRun(1000, build); got != 1 {
			t.Errorf("duration %v: a warmed build allocates %v times, want 1 (its Build)", dur, got)
		}
		if s.TotalBuilds() != 100+1+1000 || len(s.idle) > 1 {
			t.Errorf("duration %v: %d builds, %d idle executors; want 1101, at most 1", dur, s.TotalBuilds(), len(s.idle))
		}
	}
}

// TestBuildsStartAtTriggerInstant: queueing latency is zero when an
// executor is free — the build window starts at the trigger time.
func TestBuildsStartAtTriggerInstant(t *testing.T) {
	c := simclock.New(26)
	s := NewServer(c, Options{NumExecutors: 1})
	s.CreateJob(&Job{Name: "j", Script: constScript(Success, simclock.Minute)})
	c.RunUntil(simclock.Hour)
	b, _ := s.Trigger("j", "test")
	c.Run()
	if b.QueuedAt != simclock.Hour || b.StartedAt != simclock.Hour {
		t.Fatalf("queued=%v started=%v, want both 1h", b.QueuedAt, b.StartedAt)
	}
	if b.EndedAt != simclock.Hour+simclock.Minute {
		t.Fatalf("ended=%v", b.EndedAt)
	}
}

// TestDequeueSkippingABusyHeadKeepsFIFO: when the head of the queue waits
// for its job's running build, the builds an executor takes from behind it
// start in the order they were queued, and the skipped ones keep theirs.
func TestDequeueSkippingABusyHeadKeepsFIFO(t *testing.T) {
	c := simclock.New(28)
	s := NewServer(c, Options{NumExecutors: 2})
	for _, name := range []string{"a", "b", "c", "d"} {
		dur := simclock.Hour
		if name == "a" {
			dur = 10 * simclock.Hour
		}
		if err := s.CreateJob(&Job{Name: name, Script: constScript(Success, dur)}); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for _, name := range []string{"a", "a", "b", "a", "c", "b", "d"} {
		b, err := s.Trigger(name, "test")
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, fmt.Sprintf("%s%d", name, b.Number))
	}
	c.Run()
	started := map[string]simclock.Time{}
	for _, job := range []string{"a", "b", "c", "d"} {
		for _, b := range s.Builds(job) {
			started[fmt.Sprintf("%s%d", job, b.Number)] = b.StartedAt
		}
	}
	// a1 holds one executor for 10 h; the other takes b1, c1, b2 and d1 an
	// hour apart, skipping a2 and a3, which follow a1 in their own order.
	want := map[string]simclock.Time{
		"a1": 0, "b1": 0, "c1": simclock.Hour, "b2": 2 * simclock.Hour, "d1": 3 * simclock.Hour,
		"a2": 10 * simclock.Hour, "a3": 20 * simclock.Hour,
	}
	for _, id := range order {
		if started[id] != want[id] {
			t.Errorf("%s started at %v, want %v (queued in the order %v)", id, started[id], want[id], order)
		}
	}
	if s.queued() != 0 || s.TotalBuilds() != len(order) {
		t.Fatalf("%d builds left queued, %d completed; want 0 and %d", s.queued(), s.TotalBuilds(), len(order))
	}
}

// TestQueueReusesItsSlotsInOrder: one executor, a burst of 16 builds, then
// one more each hour while one starts each hour, so the queue's freed front
// slots are reclaimed as it fills. Adjacent builds are of different jobs,
// so the k-th build queued starts at k hours.
func TestQueueReusesItsSlotsInOrder(t *testing.T) {
	c := simclock.New(29)
	s := NewServer(c, Options{NumExecutors: 1})
	const jobs, burst, later = 10, 16, 40
	for i := range jobs {
		if err := s.CreateJob(&Job{Name: fmt.Sprintf("j%d", i), Script: constScript(Success, simclock.Hour)}); err != nil {
			t.Fatal(err)
		}
	}
	var queued []*Build
	trigger := func() {
		b, err := s.Trigger(fmt.Sprintf("j%d", len(queued)%jobs), "test")
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, b)
	}
	for range burst {
		trigger()
	}
	for h := 1; h <= later; h++ {
		c.At(simclock.Time(h)*simclock.Hour, trigger)
	}
	c.Run()
	for k, b := range queued {
		if want := simclock.Time(k) * simclock.Hour; b.StartedAt != want {
			t.Fatalf("build %d (%s #%d) started at %v, want %v", k, b.Job, b.Number, b.StartedAt, want)
		}
	}
	if s.queued() != 0 || s.TotalBuilds() != burst+later {
		t.Fatalf("%d builds left queued, %d completed; want 0 and %d", s.queued(), s.TotalBuilds(), burst+later)
	}
}
