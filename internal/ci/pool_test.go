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

// TestPoolShrinksToZeroWhenIdle: between bursts of work no executor
// goroutine stays parked.
func TestPoolShrinksToZeroWhenIdle(t *testing.T) {
	c := simclock.New(25)
	s := NewServer(c, Options{NumExecutors: 8})
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("burst-%d", i)
		s.CreateJob(&Job{Name: name, Script: constScript(Success, simclock.Minute)})
		s.Trigger(name, "test")
	}
	c.Run()
	if g := c.Goroutines(); g != 0 {
		t.Fatalf("idle pool kept %d goroutines", g)
	}
	// A second burst works fine after the pool shrank.
	for i := 0; i < 4; i++ {
		s.Trigger(fmt.Sprintf("burst-%d", i), "again")
	}
	c.Run()
	if s.TotalBuilds() != 8 {
		t.Fatalf("builds = %d", s.TotalBuilds())
	}
	if g := c.Goroutines(); g != 0 {
		t.Fatalf("idle pool kept %d goroutines after second burst", g)
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
