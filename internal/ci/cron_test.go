package ci

import (
	"testing"

	"repro/internal/simclock"
)

func TestCronTriggersPeriodically(t *testing.T) {
	c := simclock.New(1)
	s := NewServer(c, Options{NumExecutors: 2})
	s.CreateJob(&Job{
		Name:   "nightly-ci",
		Script: constScript(Success, 10*simclock.Minute),
		Every:  simclock.Day,
	})
	c.RunUntil(3*simclock.Day + simclock.Hour)
	builds := s.Builds("nightly-ci")
	if len(builds) != 3 {
		t.Fatalf("cron builds = %d, want 3", len(builds))
	}
	for _, b := range builds {
		if b.Cause != "cron" {
			t.Fatalf("cause = %q", b.Cause)
		}
		if !b.Completed() || b.Result != Success {
			t.Fatalf("build #%d = %v", b.Number, b.Result)
		}
	}
}

func TestNonCronJobNeverSelfTriggers(t *testing.T) {
	c := simclock.New(3)
	s := NewServer(c, Options{NumExecutors: 2})
	s.CreateJob(&Job{Name: "manual", Script: constScript(Success, simclock.Minute)})
	c.RunUntil(simclock.Week)
	if s.TotalBuilds() != 0 {
		t.Fatalf("manual job built itself %d times", s.TotalBuilds())
	}
}

func TestCronMatrixJob(t *testing.T) {
	c := simclock.New(4)
	s := NewServer(c, Options{NumExecutors: 8})
	s.CreateJob(&Job{
		Name:   "matrix-cron",
		Script: constScript(Success, simclock.Minute),
		Axes:   []Axis{{Name: "a", Values: []string{"1", "2"}}},
		Every:  simclock.Day,
	})
	c.RunUntil(simclock.Day + simclock.Hour)
	// One parent + two cells.
	if got := len(s.Builds("matrix-cron")); got != 3 {
		t.Fatalf("builds = %d, want 3", got)
	}
	if last := s.LastCompleted("matrix-cron"); last == nil || last.Result != Success {
		t.Fatalf("matrix cron parent = %+v", last)
	}
}
