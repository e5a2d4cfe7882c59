package ci

import (
	"fmt"
	"testing"

	"repro/internal/simclock"
)

// busy and queued read the executor pool's load, as /api/json reports it.
func (s *Server) busy() int { return s.running }

func (s *Server) queued() int { return len(s.queue) - s.qhead }

func constScript(res Result, dur simclock.Time) Script {
	return func(bc *BuildContext) Outcome {
		bc.Logf("running %s", bc.Job)
		return Outcome{Result: res, Duration: dur}
	}
}

func TestSimpleBuildLifecycle(t *testing.T) {
	c := simclock.New(1)
	s := NewServer(c, Options{NumExecutors: 2})
	if err := s.CreateJob(&Job{Name: "smoke", Script: constScript(Success, 10*simclock.Minute)}); err != nil {
		t.Fatal(err)
	}
	b, err := s.Trigger("smoke", "test")
	if err != nil {
		t.Fatal(err)
	}
	if b.Completed() {
		t.Fatal("completed before event loop ran")
	}
	c.Run()
	if !b.Completed() || b.Result != Success {
		t.Fatalf("result = %v", b.Result)
	}
	if b.EndedAt-b.StartedAt != 10*simclock.Minute {
		t.Fatalf("duration = %v", b.EndedAt-b.StartedAt)
	}
	if len(b.Log) == 0 || b.Log[0] != "running smoke" {
		t.Fatalf("log = %v", b.Log)
	}
	if s.TotalBuilds() != 1 {
		t.Fatalf("total = %d", s.TotalBuilds())
	}
}

func TestExecutorPoolLimitsParallelism(t *testing.T) {
	c := simclock.New(2)
	s := NewServer(c, Options{NumExecutors: 2})
	// Five one-hour builds of five distinct jobs: only the pool size limits
	// parallelism (same-job builds would additionally serialize).
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("slow-%d", i)
		if err := s.CreateJob(&Job{Name: name, Script: constScript(Success, simclock.Hour)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Trigger(name, "test"); err != nil {
			t.Fatal(err)
		}
	}
	c.RunUntil(simclock.Minute)
	if s.busy() != 2 {
		t.Fatalf("busy = %d, want 2", s.busy())
	}
	if s.queued() != 3 {
		t.Fatalf("queue = %d, want 3", s.queued())
	}
	// 5 one-hour builds on 2 executors take 3 hours.
	c.Run()
	if got := c.Now(); got != 3*simclock.Hour {
		t.Fatalf("makespan = %v, want 3h", got)
	}
	if s.busy() != 0 || s.queued() != 0 {
		t.Fatal("server not drained")
	}
}

func TestCreateJobValidation(t *testing.T) {
	s := NewServer(simclock.New(3), Options{NumExecutors: 1})
	if err := s.CreateJob(&Job{Name: "", Script: constScript(Success, 0)}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.CreateJob(&Job{Name: "x"}); err == nil {
		t.Fatal("nil script accepted")
	}
	s.CreateJob(&Job{Name: "x", Script: constScript(Success, 0)})
	if err := s.CreateJob(&Job{Name: "x", Script: constScript(Success, 0)}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := s.Trigger("ghost", "test"); err == nil {
		t.Fatal("unknown job triggered")
	}
}

func TestMatrixExpansion(t *testing.T) {
	c := simclock.New(4)
	s := NewServer(c, Options{NumExecutors: 8})
	job := &Job{
		Name:   "envs",
		Script: constScript(Success, 20*simclock.Minute),
		Axes: []Axis{
			{Name: "image", Values: []string{"a", "b", "c"}},
			{Name: "cluster", Values: []string{"x", "y"}},
		},
	}
	s.CreateJob(job)
	if job.CellCount() != 6 {
		t.Fatalf("cell count = %d", job.CellCount())
	}
	parent, _ := s.Trigger("envs", "test")
	c.Run()
	if len(parent.CellBuilds) != 6 {
		t.Fatalf("cells = %d", len(parent.CellBuilds))
	}
	if !parent.Completed() || parent.Result != Success {
		t.Fatalf("parent result = %v", parent.Result)
	}
	// Parent spans its cells.
	if parent.EndedAt-parent.StartedAt != 20*simclock.Minute {
		t.Fatalf("parent span = %v", parent.EndedAt-parent.StartedAt)
	}
	seen := map[string]bool{}
	for _, num := range parent.CellBuilds {
		cb := s.Build("envs", num)
		if cb.Parent != parent.Number {
			t.Fatal("cell not linked to parent")
		}
		seen[cb.CellKey()] = true
	}
	if len(seen) != 6 || !seen["cluster=x,image=a"] {
		t.Fatalf("cell keys = %v", seen)
	}
}

func TestMatrixParentAggregatesWorstResult(t *testing.T) {
	c := simclock.New(5)
	s := NewServer(c, Options{NumExecutors: 8})
	s.CreateJob(&Job{
		Name: "mixed",
		Script: func(bc *BuildContext) Outcome {
			switch bc.Axis("v") {
			case "ok":
				return Outcome{Result: Success, Duration: simclock.Minute}
			case "meh":
				return Outcome{Result: Unstable, Duration: simclock.Minute}
			default:
				return Outcome{Result: Failure, Duration: simclock.Minute}
			}
		},
		Axes: []Axis{{Name: "v", Values: []string{"ok", "meh", "bad"}}},
	})
	parent, _ := s.Trigger("mixed", "test")
	c.Run()
	if parent.Result != Failure {
		t.Fatalf("parent = %v, want FAILURE", parent.Result)
	}
	for _, n := range parent.CellBuilds {
		if b := s.Build("mixed", n); b.CellKey() == "v=meh" && b.Result != Unstable {
			t.Fatalf("cell meh = %v", b.Result)
		}
	}
}

func TestMatrixReloadedRetriesOnlyFailedCells(t *testing.T) {
	c := simclock.New(6)
	s := NewServer(c, Options{NumExecutors: 8})
	// Fail cluster y on the first run, pass afterwards.
	attempt := map[string]int{}
	s.CreateJob(&Job{
		Name: "flaky",
		Script: func(bc *BuildContext) Outcome {
			k := bc.Axis("cluster")
			attempt[k]++
			if k == "y" && attempt[k] == 1 {
				return Outcome{Result: Failure, Duration: simclock.Minute}
			}
			return Outcome{Result: Success, Duration: simclock.Minute}
		},
		Axes: []Axis{{Name: "cluster", Values: []string{"x", "y", "z"}}},
	})
	p1, _ := s.Trigger("flaky", "test")
	c.Run()
	if p1.Result != Failure {
		t.Fatalf("first run = %v", p1.Result)
	}
	failed, err := s.FailedCells("flaky", p1.Number)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0]["cluster"] != "y" {
		t.Fatalf("failed cells = %v", failed)
	}

	p2, err := s.RetryFailedCells("flaky", p1.Number, "matrix-reloaded")
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if len(p2.CellBuilds) != 1 {
		t.Fatalf("retry ran %d cells, want 1", len(p2.CellBuilds))
	}
	if p2.Result != Success {
		t.Fatalf("retry = %v", p2.Result)
	}
	if attempt["x"] != 1 || attempt["z"] != 1 || attempt["y"] != 2 {
		t.Fatalf("attempts = %v", attempt)
	}
}

func TestRetryWithNothingFailedIsInstantSuccess(t *testing.T) {
	c := simclock.New(7)
	s := NewServer(c, Options{NumExecutors: 4})
	s.CreateJob(&Job{
		Name:   "green",
		Script: constScript(Success, simclock.Minute),
		Axes:   []Axis{{Name: "a", Values: []string{"1", "2"}}},
	})
	p1, _ := s.Trigger("green", "t")
	c.Run()
	p2, err := s.RetryFailedCells("green", p1.Number, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Completed() || p2.Result != Success || len(p2.CellBuilds) != 0 {
		t.Fatalf("no-op retry: %+v", p2)
	}
}

func TestFailedCellsErrors(t *testing.T) {
	c := simclock.New(8)
	s := NewServer(c, Options{NumExecutors: 1})
	s.CreateJob(&Job{Name: "j", Script: constScript(Success, simclock.Hour),
		Axes: []Axis{{Name: "a", Values: []string{"1"}}}})
	if _, err := s.FailedCells("ghost", 1); err == nil {
		t.Fatal("unknown job accepted")
	}
	if _, err := s.FailedCells("j", 99); err == nil {
		t.Fatal("unknown build accepted")
	}
	p, _ := s.Trigger("j", "t")
	c.RunUntil(simclock.Minute)
	if _, err := s.FailedCells("j", p.Number); err == nil {
		t.Fatal("running build accepted")
	}
}

func TestRetentionDropsOldCompletedBuilds(t *testing.T) {
	c := simclock.New(9)
	s := NewServer(c, Options{NumExecutors: 1})
	s.CreateJob(&Job{Name: "r", Script: constScript(Success, simclock.Minute), Retention: 5})
	for i := 0; i < 12; i++ {
		s.Trigger("r", "t")
		c.Run()
	}
	builds := s.Builds("r")
	if len(builds) > 5 {
		t.Fatalf("retained %d builds, want ≤5", len(builds))
	}
	// The newest build must always be retained.
	last := builds[len(builds)-1]
	if last.Number != 12 {
		t.Fatalf("latest retained = #%d", last.Number)
	}
}

func TestOnCompleteListener(t *testing.T) {
	c := simclock.New(10)
	s := NewServer(c, Options{NumExecutors: 4})
	s.CreateJob(&Job{Name: "l", Script: constScript(Unstable, simclock.Minute)})
	var got []*Build
	s.OnComplete(func(b *Build) { got = append(got, b) })
	s.Trigger("l", "t")
	c.Run()
	if len(got) != 1 || got[0].Result != Unstable {
		t.Fatalf("listener got %v", got)
	}
}

func TestOnCompleteFiresForParentToo(t *testing.T) {
	c := simclock.New(11)
	s := NewServer(c, Options{NumExecutors: 4})
	s.CreateJob(&Job{Name: "m", Script: constScript(Success, simclock.Minute),
		Axes: []Axis{{Name: "a", Values: []string{"1", "2"}}}})
	var parents, cells int
	s.OnComplete(func(b *Build) {
		if b.Cell == nil {
			parents++
		} else {
			cells++
		}
	})
	s.Trigger("m", "t")
	c.Run()
	if cells != 2 || parents != 1 {
		t.Fatalf("cells=%d parents=%d", cells, parents)
	}
}

func TestTokenAccessControl(t *testing.T) {
	c := simclock.New(12)
	s := NewServer(c, Options{NumExecutors: 1})
	s.CreateJob(&Job{Name: "manual", Script: constScript(Success, simclock.Minute)})
	if _, err := s.TriggerToken("manual", "bad-token"); err == nil {
		t.Fatal("invalid token accepted")
	}
	s.AddToken("s3cret", "lucas")
	b, err := s.TriggerToken("manual", "s3cret")
	if err != nil {
		t.Fatal(err)
	}
	if b.Cause != "user lucas" {
		t.Fatalf("cause = %q", b.Cause)
	}
}

func TestResultStringAndWorse(t *testing.T) {
	if Success.String() != "SUCCESS" || Failure.String() != "FAILURE" ||
		Unstable.String() != "UNSTABLE" || Aborted.String() != "ABORTED" ||
		NotBuilt.String() != "NOT_BUILT" {
		t.Fatal("result strings")
	}
	if Result(42).String() != "Result(42)" {
		t.Fatal("unknown result string")
	}
	if worse(Success, Unstable) != Unstable {
		t.Fatal("worse(S,U)")
	}
	if worse(Failure, Unstable) != Failure {
		t.Fatal("worse(F,U)")
	}
	if worse(Success, Success) != Success {
		t.Fatal("worse(S,S)")
	}
}

func TestCellKeyDeterministic(t *testing.T) {
	a := cellKey(map[string]string{"b": "2", "a": "1"})
	if a != "a=1,b=2" {
		t.Fatalf("cellKey = %q", a)
	}
	if cellKey(nil) != "" {
		t.Fatal("nil cell key")
	}
}

func TestLastCompletedSkipsCells(t *testing.T) {
	c := simclock.New(13)
	s := NewServer(c, Options{NumExecutors: 4})
	s.CreateJob(&Job{Name: "m2", Script: constScript(Success, simclock.Minute),
		Axes: []Axis{{Name: "a", Values: []string{"1", "2"}}}})
	p, _ := s.Trigger("m2", "t")
	c.Run()
	last := s.LastCompleted("m2")
	if last == nil || last.Number != p.Number {
		t.Fatalf("LastCompleted = %+v, want parent #%d", last, p.Number)
	}
	if s.LastCompleted("ghost") != nil {
		t.Fatal("ghost job has builds")
	}
}

// TestNonCronJobNeverSelfTriggers: a job builds only when something
// triggers it — the server keeps no schedule of its own.
func TestNonCronJobNeverSelfTriggers(t *testing.T) {
	c := simclock.New(3)
	s := NewServer(c, Options{NumExecutors: 2})
	s.CreateJob(&Job{Name: "manual", Script: constScript(Success, simclock.Minute)})
	c.RunUntil(simclock.Week)
	if s.TotalBuilds() != 0 {
		t.Fatalf("manual job built itself %d times", s.TotalBuilds())
	}
}
