package oar

import (
	"testing"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

func TestBestEffortRunsOnIdleResources(t *testing.T) {
	_, _, s := newServer()
	j, err := s.Submit("cluster='sol'/nodes=10,walltime=10", SubmitOptions{
		User: "greedy", BestEffort: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Running || !j.bestEffort {
		t.Fatalf("best-effort job: state=%v be=%v", j.State, j.bestEffort)
	}
}

func TestNormalJobPreemptsBestEffort(t *testing.T) {
	_, _, s := newServer()
	be, _ := s.Submit("cluster='sol'/nodes=ALL,walltime=100", SubmitOptions{
		User: "greedy", BestEffort: true,
	})
	if be.State != Running {
		t.Fatal("best-effort did not start on idle cluster")
	}
	// A normal whole-cluster job arrives: the best-effort job dies.
	normal, _ := s.Submit("cluster='sol'/nodes=ALL,walltime=1", SubmitOptions{User: "alice"})
	if normal.State != Running {
		t.Fatalf("normal job = %v, want Running via preemption", normal.State)
	}
	if be.State != Preempted {
		t.Fatalf("best-effort job = %v, want Preempted", be.State)
	}
	if be.State.String() != "Preempted" {
		t.Fatalf("state string = %q", be.State.String())
	}
}

func TestPreemptionKillsOnlyNeededJobs(t *testing.T) {
	_, _, s := newServer()
	be1, _ := s.Submit("cluster='sol'/nodes=8,walltime=100", SubmitOptions{BestEffort: true})
	be2, _ := s.Submit("cluster='sol'/nodes=8,walltime=100", SubmitOptions{BestEffort: true})
	// 4 nodes remain free; a 10-node job needs 6 more → one victim suffices.
	normal, _ := s.Submit("cluster='sol'/nodes=10,walltime=1", SubmitOptions{})
	if normal.State != Running {
		t.Fatalf("normal = %v", normal.State)
	}
	preempted := 0
	if be1.State == Preempted {
		preempted++
	}
	if be2.State == Preempted {
		preempted++
	}
	if preempted != 1 {
		t.Fatalf("preempted %d best-effort jobs, want exactly 1", preempted)
	}
}

func TestBestEffortNeverPreempts(t *testing.T) {
	_, _, s := newServer()
	s.Submit("cluster='hercule'/nodes=ALL,walltime=10", SubmitOptions{User: "alice"})
	be, _ := s.Submit("cluster='hercule'/nodes=1,walltime=1", SubmitOptions{BestEffort: true})
	if be.State != Waiting {
		t.Fatalf("best-effort = %v, should wait behind a normal job", be.State)
	}
	be2, _ := s.Submit("cluster='hercule'/nodes=1,walltime=1", SubmitOptions{
		BestEffort: true, Immediate: true,
	})
	if be2.State != Canceled {
		t.Fatalf("immediate best-effort = %v, want Canceled", be2.State)
	}
}

func TestBestEffortDoesNotPreemptPeerBestEffort(t *testing.T) {
	_, _, s := newServer()
	be1, _ := s.Submit("cluster='sol'/nodes=ALL,walltime=100", SubmitOptions{BestEffort: true})
	be2, _ := s.Submit("cluster='sol'/nodes=1,walltime=1", SubmitOptions{BestEffort: true})
	if be1.State != Running || be2.State != Waiting {
		t.Fatalf("be1=%v be2=%v", be1.State, be2.State)
	}
}

func TestCanStartNowSeesThroughBestEffort(t *testing.T) {
	_, _, s := newServer()
	s.Submit("cluster='sol'/nodes=ALL,walltime=100", SubmitOptions{BestEffort: true})
	ok, err := s.CanStartNow("cluster='sol'/nodes=ALL,walltime=1")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("availability probe blind to preemptable resources")
	}
	// But a cluster held by a NORMAL job is genuinely unavailable.
	s2 := NewServer(simclock.New(1), testbed.Default())
	s2.Submit("cluster='sol'/nodes=ALL,walltime=100", SubmitOptions{})
	ok, _ = s2.CanStartNow("cluster='sol'/nodes=ALL,walltime=1")
	if ok {
		t.Fatal("probe claims availability through a normal job")
	}
}

func TestPreemptionFreesWalltimeEvent(t *testing.T) {
	c, _, s := newServer()
	be, _ := s.Submit("cluster='uvb'/nodes=ALL,walltime=2", SubmitOptions{BestEffort: true})
	s.Submit("cluster='uvb'/nodes=ALL,walltime=1", SubmitOptions{})
	if be.State != Preempted {
		t.Fatal("not preempted")
	}
	// The dead job's walltime expiry must not double-free nodes.
	c.RunUntil(5 * simclock.Hour)
	if s.BusyNodes() != 0 {
		t.Fatalf("busy = %d after everything ended", s.BusyNodes())
	}
	if be.State != Preempted {
		t.Fatalf("state mutated post-mortem: %v", be.State)
	}
}

func TestQueuedNormalJobPreemptsWhenDue(t *testing.T) {
	c, _, s := newServer()
	// Normal job holds the cluster; BE job queues; normal ends; BE runs;
	// then another normal job preempts it via the queue path.
	n1, _ := s.Submit("cluster='hercule'/nodes=ALL,walltime=1", SubmitOptions{})
	be, _ := s.Submit("cluster='hercule'/nodes=ALL,walltime=50", SubmitOptions{BestEffort: true})
	c.RunUntil(2 * simclock.Hour)
	if n1.State != Terminated || be.State != Running {
		t.Fatalf("n1=%v be=%v", n1.State, be.State)
	}
	n2, _ := s.Submit("cluster='hercule'/nodes=ALL,walltime=1", SubmitOptions{})
	if n2.State != Running || be.State != Preempted {
		t.Fatalf("n2=%v be=%v", n2.State, be.State)
	}
}
