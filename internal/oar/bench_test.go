package oar

// The scheduler's inner loop in the shape every federated micro-shard is
// in for most of a campaign: one cluster, every node busy, a long queue of
// cluster-anchored jobs re-walked on every release.

import (
	"fmt"
	"testing"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

const saturatedQueue = 120

// saturated returns a server over one 30-node cluster with every node held
// by a one-node job, the first bestEffort of them best-effort, and
// saturatedQueue normal jobs waiting behind them for one node more than
// preemption could give them — plus the request those waiting jobs carry.
func saturated(tb testing.TB, bestEffort int) (*Server, Request) {
	spec := testbed.DefaultSpec[1:2] // genepi, 30 nodes
	s := NewServer(simclock.New(1), testbed.Generate(spec))
	for i := 0; i < spec[0].NodeCount; i++ {
		j := s.SubmitReq(MustParseRequest("cluster='genepi'/nodes=1,walltime=100"), SubmitOptions{BestEffort: i < bestEffort})
		if j.State != Running {
			tb.Fatalf("filler job %d is %v", j.ID, j.State)
		}
	}
	stuck := MustParseRequest(fmt.Sprintf("cluster='genepi'/nodes=%d,walltime=100", bestEffort+1))
	for i := 0; i < saturatedQueue; i++ {
		if j := s.SubmitReq(stuck, SubmitOptions{}); j.State != Waiting {
			tb.Fatalf("queued job %d is %v", j.ID, j.State)
		}
	}
	return s, stuck
}

// BenchmarkSchedulePassSaturated is one release on the saturated cluster:
// the pass starts the first waiting job on the freed node and fails the
// other 119, then one more submission refills the queue.
func BenchmarkSchedulePassSaturated(b *testing.B) {
	s, one := saturated(b, 0)
	oldest := 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Release(oldest); err != nil {
			b.Fatal(err)
		}
		oldest++
		s.SubmitReq(one, SubmitOptions{})
	}
	b.StopTimer()
	if s.QueueLength() != saturatedQueue || s.BusyNodes() != 30 {
		b.Fatalf("left the steady state: %d queued, %d busy", s.QueueLength(), s.BusyNodes())
	}
}

// BenchmarkCanStartNowSaturated is the external scheduler's availability
// probe against the saturated cluster: the answer is no.
func BenchmarkCanStartNowSaturated(b *testing.B) {
	s, one := saturated(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.CanStartNowReq(one) {
			b.Fatal("saturated cluster reported available")
		}
	}
}

// TestFailedStartAttemptAllocatesNothing pins what the README promises of
// the allocation path: a scheduling pass in which every waiting job fails
// to start, and a failed availability probe, allocate nothing — whether or
// not a best-effort job is running for the preemption logic to look at.
func TestFailedStartAttemptAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name       string
		bestEffort int
	}{{"no best-effort job", 0}, {"10 best-effort jobs running", 10}} {
		s, probe := saturated(t, tc.bestEffort)
		if got := testing.AllocsPerRun(100, s.Schedule); got != 0 {
			t.Errorf("%s: a scheduling pass over %d stuck jobs allocates %v times", tc.name, saturatedQueue, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			if s.CanStartNowReq(probe) {
				t.Fatalf("%s: probe %q succeeded", tc.name, probe)
			}
		}); got != 0 {
			t.Errorf("%s: a failed availability probe allocates %v times", tc.name, got)
		}
		if s.QueueLength() != saturatedQueue {
			t.Errorf("%s: %d jobs waiting, want %d", tc.name, s.QueueLength(), saturatedQueue)
		}
	}
}
