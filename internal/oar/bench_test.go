package oar

// The scheduler's inner loop in the shape every federated micro-shard is
// in for most of a campaign: one cluster, every node busy, a long queue of
// cluster-anchored jobs re-walked on every release.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

const saturatedQueue = 120

// saturated returns a server over one 30-node cluster with every node held
// by a one-node job, the first bestEffort of them best-effort, and
// saturatedQueue normal jobs waiting behind them for one node more than
// preemption could give them — plus the request those waiting jobs carry.
func saturated(tb testing.TB, bestEffort int) (*Server, Request) {
	stuck := MustParseRequest(fmt.Sprintf("cluster='genepi'/nodes=%d,walltime=100", bestEffort+1))
	return queued(tb, bestEffort, stuck, saturatedQueue), stuck
}

// queued returns a server over genepi's 30 nodes, job IDs 1 to 30 holding
// one node each (the first bestEffort of them best-effort), with n normal
// jobs of the request stuck waiting behind them.
func queued(tb testing.TB, bestEffort int, stuck Request, n int) *Server {
	spec := testbed.DefaultSpec[1:2] // genepi, 30 nodes
	s := NewServer(simclock.New(1), testbed.Generate(spec))
	for i := 0; i < spec[0].NodeCount; i++ {
		j := s.SubmitReq(MustParseRequest("cluster='genepi'/nodes=1,walltime=100"), SubmitOptions{BestEffort: i < bestEffort})
		if j.State != Running {
			tb.Fatalf("filler job %d is %v", j.ID, j.State)
		}
	}
	for i := 0; i < n; i++ {
		if j := s.SubmitReq(stuck, SubmitOptions{}); j.State != Waiting {
			tb.Fatalf("queued job %d is %v", j.ID, j.State)
		}
	}
	return s
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
	if len(s.queue) != saturatedQueue || s.BusyNodes() != 30 {
		b.Fatalf("left the steady state: %d queued, %d busy", len(s.queue), s.BusyNodes())
	}
}

// BenchmarkSchedulePassSaturatedBestEffort is the release with 10 of the 30
// nodes held by best-effort jobs: the oldest of them ends, the pass fails
// all 120 waiting jobs — each may preempt, and the cluster's held count
// refuses it — and a new best-effort job takes the freed node.
func BenchmarkSchedulePassSaturatedBestEffort(b *testing.B) {
	const fillers = 10
	s, _ := saturated(b, fillers)
	one := ClusterRequest("genepi", 1, 100*simclock.Hour)
	var bestEffort [fillers]int // job IDs, oldest at i%fillers
	for i := range bestEffort {
		bestEffort[i] = i + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Release(bestEffort[i%fillers]); err != nil {
			b.Fatal(err)
		}
		j := s.SubmitReq(one, SubmitOptions{BestEffort: true})
		if j.State != Running {
			b.Fatalf("best-effort job %d is %v", j.ID, j.State)
		}
		bestEffort[i%fillers] = j.ID
	}
	b.StopTimer()
	if len(s.queue) != saturatedQueue || s.BusyNodes() != 30 || s.spans[0].held != fillers {
		b.Fatalf("left the steady state: %d queued, %d busy, %d held", len(s.queue), s.BusyNodes(), s.spans[0].held)
	}
}

// longQueue is how long a federated micro-shard's queue is for most of a
// campaign (the median over shards, seed 1, three weeks).
const longQueue = 124

// BenchmarkReleaseBehindLongQueue is one release on a cluster whose
// longQueue waiting jobs each need two nodes: the pass refuses every one
// of them on its fit, and a one-node resubmission takes the freed node
// back.
func BenchmarkReleaseBehindLongQueue(b *testing.B) {
	s := queued(b, 0, ClusterRequest("genepi", 2, 100*simclock.Hour), longQueue)
	one := ClusterRequest("genepi", 1, 100*simclock.Hour)
	var running [30]int // job IDs, oldest at i%30
	for i := range running {
		running[i] = i + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Release(running[i%30]); err != nil {
			b.Fatal(err)
		}
		j := s.SubmitReq(one, SubmitOptions{})
		if j.State != Running {
			b.Fatalf("resubmitted job %d is %v", j.ID, j.State)
		}
		running[i%30] = j.ID
	}
	b.StopTimer()
	if len(s.queue) != longQueue || s.BusyNodes() != 30 {
		b.Fatalf("left the steady state: %d queued, %d busy", len(s.queue), s.BusyNodes())
	}
}

// TestReleaseBehindALongQueueAllocatesNothing: a release whose pass can
// start none of longQueue waiting jobs allocates nothing. Each waiting job
// needs the whole cluster, so none fits while the measured releases run.
func TestReleaseBehindALongQueueAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation guards run without the race detector")
	}
	s := queued(t, 0, ClusterRequest("genepi", 30, 100*simclock.Hour), longQueue)
	next := 1
	if got := testing.AllocsPerRun(20, func() {
		if err := s.Release(next); err != nil {
			t.Fatal(err)
		}
		next++
	}); got != 0 {
		t.Errorf("a release behind %d stuck jobs allocates %v times", len(s.queue), got)
	}
	if len(s.queue) != longQueue || s.BusyNodes() != 30-21 {
		t.Errorf("%d queued, %d busy; want %d and %d", len(s.queue), s.BusyNodes(), longQueue, 30-21)
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
		pass := func() {
			s.mu.Lock()
			s.scheduleLocked()
			s.mu.Unlock()
		}
		if got := testing.AllocsPerRun(100, pass); got != 0 {
			t.Errorf("%s: a scheduling pass over %d stuck jobs allocates %v times", tc.name, saturatedQueue, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			if s.CanStartNowReq(probe) {
				t.Fatalf("%s: probe %q succeeded", tc.name, probe)
			}
		}); got != 0 {
			t.Errorf("%s: a failed availability probe allocates %v times", tc.name, got)
		}
		if len(s.queue) != saturatedQueue {
			t.Errorf("%s: %d jobs waiting, want %d", tc.name, len(s.queue), saturatedQueue)
		}
	}
}

// raceDetector is set by race_test.go; allocation guards skip under it.
var raceDetector bool

// TestSubmissionAllocatesTheJobAndItsNodes: a submission that starts — and
// runs to its walltime — allocates the Job and the slice of node names it
// got, nothing else: no closure or event for the walltime (the event lives
// in the Job), no string, no parse. One that has to wait allocates the Job.
func TestSubmissionAllocatesTheJobAndItsNodes(t *testing.T) {
	if raceDetector {
		t.Skip("allocation guards run without the race detector")
	}
	c, _, s := newServer()
	req := ClusterRequest("taurus", 2, simclock.Hour)
	cycle := func() {
		if j := s.SubmitReq(req, SubmitOptions{User: "user"}); j.State != Running {
			t.Fatalf("job %d is %v", j.ID, j.State)
		}
		c.RunFor(simclock.Hour) // the walltime expires and frees the nodes
	}
	for i := 0; i < 200; i++ {
		cycle() // grow the job table and the clock's queue past the measured runs
	}
	if got := testing.AllocsPerRun(100, cycle); got > 2 {
		t.Errorf("submit, run, expire allocates %v times; want the Job and its node slice", got)
	}
	if s.BusyNodes() != 0 {
		t.Fatalf("%d nodes still busy", s.BusyNodes())
	}
	all := ClusterRequest("taurus", AllNodes, simclock.Hour)
	s.SubmitReq(all, SubmitOptions{})
	if got := testing.AllocsPerRun(100, func() { s.SubmitReq(all, SubmitOptions{}) }); got > 1 {
		t.Errorf("a submission that waits allocates %v times; want the Job", got)
	}
}

// TestFinishedJobsAreNotRetained: once a job has run out its walltime or
// been canceled, the server keeps a record of it, not the *Job — how long
// that lives is up to whoever submitted it. The records still answer.
func TestFinishedJobsAreNotRetained(t *testing.T) {
	c, _, s := newServer()
	var ran, canceled weak.Pointer[Job]
	func() {
		j := s.SubmitReq(ClusterRequest("taurus", 2, simclock.Hour), SubmitOptions{User: "user"})
		s.SubmitReq(ClusterRequest("sol", AllNodes, 2*simclock.Hour), SubmitOptions{})
		w := s.SubmitReq(ClusterRequest("sol", 1, simclock.Hour), SubmitOptions{})
		if j.State != Running || w.State != Waiting {
			t.Fatalf("jobs are %v and %v, want Running and Waiting", j.State, w.State)
		}
		if err := s.Cancel(w.ID); err != nil {
			t.Fatal(err)
		}
		ran, canceled = weak.Make(j), weak.Make(w)
	}()
	c.RunFor(90 * simclock.Minute) // taurus's walltime expires
	runtime.GC()
	if ran.Value() != nil {
		t.Error("the server still holds a job that ran out its walltime")
	}
	if canceled.Value() != nil {
		t.Error("the server still holds a canceled job")
	}
	for id, want := range map[int]string{1: "Terminated", 3: "Canceled"} {
		if info, ok := s.JobInfoByID(id); !ok || info.State != want {
			t.Errorf("job %d reads %+v, %v; want %s", id, info, ok, want)
		}
	}
}

// TestOnStartIsDroppedOnceFired: the callback runs once and the job's
// record does not keep what it captured.
func TestOnStartIsDroppedOnceFired(t *testing.T) {
	_, _, s := newServer()
	fired := 0
	j := s.SubmitReq(ClusterRequest("taurus", 1, simclock.Hour), SubmitOptions{OnStart: func(*Job) { fired++ }})
	if fired != 1 || j.OnStart != nil {
		t.Fatalf("fired %d times, OnStart kept: %v", fired, j.OnStart != nil)
	}
}

// TestRequestCacheStopsGrowingWhenFull: the table of parsed wire strings
// takes reqCacheSize entries and no more; what it holds stays, what comes
// later is parsed each time and answers the same.
func TestRequestCacheStopsGrowingWhenFull(t *testing.T) {
	_, _, s := newServer()
	probe := func(i int) string { return fmt.Sprintf("cluster='taurus'/nodes=1,walltime=%d", i+1) }
	for round := 0; round < 2; round++ {
		for i := 0; i < reqCacheSize+10; i++ {
			if ok, err := s.CanStartNow(probe(i)); err != nil || !ok {
				t.Fatalf("probe %d: %v, %v", i, ok, err)
			}
		}
		if len(s.reqCache) != reqCacheSize {
			t.Fatalf("cache holds %d entries, want %d", len(s.reqCache), reqCacheSize)
		}
	}
	for i, want := range map[int]bool{0: true, reqCacheSize - 1: true, reqCacheSize: false} {
		if _, ok := s.reqCache[probe(i)]; ok != want {
			t.Errorf("entry %d cached: %v, want %v", i, ok, want)
		}
	}
}

// TestClusterRequestEqualsItsParse: the constructor builds what the parser
// builds from the text it prints.
func TestClusterRequestEqualsItsParse(t *testing.T) {
	for _, r := range []Request{
		ClusterRequest("edel", 3, 5*simclock.Hour),
		ClusterRequest("sol", AllNodes, simclock.Hour),
		ClusterRequest("graphene-r2", 1, 90*simclock.Minute),
		ClusterRequest("1e3", 2, simclock.Hour), // a name that reads as a number compares as one, both ways
	} {
		parsed, err := ParseRequest(r.String())
		if err != nil {
			t.Fatalf("%q: %v", r.String(), err)
		}
		if !reflect.DeepEqual(parsed, r) {
			t.Errorf("ClusterRequest %#v\nParseRequest(%q) %#v", r, r.String(), parsed)
		}
	}
}
