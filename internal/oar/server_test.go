package oar

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

func newServer() (*simclock.Clock, *testbed.Testbed, *Server) {
	c := simclock.New(5)
	tb := testbed.Default()
	return c, tb, NewServer(c, tb)
}

func TestSubmitStartsImmediatelyWhenFree(t *testing.T) {
	_, _, s := newServer()
	j, err := s.Submit("cluster='taurus'/nodes=2,walltime=1", SubmitOptions{User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Running {
		t.Fatalf("state = %v, want Running", j.State)
	}
	if len(j.Nodes) != 2 {
		t.Fatalf("assigned %d nodes", len(j.Nodes))
	}
	for _, n := range j.Nodes {
		if got := s.busy[s.ordinal[n]]; got != j.ID {
			t.Fatalf("node %s busy with job %d", n, got)
		}
	}
}

func TestWalltimeExpiryFreesNodes(t *testing.T) {
	c, _, s := newServer()
	j, _ := s.Submit("cluster='sol'/nodes=5,walltime=2", SubmitOptions{})
	if j.State != Running {
		t.Fatal("job did not start")
	}
	c.RunUntil(simclock.Hour)
	if j.State != Running {
		t.Fatal("job ended before walltime")
	}
	c.RunUntil(3 * simclock.Hour)
	if j.State != Terminated {
		t.Fatalf("state = %v after walltime", j.State)
	}
	if s.BusyNodes() != 0 {
		t.Fatalf("busy = %d after expiry", s.BusyNodes())
	}
	if j.EndedAt != 2*simclock.Hour {
		t.Fatalf("ended at %v", j.EndedAt)
	}
}

func TestQueueingAndFCFS(t *testing.T) {
	c, _, s := newServer()
	// sol has 20 nodes; take them all, then queue two more jobs.
	j1, _ := s.Submit("cluster='sol'/nodes=ALL,walltime=1", SubmitOptions{})
	if j1.State != Running {
		t.Fatal("j1 did not start")
	}
	j2, _ := s.Submit("cluster='sol'/nodes=12,walltime=1", SubmitOptions{})
	j3, _ := s.Submit("cluster='sol'/nodes=12,walltime=1", SubmitOptions{})
	if j2.State != Waiting || j3.State != Waiting {
		t.Fatalf("j2=%v j3=%v, want Waiting", j2.State, j3.State)
	}
	if len(s.queue) != 2 {
		t.Fatalf("queue = %d", len(s.queue))
	}
	c.RunUntil(90 * simclock.Minute)
	// After j1 ends, j2 starts; j3 (needs 12 of 20, 12 busy) still waits.
	if j2.State != Running {
		t.Fatalf("j2 = %v after j1 finished", j2.State)
	}
	if j3.State != Waiting {
		t.Fatalf("j3 = %v, want Waiting", j3.State)
	}
	c.RunUntil(4 * simclock.Hour)
	if j3.State != Terminated {
		t.Fatalf("j3 = %v at end", j3.State)
	}
}

func TestFirstFitSkipsStuckJob(t *testing.T) {
	_, tb, s := newServer()
	// Make one sol node Suspected so nodes=ALL on sol can never start.
	tb.Node("sol-1.sophia").State = testbed.Suspected
	big, _ := s.Submit("cluster='sol'/nodes=ALL,walltime=1", SubmitOptions{})
	if big.State != Waiting {
		t.Fatalf("big = %v, want Waiting", big.State)
	}
	// A later small job must still start (first-fit).
	small, _ := s.Submit("cluster='sol'/nodes=2,walltime=1", SubmitOptions{})
	if small.State != Running {
		t.Fatalf("small = %v, want Running", small.State)
	}
}

func TestImmediateCancelsWhenBusy(t *testing.T) {
	_, _, s := newServer()
	s.Submit("cluster='hercule'/nodes=ALL,walltime=10", SubmitOptions{})
	j, err := s.Submit("cluster='hercule'/nodes=1,walltime=1", SubmitOptions{Immediate: true})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Canceled {
		t.Fatalf("immediate job = %v, want Canceled", j.State)
	}
	_, _, canceled := s.Stats()
	if canceled != 1 {
		t.Fatalf("canceled counter = %d", canceled)
	}
}

func TestImmediateStartsWhenFree(t *testing.T) {
	_, _, s := newServer()
	j, _ := s.Submit("cluster='hercule'/nodes=1,walltime=1", SubmitOptions{Immediate: true})
	if j.State != Running {
		t.Fatalf("immediate job = %v, want Running", j.State)
	}
}

func TestReleaseEarly(t *testing.T) {
	c, _, s := newServer()
	j, _ := s.Submit("cluster='uvb'/nodes=4,walltime=5", SubmitOptions{})
	c.RunUntil(10 * simclock.Minute)
	if err := s.Release(j.ID); err != nil {
		t.Fatal(err)
	}
	if j.State != Terminated || s.BusyNodes() != 0 {
		t.Fatal("release did not free resources")
	}
	// The walltime event must not re-finish the job.
	c.RunUntil(6 * simclock.Hour)
	if j.EndedAt != 10*simclock.Minute {
		t.Fatalf("EndedAt = %v", j.EndedAt)
	}
	if err := s.Release(j.ID); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestCancelWaitingOnly(t *testing.T) {
	_, _, s := newServer()
	j1, _ := s.Submit("cluster='sol'/nodes=ALL,walltime=1", SubmitOptions{})
	j2, _ := s.Submit("cluster='sol'/nodes=1,walltime=1", SubmitOptions{})
	if err := s.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	if j2.State != Canceled {
		t.Fatal("cancel failed")
	}
	if err := s.Cancel(j1.ID); err == nil {
		t.Fatal("canceled a running job")
	}
	if err := s.Cancel(9999); err == nil {
		t.Fatal("canceled a ghost job")
	}
}

func TestOnStartFires(t *testing.T) {
	c, _, s := newServer()
	s.Submit("cluster='sol'/nodes=ALL,walltime=1", SubmitOptions{})
	started := simclock.Time(-1)
	s.Submit("cluster='sol'/nodes=3,walltime=1", SubmitOptions{
		OnStart: func(j *Job) { started = c.Now() },
	})
	c.Run()
	if started != simclock.Hour {
		t.Fatalf("OnStart at %v, want 1h", started)
	}
}

func TestOnStartCanReleaseSynchronously(t *testing.T) {
	c, _, s := newServer()
	// A job whose payload finishes instantly and releases itself, plus a
	// queued successor: exercises Schedule's re-entrancy guard.
	s.Submit("cluster='sol'/nodes=ALL,walltime=4", SubmitOptions{})
	var j2, j3 *Job
	j2, _ = s.Submit("cluster='sol'/nodes=ALL,walltime=4", SubmitOptions{
		OnStart: func(j *Job) { s.Release(j.ID) },
	})
	j3, _ = s.Submit("cluster='sol'/nodes=2,walltime=1", SubmitOptions{})
	c.Run()
	if j2.State != Terminated || j3.State != Terminated {
		t.Fatalf("j2=%v j3=%v", j2.State, j3.State)
	}
	// j2 released at its own start time, so j3 started then too.
	if j3.StartedAt != j2.StartedAt {
		t.Fatalf("j3 started %v, j2 %v", j3.StartedAt, j2.StartedAt)
	}
}

func TestOnStartCanSubmitSynchronously(t *testing.T) {
	c, _, s := newServer()
	var child *Job
	s.Submit("cluster='uvb'/nodes=1,walltime=1", SubmitOptions{
		OnStart: func(j *Job) {
			child, _ = s.Submit("cluster='uvb'/nodes=1,walltime=1", SubmitOptions{})
		},
	})
	c.Run()
	if child == nil || child.State != Terminated {
		t.Fatalf("child = %+v", child)
	}
}

func TestMultiSegmentAllocation(t *testing.T) {
	_, _, s := newServer()
	j, err := s.Submit("cluster='adonis' and gpu='YES'/nodes=1+cluster='grisou' and eth10g='Y'/nodes=2,walltime=2", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Running || len(j.Nodes) != 3 {
		t.Fatalf("state=%v nodes=%v", j.State, j.Nodes)
	}
	adonis, grisou := 0, 0
	for _, n := range j.Nodes {
		switch {
		case n[:6] == "adonis":
			adonis++
		case n[:6] == "grisou":
			grisou++
		}
	}
	if adonis != 1 || grisou != 2 {
		t.Fatalf("allocation split: %v", j.Nodes)
	}
}

func TestAllNodesRequiresWholeClusterAlive(t *testing.T) {
	_, tb, s := newServer()
	tb.Node("graphite-2.nancy").State = testbed.Dead
	ok, err := s.CanStartNow("cluster='graphite'/nodes=ALL,walltime=1")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("ALL satisfiable with a dead node")
	}
	tb.Node("graphite-2.nancy").State = testbed.Alive
	ok, _ = s.CanStartNow("cluster='graphite'/nodes=ALL,walltime=1")
	if !ok {
		t.Fatal("ALL unsatisfiable on healthy cluster")
	}
}

func TestSetNodeStateUnblocksQueue(t *testing.T) {
	_, tb, s := newServer()
	tb.Node("hercule-1.lyon").State = testbed.Suspected
	j, _ := s.Submit("cluster='hercule'/nodes=ALL,walltime=1", SubmitOptions{})
	if j.State != Waiting {
		t.Fatal("job started with suspected node")
	}
	if err := s.SetNodeState("hercule-1.lyon", testbed.Alive); err != nil {
		t.Fatal(err)
	}
	if j.State != Running {
		t.Fatalf("job = %v after node healed", j.State)
	}
	if err := s.SetNodeState("ghost-1.limbo", testbed.Alive); err == nil {
		t.Fatal("SetNodeState accepted unknown node")
	}
}

func TestCanStartNowParseError(t *testing.T) {
	_, _, s := newServer()
	if _, err := s.CanStartNow("((("); err == nil {
		t.Fatal("bad request accepted")
	}
}

func TestNoOverlapBetweenConcurrentJobs(t *testing.T) {
	c, _, s := newServer()
	var jobs []*Job
	for i := 0; i < 30; i++ {
		j, _ := s.Submit("cluster='griffon'/nodes=5,walltime=1", SubmitOptions{})
		jobs = append(jobs, j)
	}
	// At any step, assert no node is double-booked.
	for c.Step() {
		seen := map[string]int{}
		for _, j := range jobs {
			if j.State != Running {
				continue
			}
			for _, n := range j.Nodes {
				if prev, dup := seen[n]; dup {
					t.Fatalf("node %s in jobs %d and %d", n, prev, j.ID)
				}
				seen[n] = j.ID
			}
		}
	}
	sub, started, _ := s.Stats()
	if sub != 30 || started != 30 {
		t.Fatalf("stats: submitted=%d started=%d", sub, started)
	}
}

func TestJobStateString(t *testing.T) {
	for st, want := range map[JobState]string{
		Waiting: "Waiting", Running: "Running", Terminated: "Terminated", Canceled: "Canceled",
	} {
		if st.String() != want {
			t.Errorf("%d = %q", int(st), st.String())
		}
	}
	if JobState(9).String() != "JobState(9)" {
		t.Error("unknown state formatting")
	}
}

// TestAnchoredNarrowingUnknownNames covers the nil-slice paths of
// segmentCandidates: requests anchored on a site, cluster or host that
// does not exist select the empty candidate set, so they queue instead of
// panicking or matching anything.
func TestAnchoredNarrowingUnknownNames(t *testing.T) {
	_, _, s := newServer()
	for _, req := range []string{
		"site='atlantis'/nodes=2,walltime=1",
		"cluster='unobtainium'/nodes=1,walltime=1",
		"host='ghost-1.atlantis'/nodes=1,walltime=1",
		"site='atlantis'/nodes=ALL,walltime=1",
	} {
		ok, err := s.CanStartNow(req)
		if err != nil {
			t.Fatalf("CanStartNow(%q): %v", req, err)
		}
		if ok {
			t.Fatalf("CanStartNow(%q) = true for an unknown anchor", req)
		}
		j, err := s.Submit(req, SubmitOptions{User: "alice"})
		if err != nil {
			t.Fatalf("Submit(%q): %v", req, err)
		}
		if j.State != Waiting {
			t.Fatalf("Submit(%q) = %s, want Waiting (unsatisfiable)", req, j.State)
		}
	}
	if sub, started, _ := s.Stats(); sub != 4 || started != 0 {
		t.Fatalf("stats after unknown-anchor submits: submitted=%d started=%d", sub, started)
	}
}

// TestAnchoredNarrowingEmptyValues: an anchor with an empty value
// (site=”/...) must behave like any other unknown name — the empty
// candidate set, not the whole testbed.
func TestAnchoredNarrowingEmptyValues(t *testing.T) {
	_, _, s := newServer()
	for _, req := range []string{
		"site=''/nodes=1,walltime=1",
		"cluster=''/nodes=2,walltime=1",
		"host=''/nodes=1,walltime=1",
	} {
		parsed, err := ParseRequest(req)
		if err != nil {
			t.Fatalf("ParseRequest(%q): %v", req, err)
		}
		key, val := parsed.Segments[0].Anchor()
		if key == "" || val != "" {
			t.Fatalf("anchor of %q = (%q, %q), want a keyed empty value", req, key, val)
		}
		if cands, _, _ := s.segmentCandidates(parsed.Segments[0]); len(cands) != 0 {
			t.Fatalf("segmentCandidates(%q) = %d nodes, want 0", req, len(cands))
		}
		if s.CanStartNowReq(parsed) {
			t.Fatalf("CanStartNowReq(%q) = true on an empty anchor", req)
		}
	}
}

// TestAnchoredNarrowingMatchesFullScan: for every anchored request shape,
// the narrowed allocation must agree with what the un-anchored expression
// would select — the anchor is an optimization, not a semantic change.
func TestAnchoredNarrowingMatchesFullScan(t *testing.T) {
	_, tb, s := newServer()
	// An AND chain anchored on site narrows to the site but still applies
	// the rest of the expression.
	j, err := s.Submit("site='lyon' and gpu='YES'/nodes=ALL,walltime=1", SubmitOptions{User: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Running {
		t.Fatalf("gpu-at-lyon request = %s, want Running", j.State)
	}
	orion := tb.Cluster("orion") // lyon's only GPU cluster
	if len(j.Nodes) != len(orion.Nodes) {
		t.Fatalf("allocated %d nodes, want orion's %d", len(j.Nodes), len(orion.Nodes))
	}
	for _, n := range j.Nodes {
		if node := tb.Node(n); node == nil || node.Cluster != "orion" {
			t.Fatalf("node %s is not in orion", n)
		}
	}
	// Under OR the site constraint is no longer necessary: no anchor, full
	// scan, and nodes outside lyon may match.
	parsed := MustParseRequest("site='lyon' or site='nancy'/nodes=1,walltime=1")
	if key, val := parsed.Segments[0].Anchor(); key != "" || val != "" {
		t.Fatalf("OR expression anchored to (%q, %q)", key, val)
	}
	if cands, _, _ := s.segmentCandidates(parsed.Segments[0]); len(cands) != tb.TotalNodes() {
		t.Fatalf("OR candidates = %d, want full scan %d", len(cands), tb.TotalNodes())
	}
}

// TestSpansAreClustersAndSites: every cluster and every site is one
// contiguous range of ordinals, span 0 is the whole testbed, and each
// node's cluster and site spans are the ones that hold it.
func TestSpansAreClustersAndSites(t *testing.T) {
	for _, tb := range []*testbed.Testbed{testbed.Default(), testbed.Generate(testbed.ScaledSpec(2))} {
		s := NewServer(simclock.New(1), tb)
		if sp := s.spans[0]; !slices.Equal(s.nodeList[sp.lo:sp.hi], tb.Nodes()) {
			t.Fatalf("span 0 is [%d, %d), want the %d nodes", sp.lo, sp.hi, len(tb.Nodes()))
		}
		for _, c := range tb.Clusters() {
			if sp := s.spans[s.byCluster[c.Name]]; !slices.Equal(s.nodeList[sp.lo:sp.hi], c.Nodes) {
				t.Fatalf("cluster %s: span [%d, %d) is not its nodes", c.Name, sp.lo, sp.hi)
			}
		}
		for _, site := range tb.Sites {
			if sp := s.spans[s.bySite[site.Name]]; !slices.Equal(s.nodeList[sp.lo:sp.hi], site.Nodes()) {
				t.Fatalf("site %s: span [%d, %d) is not its nodes", site.Name, sp.lo, sp.hi)
			}
		}
		for o, n := range s.nodeList {
			if s.clusterOf[o] != s.byCluster[n.Cluster] || s.siteOf[o] != s.bySite[n.Site] || s.ordinal[n.Name] != int32(o) {
				t.Fatalf("node %s at %d: cluster span %d, site span %d, ordinal %d", n.Name, o, s.clusterOf[o], s.siteOf[o], s.ordinal[n.Name])
			}
		}
	}
}

// TestNewServerRefusesASplitCluster: a cluster whose nodes are not one run
// of the testbed's order — here edel at grenoble and again at lille — has
// no span, and the server says so at construction.
func TestNewServerRefusesASplitCluster(t *testing.T) {
	spec := []testbed.ClusterSpec{testbed.DefaultSpec[0], testbed.DefaultSpec[1], testbed.DefaultSpec[0]}
	spec[2].Site = "lille"
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"edel" are not contiguous`) {
			t.Fatalf("NewServer over a split cluster: recovered %v", r)
		}
	}()
	NewServer(simclock.New(1), testbed.Generate(spec))
}
