package oar

// A scanning allocator, the oracle of a differential test: it allocates by
// name over the whole testbed and a busy map recounted from the jobs — no
// ordinal, span, fit or anchor of the server's in sight.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

// refAllocate is the scanning allocator, over a busy map (node name → job
// ID) the caller recounts from the jobs it holds and the whole testbed in
// order — an anchor only narrows what the expression already says: the
// first free, Alive matching nodes of each segment.
func (d *diffDriver) refAllocate(busy map[string]int, req Request) ([]string, bool) {
	var chosen []string
	for _, seg := range req.Segments {
		if seg.Nodes == AllNodes {
			matched := false
			for _, n := range d.tb.Nodes() {
				if slices.Contains(chosen, n.Name) || !seg.Expr.EvalNode(n) {
					continue
				}
				matched = true
				if n.State != testbed.Alive {
					return nil, false
				}
				if _, used := busy[n.Name]; used {
					return nil, false
				}
				chosen = append(chosen, n.Name)
			}
			if !matched {
				return nil, false
			}
			continue
		}
		var free []string
		for _, n := range d.tb.Nodes() {
			if slices.Contains(chosen, n.Name) || n.State != testbed.Alive {
				continue
			}
			if _, used := busy[n.Name]; used {
				continue
			}
			if seg.Expr.EvalNode(n) {
				free = append(free, n.Name)
			}
		}
		if len(free) < seg.Nodes {
			return nil, false
		}
		chosen = append(chosen, free[:seg.Nodes]...)
	}
	sort.Strings(chosen)
	return chosen, true
}

// diffDriver generates operations against one server and, after each,
// holds the server's answers against the reference's and its dense state
// against a recount from the jobs the driver holds — the driver, not the
// server, keeps every *Job ever submitted.
type diffDriver struct {
	t    *testing.T
	rng  interface{ Intn(n int) int } // a seeded *rand.Rand, or the fuzzer's bytes
	tb   *testbed.Testbed
	s    *Server
	reqs []Request // the request pool, parsed once
	jobs []*Job    // every job submitted: job ID i at jobs[i-1]
	want []JobInfo // what each job read when its state last changed
	seed int64
	op   int
}

// probesPerOp is how many pool requests are held against the reference
// after each operation.
const probesPerOp = 4

// diffSpec is a 93-node, 2-site, 5-cluster corner of the default testbed,
// small enough that the generated load keeps it contended.
var diffSpec = testbed.DefaultSpec[2:7]

func newDiffDriver(t *testing.T, seed int64) *diffDriver {
	tb := testbed.Generate(diffSpec)
	d := &diffDriver{
		t: t, rng: rand.New(rand.NewSource(seed)), tb: tb, seed: seed,
		s: NewServer(simclock.New(seed), tb),
	}
	var shapes []string
	for _, cl := range tb.Clusters() {
		host := cl.Nodes[len(cl.Nodes)/2].Name
		shapes = append(shapes,
			fmt.Sprintf("cluster='%s'/nodes=1,walltime=1", cl.Name),
			fmt.Sprintf("cluster='%s'/nodes=%d,walltime=2", cl.Name, len(cl.Nodes)/2+1),
			fmt.Sprintf("cluster='%s'/nodes=ALL,walltime=1", cl.Name),
			fmt.Sprintf("host='%s'/nodes=1,walltime=1", host),
			fmt.Sprintf("cluster='%s'/nodes=2+host='%s'/nodes=1,walltime=1", cl.Name, host),
		)
	}
	for _, site := range tb.SiteNames() {
		shapes = append(shapes,
			fmt.Sprintf("site='%s'/nodes=12,walltime=1", site),
			fmt.Sprintf("site='%s'/nodes=ALL,walltime=1", site),
			fmt.Sprintf("site='%s' and eth10g='N'/nodes=ALL,walltime=1", site),
		)
	}
	shapes = append(shapes,
		"nodes=ALL,walltime=1",
		"nodes=3,walltime=1",
		"nodes=40,walltime=3",
		"gpu='YES'/nodes=4,walltime=1",
		"ram_gb>=16/nodes=25,walltime=2",
		"gpu='YES'/nodes=ALL+cluster='dahu'/nodes=3,walltime=1",
		"cluster='chimint'/nodes=5+site='lille'/nodes=30+nodes=10,walltime=1",
	)
	for _, sh := range shapes {
		req, err := ParseRequest(sh)
		if err != nil {
			t.Fatalf("request pool: %v", err)
		}
		d.reqs = append(d.reqs, req)
	}
	// The gateway's site-scoped submission pins a filter-less request to
	// its site, one with a filter under an AND.
	for _, site := range tb.SiteNames() {
		d.reqs = append(d.reqs,
			MustParseRequest("nodes=ALL,walltime=1").PinnedToSite(site),
			MustParseRequest("gpu='NO'/nodes=ALL,walltime=1").PinnedToSite(site))
	}
	return d
}

func (d *diffDriver) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("seed %d op %d: %s", d.seed, d.op, fmt.Sprintf(format, args...))
}

func (d *diffDriver) pick() Request { return d.reqs[d.rng.Intn(len(d.reqs))] }

// track keeps a job the server returned.
func (d *diffDriver) track(j *Job) {
	for len(d.jobs) < j.ID {
		d.jobs = append(d.jobs, nil)
	}
	d.jobs[j.ID-1] = j
}

// jobsIn returns the IDs of the jobs in the given state, ascending.
func (d *diffDriver) jobsIn(st JobState) []int {
	var ids []int
	for _, j := range d.jobs {
		if j.State == st {
			ids = append(ids, j.ID)
		}
	}
	return ids
}

// refBusy recounts which running job holds each node.
func (d *diffDriver) refBusy() map[string]int {
	busy := map[string]int{}
	for _, j := range d.jobs {
		if j.State != Running {
			continue
		}
		for _, n := range j.Nodes {
			if other, dup := busy[n]; dup {
				d.fatalf("node %s allocated to jobs %d and %d", n, other, j.ID)
			}
			busy[n] = j.ID
		}
	}
	return busy
}

// names is the node names of the ordinals, nil for nil.
func (d *diffDriver) names(ords []int32) []string {
	if ords == nil {
		return nil
	}
	out := make([]string, len(ords))
	for i, o := range ords {
		out[i] = d.s.nodeList[o].Name
	}
	return out
}

// submit issues one submission and checks the decision the server took for
// it against the one the reference takes beforehand.
func (d *diffDriver) submit() {
	req := d.pick()
	opts := SubmitOptions{Immediate: d.rng.Intn(5) == 0}
	wantNodes, wantOK := d.refAllocate(d.refBusy(), req)
	j := d.s.SubmitReq(req, opts)
	d.track(j)
	if started := j.Nodes != nil; started != wantOK {
		d.fatalf("submit %q (immediate %v): started %v, reference %v", req, opts.Immediate, started, wantOK)
	}
	if wantOK && !reflect.DeepEqual(j.Nodes, wantNodes) {
		d.fatalf("submit %q: nodes %v, reference %v", req, j.Nodes, wantNodes)
	}
}

// step applies one random operation.
func (d *diffDriver) step() {
	switch r := d.rng.Intn(100); {
	case r < 55:
		d.submit()
	case r < 75:
		if running := d.jobsIn(Running); len(running) > 0 {
			if err := d.s.Release(running[d.rng.Intn(len(running))]); err != nil {
				d.fatalf("release: %v", err)
			}
		}
	case r < 82:
		if waiting := d.jobsIn(Waiting); len(waiting) > 0 {
			if err := d.s.Cancel(waiting[d.rng.Intn(len(waiting))]); err != nil {
				d.fatalf("cancel: %v", err)
			}
		}
	case r < 94:
		nodes := d.tb.Nodes()
		n := nodes[d.rng.Intn(len(nodes))]
		st := testbed.Alive
		if n.State == testbed.Alive {
			st = []testbed.NodeState{testbed.Absent, testbed.Suspected, testbed.Dead}[d.rng.Intn(3)]
		}
		if err := d.s.SetNodeState(n.Name, st); err != nil {
			d.fatalf("set state: %v", err)
		}
	default:
		// Let some walltimes expire.
		d.s.clock.RunFor(simclock.Time(1+d.rng.Intn(90)) * simclock.Minute)
	}
}

// check holds the dense state against a recount from the jobs, the queue
// to being settled, the history against the jobs themselves, and the
// answers the server gives right now to a few requests from the pool
// against the reference's.
func (d *diffDriver) check() {
	s := d.s
	busy := d.refBusy()
	for _, j := range d.jobs {
		if _, live := s.jobs[j.ID]; live != (j.State == Waiting || j.State == Running) {
			d.fatalf("job %d is %v; in the live table: %v", j.ID, j.State, live)
		}
	}
	for o, n := range s.nodeList {
		if id := busy[n.Name]; s.busy[o] != id {
			d.fatalf("node %s: busy %d; recounted from jobs %d", n.Name, s.busy[o], id)
		}
	}
	for k, sp := range s.spans {
		b := 0
		for _, n := range s.nodeList[sp.lo:sp.hi] {
			if busy[n.Name] != 0 {
				b++
			}
		}
		if sp.busy != b {
			d.fatalf("span %d [%d, %d): busy %d; recounted from jobs %d", k, sp.lo, sp.hi, sp.busy, b)
		}
	}
	d.checkQueue()
	d.checkSettled()
	d.checkHistory()
	for i := 0; i < probesPerOp; i++ {
		req := d.pick()
		ords, gotOK := s.allocate(req)
		gotNodes := d.names(ords)
		wantNodes, wantOK := d.refAllocate(busy, req)
		if gotOK != wantOK || (gotOK && !reflect.DeepEqual(gotNodes, wantNodes)) {
			d.fatalf("allocate %q: %v %v, reference %v %v", req, gotNodes, gotOK, wantNodes, wantOK)
		}
		if got := s.CanStartNowReq(req); got != wantOK {
			d.fatalf("CanStartNow %q: %v, reference %v", req, got, wantOK)
		}
	}
}

// checkQueue holds the queue's fit shadow to the queue: one fit per queued
// job, each the one its request gives, and every queued job Waiting.
func (d *diffDriver) checkQueue() {
	s := d.s
	if len(s.need) != len(s.queue) {
		d.fatalf("%d fits for %d queued jobs", len(s.need), len(s.queue))
	}
	for i, j := range s.queue {
		if j.State != Waiting {
			d.fatalf("queued job %d is %v", j.ID, j.State)
		}
		if want := s.fitOf(j.Request); s.need[i] != want {
			d.fatalf("queued job %d (%q): fit %+v, its request gives %+v", j.ID, j.Request, s.need[i], want)
		}
	}
}

// checkSettled holds the queue to what every operation leaves: no queued
// job can start right now. A release, an expiry and a node's return each
// run a pass, which starts every job that fits; a submission, a cancel and
// a node going down only add a job or take nodes away. A job its fit
// refuses is held to allocate too, so a fit that refuses a job allocate
// would start is caught here.
func (d *diffDriver) checkSettled() {
	for i, j := range d.s.queue {
		if _, ok := d.s.allocate(j.Request); ok {
			d.fatalf("queued job %d (%q, fit %+v, refused on it: %v) can start, yet it waits",
				j.ID, j.Request, d.s.need[i], d.s.refuses(d.s.need[i]))
		}
	}
}

// checkHistory holds what the server says of every job the driver ever
// submitted — read from the live job or from its record — against what the
// *Job the driver holds reads, and the error of a Cancel or Release it
// must refuse against the one the job's state gives. A job reads anew only
// when its state changes, so JobInfoByID is asked then; JobsInfo(0), which
// reads every job the way JobInfoByID does, is asked every time.
func (d *diffDriver) checkHistory() {
	for i, j := range d.jobs {
		if i == len(d.want) {
			d.want = append(d.want, JobInfo{})
		} else if d.want[i].State == j.State.String() {
			continue
		}
		d.want[i] = jobInfo(j)
		if got, ok := d.s.JobInfoByID(j.ID); !ok || !sameInfo(got, d.want[i]) {
			d.fatalf("JobInfoByID(%d) = %+v, %v; the job reads %+v", j.ID, got, ok, d.want[i])
		}
	}
	got := d.s.JobsInfo(0)
	if len(got) != len(d.jobs) {
		d.fatalf("JobsInfo(0) lists %d jobs, %d were submitted", len(got), len(d.jobs))
	}
	for i, info := range got {
		if want := d.want[len(got)-1-i]; !sameInfo(info, want) {
			d.fatalf("JobsInfo(0)[%d] = %+v; the job reads %+v", i, info, want)
		}
	}
	refused := func(err error, want string) {
		if err == nil || err.Error() != want {
			d.fatalf("refusal %v, want %q", err, want)
		}
	}
	refused(d.s.Release(len(d.jobs)+1), fmt.Sprintf("oar: no job %d", len(d.jobs)+1))
	if len(d.jobs) == 0 {
		return
	}
	j := d.jobs[d.rng.Intn(len(d.jobs))]
	if j.State != Running {
		refused(d.s.Release(j.ID), fmt.Sprintf("oar: job %d is %s, cannot release", j.ID, j.State))
	}
	if j.State != Waiting {
		refused(d.s.Cancel(j.ID), fmt.Sprintf("oar: job %d is %s, cannot cancel", j.ID, j.State))
	}
}

// sameInfo is reflect.DeepEqual of two JobInfos, without reflection: the
// history check compares every job after every operation.
func sameInfo(a, b JobInfo) bool {
	return a.ID == b.ID && a.User == b.User && a.Request == b.Request && a.State == b.State &&
		(a.Nodes == nil) == (b.Nodes == nil) && slices.Equal(a.Nodes, b.Nodes) &&
		a.SubmittedAtSec == b.SubmittedAtSec && a.StartedAtSec == b.StartedAtSec && a.EndedAtSec == b.EndedAtSec
}

// TestQueueFitsStayAlignedThroughCancels queues the whole request pool —
// nodes=N, nodes=ALL with and without a filter, host-anchored and
// multi-segment shapes — on a testbed it keeps contended, cancels from the
// middle of the queue, releases and takes nodes out of service and back
// now and then, and runs the oracle's checks after every operation: the
// fit shadow stays aligned with the queue and never refuses a job allocate
// would start.
func TestQueueFitsStayAlignedThroughCancels(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		d := newDiffDriver(t, seed)
		var unbounded, bounded, wholeSpan, notAlive bool
		do := func(op func()) {
			op()
			d.check()
			d.op++
			for i, f := range d.s.need {
				unbounded, bounded = unbounded || f.n == 0, bounded || f.n > 0
				wholeSpan = wholeSpan || f.n > 1 && d.s.queue[i].Request.Segments[0].Nodes == AllNodes
			}
			for _, n := range d.tb.Nodes() {
				notAlive = notAlive || n.State != testbed.Alive
			}
		}
		for i := 0; i < 150; i++ {
			req := d.reqs[i%len(d.reqs)]
			do(func() { d.track(d.s.SubmitReq(req, SubmitOptions{})) })
			if q := d.s.queue; i%3 == 2 && len(q) > 2 {
				id := q[1+d.rng.Intn(len(q)-2)].ID
				do(func() {
					if err := d.s.Cancel(id); err != nil {
						d.fatalf("cancel: %v", err)
					}
				})
			}
			if running := d.jobsIn(Running); i%5 == 4 && len(running) > 0 {
				id := running[d.rng.Intn(len(running))]
				do(func() {
					if err := d.s.Release(id); err != nil {
						d.fatalf("release: %v", err)
					}
				})
			}
			if i%4 == 1 {
				nodes := d.tb.Nodes()
				n := nodes[d.rng.Intn(len(nodes))]
				st := testbed.Alive
				if n.State == testbed.Alive {
					st = testbed.Suspected
				}
				do(func() {
					if err := d.s.SetNodeState(n.Name, st); err != nil {
						d.fatalf("set state: %v", err)
					}
				})
			}
		}
		if !unbounded || !bounded || !wholeSpan || !notAlive {
			t.Fatalf("seed %d: the queue never held an unbounded fit (%v), a bounded one (%v) or a whole-span one (%v), "+
				"or every node stayed alive (%v)", seed, unbounded, bounded, wholeSpan, notAlive)
		}
	}
}

// TestSchedulerMatchesScanReference drives a server through seeded random
// histories and, after every operation, asserts that its dense state
// answers exactly as the scanning reference does: chosen nodes and
// CanStartNow, the busy state and span counts against a recount, a settled
// queue, and every job's JobInfo against the job. A failure names the seed
// and the operation index.
func TestSchedulerMatchesScanReference(t *testing.T) {
	seeds, ops := 200, 300
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		d := newDiffDriver(t, seed)
		for d.op = 0; d.op < ops; d.op++ {
			d.step()
			d.check()
		}
	}
}
