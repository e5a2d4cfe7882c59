package oar

// The scan-based preemption fallback the server used before it kept the
// best-effort holdings incrementally, kept as the oracle of a differential
// test: on every failed allocation it re-derives who is best-effort by
// walking a busy map recounted from the jobs and looking each holder up,
// and allocates by name over the whole testbed with those nodes hidden and
// penalized — no ordinal, span or anchor of the server's in sight.

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

// refAllocatePreferring is the old allocatePreferring, over a busy map
// (node name → job ID) the caller recounts from the jobs it holds and the
// whole testbed in order — an anchor only narrows what the expression
// already says: free nodes only, non-penalized ones first.
func (d *diffDriver) refAllocatePreferring(busy map[string]int, req Request, penalized map[string]bool) ([]string, bool) {
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
		var free []*testbed.Node
		for _, n := range d.tb.Nodes() {
			if slices.Contains(chosen, n.Name) || n.State != testbed.Alive {
				continue
			}
			if _, used := busy[n.Name]; used {
				continue
			}
			if seg.Expr.EvalNode(n) {
				free = append(free, n)
			}
		}
		if len(free) < seg.Nodes {
			return nil, false
		}
		// Stable partition: genuinely free nodes first.
		sort.SliceStable(free, func(i, j int) bool {
			return !penalized[free[i].Name] && penalized[free[j].Name]
		})
		for _, n := range free[:seg.Nodes] {
			chosen = append(chosen, n.Name)
		}
	}
	sort.Strings(chosen)
	return chosen, true
}

// refAllocateWithPreemption is the old allocateWithPreemption: it finds
// who is best-effort by looking each holder in busy up among the jobs,
// hides those nodes, and allocates with them penalized.
func (d *diffDriver) refAllocateWithPreemption(busy map[string]int, req Request) (nodes []string, victims []int, ok bool) {
	hidden := map[string]int{}
	for node, jobID := range busy {
		if d.jobs[jobID-1].bestEffort {
			hidden[node] = jobID
		}
	}
	if len(hidden) == 0 {
		return nil, nil, false
	}
	rest := maps.Clone(busy)
	penalized := make(map[string]bool, len(hidden))
	for node := range hidden {
		delete(rest, node)
		penalized[node] = true
	}
	nodes, ok = d.refAllocatePreferring(rest, req, penalized)
	if !ok {
		return nil, nil, false
	}
	seen := map[int]bool{}
	for _, node := range nodes {
		if jobID, held := hidden[node]; held && !seen[jobID] {
			seen[jobID] = true
			victims = append(victims, jobID)
		}
	}
	return nodes, victims, true
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
			fmt.Sprintf("site='%s' and eth10g='N'/nodes=ALL,walltime=1", site),
		)
	}
	shapes = append(shapes,
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

// submit issues one top-level submission and checks the decision the
// server took for it against the one the reference takes beforehand. With
// nest > 0 the job's OnStart submits again from inside the callback.
func (d *diffDriver) submit(nest int) {
	req := d.pick()
	opts := SubmitOptions{BestEffort: d.rng.Intn(3) == 0, Immediate: d.rng.Intn(5) == 0}
	if nest > 0 {
		inner, innerBE := d.pick(), d.rng.Intn(2) == 0
		opts.OnStart = func(*Job) { d.track(d.s.SubmitReq(inner, SubmitOptions{BestEffort: innerBE})) }
	}
	busy := d.refBusy()
	wantNodes, wantOK := d.refAllocatePreferring(busy, req, nil)
	var wantVictims []int
	if !wantOK && !opts.BestEffort {
		wantNodes, wantVictims, wantOK = d.refAllocateWithPreemption(busy, req)
	}
	j := d.s.SubmitReq(req, opts)
	d.track(j)
	if started := j.Nodes != nil; started != wantOK {
		d.fatalf("submit %q (best-effort %v): started %v, reference %v", req, opts.BestEffort, started, wantOK)
	}
	if wantOK && !reflect.DeepEqual(j.Nodes, wantNodes) {
		d.fatalf("submit %q: nodes %v, reference %v", req, j.Nodes, wantNodes)
	}
	for _, id := range wantVictims {
		if st := d.jobs[id-1].State; st != Preempted {
			d.fatalf("submit %q: reference victim %d is %v", req, id, st)
		}
	}
}

// step applies one random operation.
func (d *diffDriver) step() {
	switch r := d.rng.Intn(100); {
	case r < 45:
		d.submit(0)
	case r < 55:
		d.submit(1)
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

// check holds the dense state against a recount from the jobs, the history
// against the jobs themselves, and the answers the server gives right now
// to a few requests from the pool against the reference's.
func (d *diffDriver) check() {
	s := d.s
	busy := d.refBusy()
	for _, j := range d.jobs {
		if _, live := s.jobs[j.ID]; live != (j.State == Waiting || j.State == Running) {
			d.fatalf("job %d is %v; in the live table: %v", j.ID, j.State, live)
		}
	}
	for o, n := range s.nodeList {
		id := busy[n.Name]
		be := id != 0 && d.jobs[id-1].bestEffort
		if s.busy[o] != id || s.preemptable[o] != be {
			d.fatalf("node %s: busy %d, best-effort %v; recounted from jobs %d, %v", n.Name, s.busy[o], s.preemptable[o], id, be)
		}
	}
	for k, sp := range s.spans {
		b, h := 0, 0
		for _, n := range s.nodeList[sp.lo:sp.hi] {
			if id := busy[n.Name]; id != 0 {
				b++
				if d.jobs[id-1].bestEffort {
					h++
				}
			}
		}
		if sp.busy != b || sp.held != h {
			d.fatalf("span %d [%d, %d): busy %d, held %d; recounted from jobs %d, %d", k, sp.lo, sp.hi, sp.busy, sp.held, b, h)
		}
	}
	d.checkQueue()
	d.checkHistory()
	for i := 0; i < probesPerOp; i++ {
		req := d.pick()
		ords, gotOK := s.allocate(req, false)
		gotNodes := d.names(ords)
		wantNodes, wantOK := d.refAllocatePreferring(busy, req, nil)
		if gotOK != wantOK || (gotOK && !reflect.DeepEqual(gotNodes, wantNodes)) {
			d.fatalf("allocate %q: %v %v, reference %v %v", req, gotNodes, gotOK, wantNodes, wantOK)
		}
		// The reference falls back to preemption only when the plain
		// attempt fails; the server decides both in one pass.
		var wantVictims []int
		if !wantOK {
			wantNodes, wantVictims, wantOK = d.refAllocateWithPreemption(busy, req)
		}
		ords, gotVictims, gotOK := s.allocateWithPreemption(req, true)
		gotNodes = d.names(ords)
		if gotOK != wantOK || !reflect.DeepEqual(gotNodes, wantNodes) || !reflect.DeepEqual(gotVictims, wantVictims) {
			d.fatalf("preempting %q: nodes %v victims %v %v, reference nodes %v victims %v %v",
				req, gotNodes, gotVictims, gotOK, wantNodes, wantVictims, wantOK)
		}
		if got := s.CanStartNowReq(req); got != wantOK {
			d.fatalf("CanStartNow %q: %v, reference %v", req, got, wantOK)
		}
	}
}

// checkQueue holds the queue's fit shadow to the queue and to allocate:
// one fit per queued job, each the one its request and mode give, every
// queued job Waiting, and no job refused by its fit that allocate would
// start right now.
func (d *diffDriver) checkQueue() {
	s := d.s
	if len(s.need) != len(s.queue) {
		d.fatalf("%d fits for %d queued jobs", len(s.need), len(s.queue))
	}
	for i, j := range s.queue {
		if j.State != Waiting {
			d.fatalf("queued job %d is %v", j.ID, j.State)
		}
		if want := s.fitOf(j.Request, j.bestEffort); s.need[i] != want {
			d.fatalf("queued job %d (%q): fit %+v, its request gives %+v", j.ID, j.Request, s.need[i], want)
		}
		if !s.refuses(s.need[i]) {
			continue
		}
		if _, _, ok := s.allocateWithPreemption(j.Request, !j.bestEffort); ok {
			d.fatalf("queued job %d (%q): its fit %+v refuses it, allocate starts it", j.ID, j.Request, s.need[i])
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
		d.want[i] = jobInfoLocked(j)
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
// nodes=N, nodes=ALL, host-anchored and multi-segment shapes, a third of
// them best-effort — on a testbed it keeps contended, cancels from the
// middle of the queue and releases now and then, and runs the oracle's
// checks after every operation: the fit shadow stays aligned with the
// queue and never refuses a job allocate would start.
func TestQueueFitsStayAlignedThroughCancels(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		d := newDiffDriver(t, seed)
		var unbounded, bounded, bestEffort bool
		do := func(op func()) {
			op()
			d.check()
			d.op++
			for _, f := range d.s.need {
				unbounded, bounded, bestEffort = unbounded || f.n == 0, bounded || f.n > 0, bestEffort || f.bestEffort
			}
		}
		for i := 0; i < 150; i++ {
			req, be := d.reqs[i%len(d.reqs)], d.rng.Intn(3) == 0
			do(func() { d.track(d.s.SubmitReq(req, SubmitOptions{BestEffort: be})) })
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
		}
		if !unbounded || !bounded || !bestEffort {
			t.Fatalf("seed %d: the queue never held an unbounded fit (%v), a bounded one (%v) and a best-effort one (%v)",
				seed, unbounded, bounded, bestEffort)
		}
	}
}

// TestPreemptionMatchesScanReference drives a server through seeded random
// histories and, after every operation, asserts that the incremental
// best-effort bookkeeping answers exactly as the scanning reference does:
// chosen nodes, victims, CanStartNow, the busy state and
// span counts against a recount, and every job's JobInfo against the job.
// A failure names the seed and the operation index.
func TestPreemptionMatchesScanReference(t *testing.T) {
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
