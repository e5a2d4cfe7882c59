package oar

// The scan-based preemption fallback the server used before it kept the
// best-effort holdings incrementally, kept as the oracle of a differential
// test: on every failed allocation it re-derives who is best-effort by
// walking busy and looking each holder up in jobs, hides those nodes from
// busy, allocates with them penalized, and puts them back.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

// refAllocatePreferring is the old allocatePreferring: free nodes only,
// non-penalized ones first.
func (s *Server) refAllocatePreferring(req Request, penalized map[string]bool) ([]string, bool) {
	var chosen []string
	isTaken := func(name string) bool {
		for _, t := range chosen {
			if t == name {
				return true
			}
		}
		return false
	}
	for _, seg := range req.Segments {
		cands := s.segmentCandidates(seg)
		if seg.Nodes == AllNodes {
			matched := false
			for _, n := range cands {
				if isTaken(n.Name) || !seg.Expr.EvalNode(n) {
					continue
				}
				matched = true
				if n.State != testbed.Alive {
					return nil, false
				}
				if _, used := s.busy[n.Name]; used {
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
		for _, n := range cands {
			if isTaken(n.Name) || n.State != testbed.Alive {
				continue
			}
			if _, used := s.busy[n.Name]; used {
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

// refAllocateWithPreemption is the old allocateWithPreemption.
func (s *Server) refAllocateWithPreemption(req Request) (nodes []string, victims []int, ok bool) {
	hidden := map[string]int{}
	for node, jobID := range s.busy {
		if j := s.jobs[jobID]; j != nil && j.bestEffort {
			hidden[node] = jobID
		}
	}
	if len(hidden) == 0 {
		return nil, nil, false
	}
	penalized := make(map[string]bool, len(hidden))
	for node := range hidden {
		delete(s.busy, node)
		penalized[node] = true
	}
	nodes, ok = s.refAllocatePreferring(req, penalized)
	for node, jobID := range hidden {
		s.busy[node] = jobID
	}
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

// refFreeOrPreemptable is the old FreeOrPreemptable, mutex not taken.
func (s *Server) refFreeOrPreemptable(e Expr) int {
	count := 0
	for _, n := range s.nodeList {
		if n.State != testbed.Alive {
			continue
		}
		if jobID, used := s.busy[n.Name]; used {
			if j := s.jobs[jobID]; j == nil || !j.bestEffort {
				continue
			}
		}
		if e.EvalNode(n) {
			count++
		}
	}
	return count
}

// diffDriver generates operations against one server and, after each,
// holds the server's answers against the reference's.
type diffDriver struct {
	t    *testing.T
	rng  *rand.Rand
	tb   *testbed.Testbed
	s    *Server
	reqs []Request // the request pool, parsed once
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

// jobsIn returns the IDs of the jobs in the given state, ascending.
func (d *diffDriver) jobsIn(st JobState) []int {
	var ids []int
	for id, j := range d.s.jobs {
		if j.State == st {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// submit issues one top-level submission and checks the decision the
// server took for it against the one the reference takes beforehand. With
// nest > 0 the job's OnStart submits again from inside the callback.
func (d *diffDriver) submit(nest int) {
	req := d.pick()
	opts := SubmitOptions{BestEffort: d.rng.Intn(3) == 0, Immediate: d.rng.Intn(5) == 0}
	if nest > 0 {
		inner, innerBE := d.pick(), d.rng.Intn(2) == 0
		opts.OnStart = func(*Job) { d.s.SubmitReq(inner, SubmitOptions{BestEffort: innerBE}) }
	}
	wantNodes, wantOK := d.s.refAllocatePreferring(req, nil)
	var wantVictims []int
	if !wantOK && !opts.BestEffort {
		wantNodes, wantVictims, wantOK = d.s.refAllocateWithPreemption(req)
	}
	j := d.s.SubmitReq(req, opts)
	if started := j.Nodes != nil; started != wantOK {
		d.fatalf("submit %q (best-effort %v): started %v, reference %v", req, opts.BestEffort, started, wantOK)
	}
	if wantOK && !reflect.DeepEqual(j.Nodes, wantNodes) {
		d.fatalf("submit %q: nodes %v, reference %v", req, j.Nodes, wantNodes)
	}
	for _, id := range wantVictims {
		if st := d.s.jobs[id].State; st != Preempted {
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

// check holds the maintained state against a recount from jobs, and the
// answers the server gives right now to a few requests from the pool
// against the reference's.
func (d *diffDriver) check() {
	s := d.s
	busy, preemptable, preempted := map[string]int{}, map[string]int{}, 0
	for id, j := range s.jobs {
		switch j.State {
		case Preempted:
			preempted++
		case Running:
			for _, n := range j.Nodes {
				if other, dup := busy[n]; dup {
					d.fatalf("node %s allocated to jobs %d and %d", n, other, id)
				}
				busy[n] = id
				if j.bestEffort {
					preemptable[n] = id
				}
			}
		}
	}
	if !reflect.DeepEqual(s.busy, busy) {
		d.fatalf("busy map %v, recomputed from jobs %v", s.busy, busy)
	}
	if !reflect.DeepEqual(s.preemptable, preemptable) {
		d.fatalf("best-effort holdings %v, recomputed from jobs %v", s.preemptable, preemptable)
	}
	if got := s.PreemptedCount(); got != preempted {
		d.fatalf("PreemptedCount %d, %d jobs are Preempted", got, preempted)
	}
	for i := 0; i < probesPerOp; i++ {
		req := d.pick()
		gotNodes, gotOK := s.allocate(req, false)
		wantNodes, wantOK := s.refAllocatePreferring(req, nil)
		if gotOK != wantOK || (gotOK && !reflect.DeepEqual(gotNodes, wantNodes)) {
			d.fatalf("allocate %q: %v %v, reference %v %v", req, gotNodes, gotOK, wantNodes, wantOK)
		}
		// The reference falls back to preemption only when the plain
		// attempt fails; the server decides both in one pass.
		var wantVictims []int
		if !wantOK {
			wantNodes, wantVictims, wantOK = s.refAllocateWithPreemption(req)
		}
		gotNodes, gotVictims, gotOK := s.allocateWithPreemption(req, true)
		if gotOK != wantOK || !reflect.DeepEqual(gotNodes, wantNodes) || !reflect.DeepEqual(gotVictims, wantVictims) {
			d.fatalf("preempting %q: nodes %v victims %v %v, reference nodes %v victims %v %v",
				req, gotNodes, gotVictims, gotOK, wantNodes, wantVictims, wantOK)
		}
		if got := s.CanStartNowReq(req); got != wantOK {
			d.fatalf("CanStartNow %q: %v, reference %v", req, got, wantOK)
		}
		for _, seg := range req.Segments {
			if got, want := s.FreeOrPreemptable(seg.Expr), s.refFreeOrPreemptable(seg.Expr); got != want {
				d.fatalf("FreeOrPreemptable %q: %d, reference %d", seg.Expr, got, want)
			}
		}
	}
}

// TestPreemptionMatchesScanReference drives a server through seeded random
// histories and, after every operation, asserts that the incremental
// best-effort bookkeeping answers exactly as the scanning reference does:
// chosen nodes, victims, PreemptedCount, FreeOrPreemptable, CanStartNow,
// and the maintained holdings against a recount. A failure names the seed
// and the operation index.
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
