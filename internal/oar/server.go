package oar

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

// JobState is the lifecycle state of an OAR job.
type JobState int

const (
	// Waiting means the job is queued, not yet allocated.
	Waiting JobState = iota
	// Running means resources are allocated and the walltime is ticking.
	Running
	// Terminated means the job ended (normally or via early release).
	Terminated
	// Canceled means the job was withdrawn before it started.
	Canceled
)

func (s JobState) String() string {
	switch s {
	case Waiting:
		return "Waiting"
	case Running:
		return "Running"
	case Terminated:
		return "Terminated"
	case Canceled:
		return "Canceled"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Job is one resource reservation.
type Job struct {
	ID      int
	User    string
	Request Request
	State   JobState

	SubmittedAt simclock.Time
	StartedAt   simclock.Time
	EndedAt     simclock.Time

	// Nodes assigned while Running/Terminated.
	Nodes []string

	walltime simclock.Event // the walltime expiry, armed by startJob
}

// Server is the OAR resource manager of one testbed. The monolithic
// framework runs one over the whole grid; a federation runs one per cluster
// micro-shard, over that cluster's nodes — as Grid'5000 runs one OAR per
// site. Either way it keeps the scheduling semantics the paper's framework
// interacts with.
//
// The server has no lock: it belongs to the goroutine stepping its clock.
// CI build scripts submit and release jobs from clock events (see
// internal/ci); the gateway reaches it only under the shard gate, whose
// write side it takes for SubmitReq and for CanStartNowReq, which reuses
// allocate's scratch.
//
// Its state is dense. A node is its ordinal, its position in tb.Nodes(),
// where every cluster and every site is one contiguous range (NewServer
// checks it); live state is indexed by ordinal, and a finished job is a
// pointer-free record (history.go), not the *Job its submitter may still
// hold. The waiting queue has a dense shadow, need, which holds what each
// queued job asks of its span, so a pass over a saturated queue refuses
// most jobs without reading them.
type Server struct {
	clock *simclock.Clock
	tb    *testbed.Testbed

	nextID int
	jobs   map[int]*Job // waiting and running jobs; finished ones are in hist
	queue  []*Job       // waiting jobs, FCFS order
	need   []fit        // need[i] is queue[i]'s fit: dropQueued keeps them aligned
	hist   history

	// busy is each node's running job ID (0: free). startJob and
	// Release are the only places it changes, and they keep the spans'
	// counts in step.
	busy []int

	// spans[0] is the whole testbed, then one span per cluster and per site
	// (byCluster, bySite name them; clusterOf, siteOf give a node's). Their
	// counts know nothing of node state, which flips behind the server
	// (testbed.SetNodeState, tests writing Node.State), so a span's size
	// minus busy only bounds what it can give: allocate uses it to reject,
	// never to choose.
	spans             []span
	byCluster, bySite map[string]int32
	clusterOf, siteOf []int32

	// The node list is static (topology never changes); expressions
	// evaluate directly against live node state (Expr.EvalNode), so no
	// property maps are built on the allocation path. Requests anchored on
	// cluster='x', site='y' or host='z' scan only that range of ordinals.
	nodeList []*testbed.Node
	ordinal  map[string]int32 // node name → ordinal
	byName   func(a, b int32) int

	expire func(job any) // walltimeExpired as a value, made once

	// chosenScratch holds allocate's in-progress selection across attempts;
	// only a successful start copies the result out.
	chosenScratch []int32

	// stats
	submitted, started, canceled int
}

// span is a contiguous range of node ordinals [lo, hi) with how many of
// them running jobs hold.
type span struct {
	lo, hi int32
	busy   int
}

// room bounds how many nodes the span can give a request right now.
func (sp *span) room() int { return int(sp.hi-sp.lo) - sp.busy }

// fit is what a queued job needs of one span before allocate can start it:
// at least n free nodes. n is 0 when no span bounds the request (a host
// anchor, several segments).
type fit struct{ n, sp int32 }

// fitOf computes the fit of a request. A single counted segment needs its
// count. A nodes=ALL segment whose expression matches its whole span (its
// anchor's equality alone, or no expression at all) needs every node of the
// span, since allocate takes all of them. One with any other filter needs
// one node: with none free in its span no matching node can be taken, but a
// busy node may be one its filter leaves out.
func (s *Server) fitOf(req Request) fit {
	if len(req.Segments) != 1 {
		return fit{}
	}
	seg := req.Segments[0]
	k, ok := s.spanOf(seg)
	if !ok {
		return fit{}
	}
	n := int32(seg.Nodes)
	if seg.Nodes == AllNodes {
		n = 1
		if seg.matchesWholeSpan() {
			n = s.spans[k].hi - s.spans[k].lo
		}
	}
	return fit{n: n, sp: k}
}

// refuses reports whether allocate would refuse the job of fit f right now
// on its span's counts alone — allocate's own first test. For a whole-span
// nodes=ALL fit, room below the span's size means some node is busy, which
// is exactly allocate's busy test for that segment.
func (s *Server) refuses(f fit) bool {
	return f.n > 0 && s.spans[f.sp].room() < int(f.n)
}

// NewServer returns an OAR server over the testbed. It panics if a cluster
// or a site is not one contiguous run of tb.Nodes(), which testbed.Generate
// never builds.
func NewServer(clock *simclock.Clock, tb *testbed.Testbed) *Server {
	nodes := tb.Nodes()
	s := &Server{
		clock:     clock,
		tb:        tb,
		jobs:      map[int]*Job{},
		busy:      make([]int, len(nodes)),
		spans:     []span{{hi: int32(len(nodes))}},
		byCluster: map[string]int32{},
		bySite:    map[string]int32{},
		clusterOf: make([]int32, len(nodes)),
		siteOf:    make([]int32, len(nodes)),
		nodeList:  nodes,
		ordinal:   make(map[string]int32, len(nodes)),
	}
	for i, n := range nodes {
		o := int32(i)
		s.ordinal[n.Name] = o
		s.clusterOf[o] = s.extendSpan(s.byCluster, n.Cluster, o)
		s.siteOf[o] = s.extendSpan(s.bySite, n.Site, o)
	}
	s.byName = func(a, b int32) int { return strings.Compare(nodes[a].Name, nodes[b].Name) }
	s.expire = s.walltimeExpired
	return s
}

// extendSpan adds node o to the span index names, opening it at o. A span
// that does not end right before o is not contiguous.
func (s *Server) extendSpan(index map[string]int32, name string, o int32) int32 {
	k, ok := index[name]
	if !ok {
		k = int32(len(s.spans))
		index[name] = k
		s.spans = append(s.spans, span{lo: o, hi: o})
	}
	if s.spans[k].hi != o {
		panic(fmt.Sprintf("oar: the nodes of %q are not contiguous in testbed order", name))
	}
	s.spans[k].hi++
	return k
}

// spanOf is the span a segment's parse-time anchor names: its cluster's,
// its site's, or the whole testbed's when it has none. ok is false for a
// host anchor and for a name the testbed does not have.
func (s *Server) spanOf(seg Segment) (k int32, ok bool) {
	switch seg.anchorKey {
	case "cluster":
		k, ok = s.byCluster[seg.anchorVal]
	case "site":
		k, ok = s.bySite[seg.anchorVal]
	case "":
		ok = true
	}
	return k, ok
}

// segmentCandidates narrows the nodes a segment can possibly match using
// its parse-time anchor, falling back to the whole testbed. It returns the
// nodes, the ordinal of the first, and the span they make up (nil for a
// host: one node needs no count).
func (s *Server) segmentCandidates(seg Segment) ([]*testbed.Node, int32, *span) {
	if seg.anchorKey == "host" {
		o, ok := s.ordinal[seg.anchorVal]
		if !ok {
			return nil, 0, nil
		}
		return s.nodeList[o : o+1], o, nil
	}
	k, ok := s.spanOf(seg)
	if !ok {
		return nil, 0, nil
	}
	sp := &s.spans[k]
	return s.nodeList[sp.lo:sp.hi], sp.lo, sp
}

// SubmitOptions tweak job submission.
type SubmitOptions struct {
	User string
	// Immediate cancels the job if it cannot start at submission time —
	// slide 17: "if that testbed job fails to be scheduled immediately, it
	// is cancelled and the build is marked as unstable".
	Immediate bool
}

// Submit parses and enqueues a resource request, then attempts to schedule
// the queue. The returned job's State tells the caller what happened:
// Running (scheduled now), Waiting (queued), or Canceled (Immediate was set
// and resources were unavailable).
func (s *Server) Submit(request string, opts SubmitOptions) (*Job, error) {
	req, err := ParseRequest(request)
	if err != nil {
		return nil, err
	}
	return s.SubmitReq(req, opts), nil
}

// SubmitReq is Submit for a pre-parsed request — nothing can fail. The
// federated gateway submits through it after pinning site constraints
// onto the parsed form (Request.PinnedToSite).
func (s *Server) SubmitReq(req Request, opts SubmitOptions) *Job {
	s.nextID++
	j := &Job{
		ID:          s.nextID,
		User:        opts.User,
		Request:     req,
		State:       Waiting,
		SubmittedAt: s.clock.Now(),
	}
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j)
	s.need = append(s.need, s.fitOf(req))
	s.submitted++
	// A new submission can only start itself (first-fit: it cannot free
	// resources for anyone else), so try just this job instead of walking
	// the whole waiting queue — submissions are the hot path.
	last := len(s.queue) - 1
	if !s.refuses(s.need[last]) {
		if nodes, ok := s.allocate(req); ok {
			s.dropQueued(last)
			s.startJob(j, nodes)
		}
	}
	if opts.Immediate && j.State == Waiting {
		s.Cancel(j.ID)
	}
	return j
}

// Cancel withdraws a waiting job. Canceling a running or finished job is an
// error; use Release to end a running job early.
func (s *Server) Cancel(id int) error {
	j := s.jobs[id]
	if j == nil || j.State != Waiting {
		return s.refusal(id, "cancel")
	}
	j.State = Canceled
	j.EndedAt = s.clock.Now()
	s.removeFromQueue(j)
	s.canceled++
	s.retire(j)
	return nil
}

// Release ends a running job — before its walltime (tests finishing early
// free resources for the next test), or at it — takes it off its nodes and
// retires it, then passes over the queue: the freed nodes may start queued
// jobs.
func (s *Server) Release(id int) error {
	j := s.jobs[id]
	if j == nil || j.State != Running {
		return s.refusal(id, "release")
	}
	j.State = Terminated
	j.EndedAt = s.clock.Now()
	j.walltime.Cancel()
	for _, o := range s.retire(j) {
		s.busy[o] = 0
		s.count(o, -1)
	}
	s.schedulePass()
	return nil
}

// refusal is the error of a Cancel or Release (verb) of job id, which
// does not exist or is in the wrong state for it.
func (s *Server) refusal(id int, verb string) error {
	var st JobState
	if j := s.jobs[id]; j != nil {
		st = j.State
	} else if r := s.hist.get(id); r != nil {
		st = JobState(r.state)
	} else {
		return fmt.Errorf("oar: no job %d", id)
	}
	return fmt.Errorf("oar: job %d is %s, cannot %s", id, st, verb)
}

// retire moves a finished job from jobs to its record and returns the
// node ordinals recorded for it. The caller's *Job stays valid; the server
// just no longer holds it.
func (s *Server) retire(j *Job) []int32 {
	delete(s.jobs, j.ID)
	return s.hist.add(j, s.ordinal)
}

// count adds d to the busy count of the three spans holding node o.
func (s *Server) count(o int32, d int) {
	for _, k := range [...]int32{0, s.clusterOf[o], s.siteOf[o]} {
		s.spans[k].busy += d
	}
}

func (s *Server) removeFromQueue(j *Job) {
	if i := slices.Index(s.queue, j); i >= 0 {
		s.dropQueued(i)
	}
}

// dropQueued removes queue[i] and its fit, clearing the slot it vacates so
// the queue's backing array does not keep the job. The usual job to go is
// the oldest — started first or abandoned by its user — and it leaves by
// advancing the slices, not by shifting every pointer behind it (a write
// barrier each while the collector marks); a last one leaves the arrays in
// place for the next submission.
func (s *Server) dropQueued(i int) {
	if i == 0 && len(s.queue) > 1 {
		s.queue[0] = nil
		s.queue, s.need = s.queue[1:], s.need[1:]
		return
	}
	s.queue = slices.Delete(s.queue, i, i+1)
	s.need = slices.Delete(s.need, i, i+1)
}

// startJob transitions a waiting job to Running on the given nodes. The
// caller is responsible for removing the job from the queue.
func (s *Server) startJob(j *Job, nodes []int32) {
	j.State = Running
	j.StartedAt = s.clock.Now()
	j.Nodes = make([]string, len(nodes))
	for i, o := range nodes {
		j.Nodes[i] = s.nodeList[o].Name
		s.busy[o] = j.ID
		s.count(o, 1)
	}
	s.started++
	s.clock.Arm(&j.walltime, j.Request.Walltime, s.expire, j)
}

// walltimeExpired ends a job that ran out its walltime.
func (s *Server) walltimeExpired(job any) {
	if j := job.(*Job); j.State == Running {
		s.Release(j.ID)
	}
}

// schedulePass walks the waiting queue once, starting every job that fits.
// Jobs are considered in FCFS order but a stuck
// job does not block later ones (first-fit, i.e. conservative backfilling
// without reservations — OAR proper uses a Gantt, but what matters to the
// paper's external scheduler is only that whole-cluster jobs wait a long
// time under contention, which first-fit preserves). One pass settles the
// queue: starting a job only takes nodes, so a job the pass refused stays
// refused until something frees a node or brings one back.
//
// A job its fit refuses is passed over without reading the *Job: on a
// saturated cluster that is nearly every job. The walk stops once no node
// of the testbed is free: every request needs at least one, so every job
// left would be refused, and a refused attempt changes nothing.
func (s *Server) schedulePass() {
	i := 0
	for i < len(s.queue) && s.spans[0].room() > 0 {
		if s.refuses(s.need[i]) {
			i++
			continue
		}
		j := s.queue[i]
		nodes, ok := s.allocate(j.Request)
		if !ok {
			i++
			continue
		}
		s.dropQueued(i)
		s.startJob(j, nodes)
	}
}

// allocate tries to satisfy every segment of the request with distinct
// free, Alive nodes, returning the chosen ordinals sorted by node name, or
// ok=false. The returned slice is scratch, valid until the next call.
//
// This is the scheduler's hottest path (every Submit, every availability
// probe, every queued job on every release): candidates come pre-narrowed
// by the segment anchor, a counted segment its span cannot hold is refused
// without a scan, expressions evaluate against live node state without
// property maps, and all working storage is reused scratch — an attempt
// allocates nothing.
func (s *Server) allocate(req Request) ([]int32, bool) {
	chosen := s.chosenScratch[:0]
	defer func() {
		// Store the buffer back only when append grew it: the store is a
		// pointer write, which costs a write barrier while the collector
		// marks, and allocate runs for every waiting job on every release.
		if cap(chosen) != cap(s.chosenScratch) {
			s.chosenScratch = chosen[:0]
		}
	}()
	// Nodes already claimed by an earlier segment of the same request are
	// skipped; requests are at most a few segments of bounded size, so a
	// linear scan beats a map here.
	multi := len(req.Segments) > 1
	for _, seg := range req.Segments {
		cands, base, sp := s.segmentCandidates(seg)
		if seg.Nodes == AllNodes {
			// Every matching node must exist, be Alive and be free.
			matched := false
			for i, n := range cands {
				o := base + int32(i)
				if multi && slices.Contains(chosen, o) {
					continue
				}
				if !seg.Expr.EvalNode(n) {
					continue
				}
				matched = true
				if n.State != testbed.Alive || s.busy[o] != 0 {
					return nil, false
				}
				chosen = append(chosen, o)
			}
			if !matched {
				return nil, false
			}
			continue
		}
		if sp != nil && sp.room() < seg.Nodes {
			return nil, false
		}
		// First-fit: the first N free candidates in testbed order.
		want := len(chosen) + seg.Nodes
		for i, n := range cands {
			o := base + int32(i)
			if s.busy[o] != 0 || n.State != testbed.Alive || multi && slices.Contains(chosen, o) || !seg.Expr.EvalNode(n) {
				continue
			}
			if chosen = append(chosen, o); len(chosen) == want {
				break
			}
		}
		if len(chosen) < want {
			return nil, false
		}
	}
	slices.SortFunc(chosen, s.byName)
	return chosen, true
}

// ---- availability queries (used by the external test scheduler) ----

// CanStartNowReq reports whether the request could be allocated right now.
// Callers parse once and probe many times: the external scheduler at
// registration, the gateway per request.
func (s *Server) CanStartNowReq(req Request) bool {
	_, ok := s.allocate(req)
	return ok
}

// BusyNodes returns how many nodes are currently allocated.
func (s *Server) BusyNodes() int { return s.spans[0].busy }

// Stats reports cumulative submission counters.
func (s *Server) Stats() (submitted, started, canceled int) {
	return s.submitted, s.started, s.canceled
}

// SetNodeState changes a node's OAR state (Alive/Absent/Suspected/Dead).
// Marking a busy node non-Alive does not kill its job (matching OAR, where
// suspecting happens at job epilogue); it only prevents new allocations.
func (s *Server) SetNodeState(nodeName string, st testbed.NodeState) error {
	if !s.tb.SetNodeState(nodeName, st) {
		return fmt.Errorf("oar: unknown node %q", nodeName)
	}
	if st == testbed.Alive {
		s.schedulePass() // a healed node may unblock the queue
	}
	return nil
}

// ResourceInfo is a point-in-time view of one node as OAR sees it: its
// administrative state plus the job occupying it, if any. This is the wire
// form behind the gateway's /oar/resources endpoint (the equivalent of
// oarnodes / the OAR REST API's resource listing).
type ResourceInfo struct {
	Name    string `json:"name"`
	Cluster string `json:"cluster"`
	Site    string `json:"site"`
	State   string `json:"state"`
	JobID   int    `json:"job_id,omitempty"`
}

// Resources snapshots every node's allocation state in testbed order,
// optionally narrowed to one cluster (empty = all; an unknown name selects
// the empty subset — the gateway turns that into its 404).
func (s *Server) Resources(cluster string) []ResourceInfo {
	sp := s.spans[0]
	if cluster != "" {
		sp = span{}
		if k, ok := s.byCluster[cluster]; ok {
			sp = s.spans[k]
		}
	}
	out := make([]ResourceInfo, 0, sp.hi-sp.lo)
	for o := sp.lo; o < sp.hi; o++ {
		n := s.nodeList[o]
		out = append(out, ResourceInfo{
			Name:    n.Name,
			Cluster: n.Cluster,
			Site:    n.Site,
			State:   n.State.String(),
			JobID:   s.busy[o],
		})
	}
	return out
}

// JobInfo is a point-in-time copy of one job's externally visible state —
// the wire form behind the gateway's /oar/jobs endpoint (oarstat).
type JobInfo struct {
	ID             int      `json:"id"`
	User           string   `json:"user,omitempty"`
	Request        string   `json:"request"`
	State          string   `json:"state"`
	Nodes          []string `json:"nodes,omitempty"`
	SubmittedAtSec float64  `json:"submitted_at_sec"`
	StartedAtSec   float64  `json:"started_at_sec,omitempty"`
	EndedAtSec     float64  `json:"ended_at_sec,omitempty"`
}

// JobsInfo snapshots the most recently submitted limit jobs (0 = all),
// newest first. Node name slices are copied, so callers may hold the result
// while the scheduler keeps running.
func (s *Server) JobsInfo(limit int) []JobInfo {
	if limit <= 0 || limit > s.nextID {
		limit = s.nextID
	}
	out := make([]JobInfo, 0, limit)
	for id := s.nextID; id >= 1 && len(out) < limit; id-- {
		if info, ok := s.JobInfoByID(id); ok {
			out = append(out, info)
		}
	}
	return out
}

// JobInfoByID copies job id's externally visible state from the live job or
// its record; ok is false when the job is unknown. The copy is safe to read
// while the scheduler keeps mutating the live object.
func (s *Server) JobInfoByID(id int) (JobInfo, bool) {
	if r := s.hist.get(id); r != nil {
		return s.hist.info(id, r, s.nodeList), true
	}
	if j := s.jobs[id]; j != nil {
		return jobInfo(j), true
	}
	return JobInfo{}, false
}

// jobInfo copies one live job's externally visible state.
func jobInfo(j *Job) JobInfo {
	return JobInfo{
		ID:             j.ID,
		User:           j.User,
		Request:        j.Request.String(),
		State:          j.State.String(),
		Nodes:          append([]string(nil), j.Nodes...),
		SubmittedAtSec: j.SubmittedAt.Seconds(),
		StartedAtSec:   j.StartedAt.Seconds(),
		EndedAtSec:     j.EndedAt.Seconds(),
	}
}
