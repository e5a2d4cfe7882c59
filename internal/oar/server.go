package oar

import (
	"fmt"
	"slices"
	"strings"
	"sync"

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
	case Preempted:
		return "Preempted"
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

	// OnStart fires when the job's resources are allocated; test jobs run
	// their payload from here. The server drops it once fired.
	OnStart func(j *Job)

	bestEffort bool
	walltime   simclock.Event // the walltime expiry, armed by startJob
}

// Server is the OAR resource manager of one testbed. The monolithic
// framework runs one over the whole grid; a federation runs one per cluster
// micro-shard, over that cluster's nodes — as Grid'5000 runs one OAR per
// site. Either way it keeps the scheduling semantics the paper's framework
// interacts with.
//
// The server is safe for concurrent use: CI build scripts run on executor
// goroutines (see internal/ci) and submit/release jobs while the event
// loop runs walltime expiries, so every public method takes the server
// mutex. OnStart callbacks always fire with the mutex released — they may
// re-enter the server (Submit/Release from a callback is the normal test
// payload pattern).
//
// Its state is dense. A node is its ordinal, its position in tb.Nodes(),
// where every cluster and every site is one contiguous range (NewServer
// checks it); live state is indexed by ordinal, and a finished job is a
// pointer-free record (history.go), not the *Job its submitter may still
// hold. The waiting queue has a dense shadow, need, which holds what each
// queued job asks of its span, so a pass over a saturated queue refuses
// most jobs without reading them.
type Server struct {
	mu    sync.Mutex
	clock *simclock.Clock
	tb    *testbed.Testbed

	nextID int
	jobs   map[int]*Job // waiting and running jobs; finished ones are in hist
	queue  []*Job       // waiting jobs, FCFS order
	need   []fit        // need[i] is queue[i]'s fit: dropQueued keeps them aligned
	hist   history

	// busy is each node's running job ID (0: free); preemptable marks the
	// part of it held by best-effort jobs. startJob and endJob are the only
	// places either changes, and they keep the spans' counts in step.
	busy        []int
	preemptable []bool

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

	// reqCache interns parsed requests by their source string, for the wire,
	// where clients repeat a few shapes (the campaign's own submissions
	// arrive parsed: SubmitReq, CanStartNowReq). Once it holds reqCacheSize
	// it takes no more: later strings are parsed each time, none is dropped.
	reqCache map[string]Request

	expire func(job any) // walltimeExpired as a value, made once

	// Scratch ordinals reused across allocation attempts (all access is
	// under the server mutex). chosen/free/held hold the in-progress
	// selection; only a successful start copies the result out.
	chosenScratch, freeScratch, heldScratch []int32

	// Re-entrancy guard: OnStart callbacks may Submit or Release
	// synchronously, which re-invokes Schedule.
	inSchedule bool
	again      bool

	// stats
	submitted, started, canceled, preempted int
}

// span is a contiguous range of node ordinals [lo, hi) with how many of
// them running jobs hold (busy) and how many of those are best-effort
// (held).
type span struct {
	lo, hi     int32
	busy, held int
}

// room bounds how many nodes the span can give a request right now.
func (sp *span) room(preempting bool) int {
	r := int(sp.hi-sp.lo) - sp.busy
	if preempting {
		r += sp.held
	}
	return r
}

// fit is what a queued job needs of one span before allocate can start it:
// at least n nodes that are free, or takeable when it may preempt. n is 0
// when no span bounds the request (a host anchor, several segments).
type fit struct {
	n, sp      int32
	bestEffort bool
}

// fitOf computes the fit of a request. A single counted segment needs its
// count; nodes=ALL needs one node, since with none free or takeable in its
// span no matching node can be taken.
func (s *Server) fitOf(req Request, bestEffort bool) fit {
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
	}
	return fit{n: n, sp: k, bestEffort: bestEffort}
}

// refuses reports whether allocate would refuse the job of fit f right now
// on its span's counts alone — allocate's own first test, with the held
// count read now, as allocateWithPreemption reads it.
func (s *Server) refuses(f fit) bool {
	return f.n > 0 && s.spans[f.sp].room(!f.bestEffort && s.spans[0].held > 0) < int(f.n)
}

// NewServer returns an OAR server over the testbed. It panics if a cluster
// or a site is not one contiguous run of tb.Nodes(), which testbed.Generate
// never builds.
func NewServer(clock *simclock.Clock, tb *testbed.Testbed) *Server {
	nodes := tb.Nodes()
	s := &Server{
		clock:       clock,
		tb:          tb,
		jobs:        map[int]*Job{},
		busy:        make([]int, len(nodes)),
		preemptable: make([]bool, len(nodes)),
		spans:       []span{{hi: int32(len(nodes))}},
		byCluster:   map[string]int32{},
		bySite:      map[string]int32{},
		clusterOf:   make([]int32, len(nodes)),
		siteOf:      make([]int32, len(nodes)),
		nodeList:    nodes,
		ordinal:     make(map[string]int32, len(nodes)),
		reqCache:    map[string]Request{},
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

const reqCacheSize = 1024 // request families are small

// parseRequestCached is ParseRequest through the server's intern table.
// The cached Request (including its Segments slice) is shared between
// callers and must be treated as read-only — which every consumer does.
// The caller holds the mutex.
func (s *Server) parseRequestCachedLocked(request string) (Request, error) {
	if req, ok := s.reqCache[request]; ok {
		return req, nil
	}
	req, err := ParseRequest(request)
	if err != nil {
		return Request{}, err
	}
	if len(s.reqCache) < reqCacheSize {
		s.reqCache[request] = req
	}
	return req, nil
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
	// BestEffort runs the job on idle resources only; it is killed the
	// moment a normal job needs its nodes.
	BestEffort bool
	// OnStart runs when resources are allocated.
	OnStart func(*Job)
}

// Submit parses and enqueues a resource request, then attempts to schedule
// the queue. The returned job's State tells the caller what happened:
// Running (scheduled now), Waiting (queued), or Canceled (Immediate was set
// and resources were unavailable).
func (s *Server) Submit(request string, opts SubmitOptions) (*Job, error) {
	s.mu.Lock()
	req, err := s.parseRequestCachedLocked(request)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.SubmitReq(req, opts), nil
}

// SubmitReq is Submit for a pre-parsed request — nothing can fail. The
// federated gateway submits through it after pinning site constraints
// onto the parsed form (Request.PinnedToSite).
func (s *Server) SubmitReq(req Request, opts SubmitOptions) *Job {
	s.mu.Lock()
	s.nextID++
	j := &Job{
		ID:          s.nextID,
		User:        opts.User,
		Request:     req,
		State:       Waiting,
		SubmittedAt: s.clock.Now(),
		OnStart:     opts.OnStart,
		bestEffort:  opts.BestEffort,
	}
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j)
	s.need = append(s.need, s.fitOf(req, opts.BestEffort))
	s.submitted++
	// A new submission can only start itself (first-fit: it cannot free
	// resources for anyone else), so try just this job instead of walking
	// the whole waiting queue — submissions are the hot path.
	started := s.tryStartOneLocked(j)
	if opts.Immediate && j.State == Waiting {
		s.cancelLocked(j)
	}
	s.mu.Unlock()
	if fn := j.OnStart; started && fn != nil {
		j.OnStart = nil // fires once; what it captured need not outlive that
		fn(j)
	}
	return j
}

// Cancel withdraws a waiting job. Canceling a running or finished job is an
// error; use Release to end a running job early.
func (s *Server) Cancel(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || j.State != Waiting {
		return s.refusalLocked(id, "cancel")
	}
	s.cancelLocked(j)
	return nil
}

func (s *Server) cancelLocked(j *Job) {
	j.State = Canceled
	j.EndedAt = s.clock.Now()
	s.removeFromQueue(j)
	s.canceled++
	s.retire(j)
}

// Release ends a running job before its walltime (tests finishing early
// free resources for the next test).
func (s *Server) Release(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || j.State != Running {
		return s.refusalLocked(id, "release")
	}
	s.finishLocked(j)
	return nil
}

// refusalLocked is the error of a Cancel or Release (verb) of job id, which
// does not exist or is in the wrong state for it.
func (s *Server) refusalLocked(id int, verb string) error {
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

func (s *Server) finishLocked(j *Job) {
	s.endJob(j, Terminated)
	// Freed resources may unblock queued jobs.
	s.scheduleLocked()
}

// endJob takes a running job off its nodes in the given final state
// (Terminated, or Preempted with no walltime refund) and retires it.
func (s *Server) endJob(j *Job, final JobState) {
	j.State = final
	j.EndedAt = s.clock.Now()
	j.walltime.Cancel()
	for _, o := range s.retire(j) {
		s.busy[o] = 0
		s.preemptable[o] = false
		s.count(o, -1, j.bestEffort)
	}
}

// retire moves a finished job from jobs to its record and returns the
// node ordinals recorded for it. The caller's *Job stays valid; the server
// just no longer holds it.
func (s *Server) retire(j *Job) []int32 {
	delete(s.jobs, j.ID)
	return s.hist.add(j, s.ordinal)
}

// count adds d to the busy count of the three spans holding node o, and
// to their held count too for a best-effort job.
func (s *Server) count(o int32, d int, bestEffort bool) {
	for _, k := range [...]int32{0, s.clusterOf[o], s.siteOf[o]} {
		s.spans[k].busy += d
		if bestEffort {
			s.spans[k].held += d
		}
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

// Schedule runs scheduling passes over the waiting queue until no further
// job can start. Jobs are considered in FCFS order but a stuck job does not
// block later ones (first-fit, i.e. conservative backfilling without
// reservations — OAR proper uses a Gantt, but what matters to the paper's
// external scheduler is only that whole-cluster jobs wait a long time under
// contention, which first-fit preserves).
//
// Re-entrant calls (from OnStart callbacks that Submit or Release) are
// deferred to an extra pass instead of recursing.
func (s *Server) Schedule() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scheduleLocked()
}

// scheduleLocked is Schedule with the mutex held. OnStart callbacks fire
// with the mutex temporarily released, so they may re-enter the server.
func (s *Server) scheduleLocked() {
	if s.inSchedule {
		s.again = true
		return
	}
	s.inSchedule = true
	defer func() { s.inSchedule = false }()
	for {
		s.again = false
		started := s.schedulePass()
		for _, j := range started {
			if fn := j.OnStart; fn != nil {
				j.OnStart = nil
				s.mu.Unlock()
				fn(j)
				s.mu.Lock()
			}
		}
		if !s.again && len(started) == 0 {
			return
		}
	}
}

// tryStartOneLocked attempts to start j, the job just queued (the last in
// the queue), right now. It reports whether the job started; the caller
// fires OnStart after releasing the mutex.
func (s *Server) tryStartOneLocked(j *Job) bool {
	if s.inSchedule {
		// A Submit from inside an OnStart callback: let the outer Schedule
		// loop pick the job up on its extra pass.
		s.again = true
		return false
	}
	last := len(s.queue) - 1
	if s.refuses(s.need[last]) {
		return false
	}
	nodes, ok := s.startWithPreemption(j)
	if !ok {
		return false
	}
	s.dropQueued(last)
	s.startJob(j, nodes)
	return true
}

// startJob transitions a waiting job to Running on the given nodes. The
// caller holds the mutex, is responsible for removing the job from the
// queue, and fires OnStart itself (with the mutex released).
func (s *Server) startJob(j *Job, nodes []int32) {
	j.State = Running
	j.StartedAt = s.clock.Now()
	j.Nodes = make([]string, len(nodes))
	for i, o := range nodes {
		j.Nodes[i] = s.nodeList[o].Name
		s.busy[o] = j.ID
		s.preemptable[o] = j.bestEffort
		s.count(o, 1, j.bestEffort)
	}
	s.started++
	s.clock.Arm(&j.walltime, j.Request.Walltime, s.expire, j)
}

// walltimeExpired ends a job that ran out its walltime.
func (s *Server) walltimeExpired(job any) {
	j := job.(*Job)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.State == Running {
		s.finishLocked(j)
	}
}

// schedulePass walks the queue once, starting every job that fits. A job
// its fit refuses is passed over without reading the *Job: on a saturated
// cluster that is nearly every job. OnStart callbacks are NOT invoked here
// (the caller fires them after the walk) so that queue mutations from
// callbacks cannot corrupt the iteration. The caller holds the mutex.
func (s *Server) schedulePass() []*Job {
	var started []*Job
	i := 0
	for i < len(s.queue) {
		if s.refuses(s.need[i]) {
			i++
			continue
		}
		j := s.queue[i]
		nodes, ok := s.startWithPreemption(j)
		if !ok {
			i++
			continue
		}
		s.dropQueued(i)
		s.startJob(j, nodes)
		started = append(started, j)
	}
	return started
}

// allocate tries to satisfy every segment of the request with distinct
// Alive nodes, returning the chosen ordinals sorted by node name, or
// ok=false. Free nodes always qualify; with preempting set, so do nodes
// held by best-effort jobs — busy but takeable — and when picking N of M
// candidates the free ones go first, so that only the minimum number of
// best-effort jobs get killed. The returned slice is scratch, valid until
// the next call.
//
// This is the scheduler's hottest path (every Submit, every availability
// probe, every queued job on every release): candidates come pre-narrowed
// by the segment anchor, a counted segment its span cannot hold is refused
// without a scan, expressions evaluate against live node state without
// property maps, and all working storage is reused scratch — an attempt
// allocates nothing.
func (s *Server) allocate(req Request, preempting bool) ([]int32, bool) {
	chosen := s.chosenScratch[:0]
	defer func() { keepScratch(&s.chosenScratch, chosen) }()
	// Nodes already claimed by an earlier segment of the same request are
	// skipped; requests are at most a few segments of bounded size, so a
	// linear scan beats a map here.
	multi := len(req.Segments) > 1
	for _, seg := range req.Segments {
		cands, base, sp := s.segmentCandidates(seg)
		if seg.Nodes == AllNodes {
			// Every matching node must exist, be Alive and be free or takeable.
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
				if n.State != testbed.Alive {
					return nil, false
				}
				if s.busy[o] != 0 && !(preempting && s.preemptable[o]) {
					return nil, false
				}
				chosen = append(chosen, o)
			}
			if !matched {
				return nil, false
			}
			continue
		}
		if sp != nil && sp.room(preempting) < seg.Nodes {
			return nil, false
		}
		// First-fit: the first N free candidates in testbed order, topped
		// up with the first takeable ones when the free ones run short.
		free, held := s.freeScratch[:0], s.heldScratch[:0]
		for i, n := range cands {
			o := base + int32(i)
			if multi && slices.Contains(chosen, o) {
				continue
			}
			if n.State != testbed.Alive {
				continue
			}
			used := s.busy[o] != 0
			if used && !(preempting && s.preemptable[o]) {
				continue
			}
			if !seg.Expr.EvalNode(n) {
				continue
			}
			if used {
				held = append(held, o)
				continue
			}
			free = append(free, o)
			if len(free) == seg.Nodes {
				break
			}
		}
		keepScratch(&s.freeScratch, free)
		keepScratch(&s.heldScratch, held)
		if len(free)+len(held) < seg.Nodes {
			return nil, false
		}
		chosen = append(chosen, free...)
		chosen = append(chosen, held[:seg.Nodes-len(free)]...)
	}
	slices.SortFunc(chosen, s.byName)
	return chosen, true
}

// keepScratch stores a scratch buffer back only when append grew it. The
// store is a pointer write, which costs a write barrier while the collector
// marks, and allocate runs for every waiting job on every release.
func keepScratch(scratch *[]int32, grown []int32) {
	if cap(grown) != cap(*scratch) {
		*scratch = grown[:0]
	}
}

// ---- availability queries (used by the external test scheduler) ----

// CanStartNow reports whether a normal-priority request could be allocated
// immediately, counting nodes that would be freed by preempting best-effort
// jobs.
func (s *Server) CanStartNow(request string) (bool, error) {
	s.mu.Lock()
	req, err := s.parseRequestCachedLocked(request)
	if err != nil {
		s.mu.Unlock()
		return false, err
	}
	ok := s.canStartNowLocked(req)
	s.mu.Unlock()
	return ok, nil
}

// CanStartNowReq is CanStartNow for a pre-parsed request — the external
// scheduler parses each spec's request once at registration and probes
// with it every poll.
func (s *Server) CanStartNowReq(req Request) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.canStartNowLocked(req)
}

func (s *Server) canStartNowLocked(req Request) bool {
	_, _, ok := s.allocateWithPreemption(req, true)
	return ok
}

// BusyNodes returns how many nodes are currently allocated.
func (s *Server) BusyNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spans[0].busy
}

// QueueLength returns the number of waiting jobs.
func (s *Server) QueueLength() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Stats reports cumulative submission counters.
func (s *Server) Stats() (submitted, started, canceled int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitted, s.started, s.canceled
}

// SetNodeState changes a node's OAR state (Alive/Absent/Suspected/Dead).
// Marking a busy node non-Alive does not kill its job (matching OAR, where
// suspecting happens at job epilogue); it only prevents new allocations.
//
// The write happens under the server mutex (in addition to the testbed's
// own mutex) so that it synchronizes with every state read the server's
// allocation and query paths perform under the same lock.
func (s *Server) SetNodeState(nodeName string, st testbed.NodeState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tb.SetNodeState(nodeName, st) {
		return fmt.Errorf("oar: unknown node %q", nodeName)
	}
	if st == testbed.Alive {
		s.scheduleLocked() // a healed node may unblock the queue
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
// the empty subset — the gateway turns that into its 404). The copy is
// taken under the server mutex, so it is consistent with a single
// scheduling instant.
func (s *Server) Resources(cluster string) []ResourceInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// jobInfoLocked copies one job's externally visible state. The caller
// holds the server mutex.
func jobInfoLocked(j *Job) JobInfo {
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

// infoLocked copies job id's externally visible state from the live job or
// its record; ok is false when there is no job id. The caller holds the
// server mutex.
func (s *Server) infoLocked(id int) (JobInfo, bool) {
	if r := s.hist.get(id); r != nil {
		return s.hist.info(id, r, s.nodeList), true
	}
	if j := s.jobs[id]; j != nil {
		return jobInfoLocked(j), true
	}
	return JobInfo{}, false
}

// JobsInfo snapshots the most recently submitted limit jobs (0 = all),
// newest first. Node name slices are copied, so callers may hold the result
// while the scheduler keeps running.
func (s *Server) JobsInfo(limit int) []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit <= 0 || limit > s.nextID {
		limit = s.nextID
	}
	out := make([]JobInfo, 0, limit)
	for id := s.nextID; id >= 1 && len(out) < limit; id-- {
		if info, ok := s.infoLocked(id); ok {
			out = append(out, info)
		}
	}
	return out
}

// JobInfoByID snapshots one job's externally visible state; ok is false
// when the job is unknown. The returned copy is safe to read while the
// scheduler keeps mutating the live object.
func (s *Server) JobInfoByID(id int) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(id)
}
