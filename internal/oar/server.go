package oar

import (
	"fmt"
	"sort"
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

// Server is the OAR resource manager for one testbed. A single Server
// manages all sites (like Grid'5000's per-site OARs federated behind one
// API; one instance keeps the simulation simple while preserving the
// scheduling semantics the paper's framework interacts with).
//
// The server is safe for concurrent use: CI build scripts run on executor
// goroutines (see internal/ci) and submit/release jobs while the event
// loop runs walltime expiries, so every public method takes the server
// mutex. OnStart callbacks always fire with the mutex released — they may
// re-enter the server (Submit/Release from a callback is the normal test
// payload pattern).
type Server struct {
	mu    sync.Mutex
	clock *simclock.Clock
	tb    *testbed.Testbed

	nextID int
	jobs   map[int]*Job
	queue  []*Job         // waiting jobs, FCFS order
	busy   map[string]int // node name → running job ID
	// preemptable is the part of busy held by running best-effort jobs,
	// kept in step with it by startJob and endJob (the only places busy
	// changes). Empty on a testbed without best-effort work, which is what
	// lets the preemption fallback return without looking at anything.
	preemptable map[string]int

	// Scheduling fast path. The node list and the cluster/site indexes are
	// static (topology never changes); expressions evaluate directly
	// against live node state (Expr.EvalNode), so no property maps are
	// built on the allocation path. Requests anchored on cluster='x' or
	// site='y' scan only that subset of nodes.
	nodeList  []*testbed.Node
	byCluster map[string][]*testbed.Node
	bySite    map[string][]*testbed.Node

	// reqCache interns parsed requests by their source string, for the wire,
	// where clients repeat a few shapes (the campaign's own submissions
	// arrive parsed: SubmitReq, CanStartNowReq). Once it holds reqCacheSize
	// it takes no more: later strings are parsed each time, none is dropped.
	reqCache map[string]Request

	expire func(job any) // walltimeExpired as a value, made once

	// Scratch buffers reused across allocation attempts (all access is
	// under the server mutex). chosen/free/held hold the in-progress
	// selection; only a successful allocation copies the result out.
	chosenScratch []string
	freeScratch   []*testbed.Node
	heldScratch   []*testbed.Node
	hostScratch   [1]*testbed.Node

	// Re-entrancy guard: OnStart callbacks may Submit or Release
	// synchronously, which re-invokes Schedule.
	inSchedule bool
	again      bool

	// stats
	submitted, started, canceled, preempted int
}

// NewServer returns an OAR server over the testbed.
func NewServer(clock *simclock.Clock, tb *testbed.Testbed) *Server {
	s := &Server{
		clock:       clock,
		tb:          tb,
		jobs:        map[int]*Job{},
		busy:        map[string]int{},
		preemptable: map[string]int{},
		nodeList:    tb.Nodes(),
		byCluster:   map[string][]*testbed.Node{},
		bySite:      map[string][]*testbed.Node{},
		reqCache:    map[string]Request{},
	}
	for _, n := range s.nodeList {
		s.byCluster[n.Cluster] = append(s.byCluster[n.Cluster], n)
		s.bySite[n.Site] = append(s.bySite[n.Site], n)
	}
	s.expire = s.walltimeExpired
	return s
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

// segmentCandidates narrows the nodes a segment can possibly match using
// its parse-time anchor, falling back to the full node list.
func (s *Server) segmentCandidates(seg Segment) []*testbed.Node {
	switch seg.anchorKey {
	case "cluster":
		return s.byCluster[seg.anchorVal]
	case "site":
		return s.bySite[seg.anchorVal]
	case "host":
		if n := s.tb.Node(seg.anchorVal); n != nil {
			s.hostScratch[0] = n
			return s.hostScratch[:]
		}
		return nil
	}
	return s.nodeList
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

// Job returns the job with the given ID, or nil.
func (s *Server) Job(id int) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Cancel withdraws a waiting job. Canceling a running or finished job is an
// error; use Release to end a running job early.
func (s *Server) Cancel(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("oar: no job %d", id)
	}
	if j.State != Waiting {
		return fmt.Errorf("oar: job %d is %s, cannot cancel", id, j.State)
	}
	s.cancelLocked(j)
	return nil
}

func (s *Server) cancelLocked(j *Job) {
	j.State = Canceled
	j.EndedAt = s.clock.Now()
	s.removeFromQueue(j)
	s.canceled++
}

// Release ends a running job before its walltime (tests finishing early
// free resources for the next test).
func (s *Server) Release(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("oar: no job %d", id)
	}
	if j.State != Running {
		return fmt.Errorf("oar: job %d is %s, cannot release", id, j.State)
	}
	s.finishLocked(j)
	return nil
}

func (s *Server) finishLocked(j *Job) {
	s.endJob(j, Terminated)
	// Freed resources may unblock queued jobs.
	s.scheduleLocked()
}

// endJob takes a running job off its nodes in the given final state
// (Terminated, or Preempted with no walltime refund).
func (s *Server) endJob(j *Job, final JobState) {
	j.State = final
	j.EndedAt = s.clock.Now()
	j.walltime.Cancel()
	for _, n := range j.Nodes {
		delete(s.busy, n)
		if j.bestEffort {
			delete(s.preemptable, n)
		}
	}
}

func (s *Server) removeFromQueue(j *Job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
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

// tryStartOneLocked attempts to start a single waiting job right now. It
// reports whether the job started; the caller fires OnStart after
// releasing the mutex.
func (s *Server) tryStartOneLocked(j *Job) bool {
	if s.inSchedule {
		// A Submit from inside an OnStart callback: let the outer Schedule
		// loop pick the job up on its extra pass.
		s.again = true
		return false
	}
	nodes, ok := s.startWithPreemption(j)
	if !ok {
		return false
	}
	s.removeFromQueue(j)
	s.startJob(j, nodes)
	return true
}

// startJob transitions a waiting job to Running on the given nodes. The
// caller holds the mutex, is responsible for removing the job from the
// queue, and fires OnStart itself (with the mutex released).
func (s *Server) startJob(j *Job, nodes []string) {
	j.State = Running
	j.StartedAt = s.clock.Now()
	j.Nodes = nodes
	for _, n := range nodes {
		s.busy[n] = j.ID
		if j.bestEffort {
			s.preemptable[n] = j.ID
		}
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

// schedulePass walks the queue once, starting every job that fits. OnStart
// callbacks are NOT invoked here (the caller fires them after the walk) so
// that queue mutations from callbacks cannot corrupt the iteration.
// The caller holds the mutex.
func (s *Server) schedulePass() []*Job {
	var started []*Job
	i := 0
	for i < len(s.queue) {
		j := s.queue[i]
		if j.State != Waiting {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			continue
		}
		nodes, ok := s.startWithPreemption(j)
		if !ok {
			i++
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.startJob(j, nodes)
		started = append(started, j)
	}
	return started
}

// allocate tries to satisfy every segment of the request with distinct
// Alive nodes, returning the chosen node names sorted, or ok=false. Free
// nodes always qualify; with preempting set, so do nodes held by
// best-effort jobs — busy but takeable — and when picking N of M
// candidates the free ones go first, so that only the minimum number of
// best-effort jobs get killed.
//
// This is the scheduler's hottest path (every Submit, every availability
// probe, every queued job on every release): candidates come pre-narrowed
// by the segment anchor, expressions evaluate against live node state
// without property maps, and all working storage is reused scratch — a
// failed attempt allocates nothing, a successful one allocates only the
// returned name slice.
func (s *Server) allocate(req Request, preempting bool) ([]string, bool) {
	chosen := s.chosenScratch[:0]
	defer func() { s.chosenScratch = chosen[:0] }()
	// taken tracks nodes already claimed by an earlier segment of the same
	// request; requests are at most a few segments of bounded size, so a
	// linear scan beats a map here.
	isTaken := func(name string) bool {
		for _, t := range chosen {
			if t == name {
				return true
			}
		}
		return false
	}
	multi := len(req.Segments) > 1
	for _, seg := range req.Segments {
		cands := s.segmentCandidates(seg)
		if seg.Nodes == AllNodes {
			// Every matching node must exist, be Alive and be free or takeable.
			matched := false
			for _, n := range cands {
				if multi && isTaken(n.Name) {
					continue
				}
				if !seg.Expr.EvalNode(n) {
					continue
				}
				matched = true
				if n.State != testbed.Alive {
					return nil, false
				}
				if _, used := s.busy[n.Name]; used && !(preempting && s.heldByBestEffort(n.Name)) {
					return nil, false
				}
				chosen = append(chosen, n.Name)
			}
			if !matched {
				return nil, false
			}
			continue
		}
		// First-fit: the first N free candidates in testbed order, topped
		// up with the first takeable ones when the free ones run short.
		free, held := s.freeScratch[:0], s.heldScratch[:0]
		for _, n := range cands {
			if multi && isTaken(n.Name) {
				continue
			}
			if n.State != testbed.Alive {
				continue
			}
			_, used := s.busy[n.Name]
			if used && !(preempting && s.heldByBestEffort(n.Name)) {
				continue
			}
			if !seg.Expr.EvalNode(n) {
				continue
			}
			if used {
				held = append(held, n)
				continue
			}
			free = append(free, n)
			if len(free) == seg.Nodes {
				break
			}
		}
		s.freeScratch, s.heldScratch = free[:0], held[:0]
		if len(free)+len(held) < seg.Nodes {
			return nil, false
		}
		for _, n := range free {
			chosen = append(chosen, n.Name)
		}
		for _, n := range held[:seg.Nodes-len(free)] {
			chosen = append(chosen, n.Name)
		}
	}
	sort.Strings(chosen)
	out := make([]string, len(chosen))
	copy(out, chosen)
	return out, true
}

// ---- availability queries (used by the external test scheduler) ----

// FreeMatching counts free Alive nodes matching the expression.
func (s *Server) FreeMatching(e Expr) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	count := 0
	for _, n := range s.nodeList {
		if n.State != testbed.Alive {
			continue
		}
		if _, used := s.busy[n.Name]; used {
			continue
		}
		if e.EvalNode(n) {
			count++
		}
	}
	return count
}

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
	return len(s.busy)
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
	nodes := s.nodeList
	if cluster != "" {
		nodes = s.byCluster[cluster]
	}
	out := make([]ResourceInfo, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, ResourceInfo{
			Name:    n.Name,
			Cluster: n.Cluster,
			Site:    n.Site,
			State:   n.State.String(),
			JobID:   s.busy[n.Name],
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
		j := s.jobs[id]
		if j == nil {
			continue
		}
		out = append(out, jobInfoLocked(j))
	}
	return out
}

// JobInfoByID snapshots one job's externally visible state; ok is false
// when the job is unknown. Unlike Job, the returned copy is safe to read
// while the scheduler keeps mutating the live object.
func (s *Server) JobInfoByID(id int) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobInfo{}, false
	}
	return jobInfoLocked(j), true
}

// StateSummary counts nodes per state, the oarstate test family's input.
func (s *Server) StateSummary() map[testbed.NodeState]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[testbed.NodeState]int{}
	for _, n := range s.nodeList {
		out[n.State]++
	}
	return out
}
