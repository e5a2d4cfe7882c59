// Package ci implements the automation server at the heart of the paper's
// framework — a Jenkins equivalent ("cron on steroids", slide 15) with the
// two plugins the paper relies on:
//
//   - Matrix Project: a job is a matrix of options (test_environments:
//     14 images × 32 clusters = 448 configurations);
//   - Matrix Reloaded: re-run only a subset (the failed cells) of a matrix
//     build.
//
// It also provides what slide 20 lists as the reasons Jenkins was worth
// keeping: a clean execution environment per build (fresh BuildContext), a
// queue with a bounded executor pool to control overloading, token-based
// access control for manually triggered builds, and long-term storage of
// results history and logs (per-job retention), all exposed over a REST API
// (api.go) that the external status page consumes.
package ci

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/simclock"
)

// Result is a build verdict, matching Jenkins semantics. Unstable is the
// interesting one: the paper marks a build unstable when its testbed job
// could not be scheduled immediately (slide 17) — the test neither passed
// nor failed.
type Result int

const (
	// NotBuilt means the build has not completed (queued or running).
	NotBuilt Result = iota
	// Success means the test passed.
	Success
	// Unstable means the test could not run (e.g. resources unavailable).
	Unstable
	// Failure means the test ran and found a problem.
	Failure
	// Aborted means the build was killed.
	Aborted
)

func (r Result) String() string {
	switch r {
	case NotBuilt:
		return "NOT_BUILT"
	case Success:
		return "SUCCESS"
	case Unstable:
		return "UNSTABLE"
	case Failure:
		return "FAILURE"
	case Aborted:
		return "ABORTED"
	}
	return "Result(" + strconv.Itoa(int(r)) + ")"
}

// worse returns the more severe of two results (for matrix parent rollup).
func worse(a, b Result) Result {
	rank := func(r Result) int {
		switch r {
		case Success:
			return 0
		case NotBuilt:
			return 1
		case Unstable:
			return 2
		case Aborted:
			return 3
		case Failure:
			return 4
		}
		return 5
	}
	if rank(a) >= rank(b) {
		return a
	}
	return b
}

// Outcome is what a build script reports back.
type Outcome struct {
	Result   Result
	Duration simclock.Time // how long the build occupies its executor
	Log      []string
	// BugSignatures identify the problems found; internal/core files
	// deduplicated bug reports from them.
	BugSignatures []string
}

// BuildContext is the clean execution environment handed to a script.
// Contexts are pooled: a script must not retain its BuildContext (or the
// slices reachable from it) after returning.
type BuildContext struct {
	Clock *simclock.Clock
	Job   string
	Cell  map[string]string // axis values for matrix cells, nil otherwise

	// Level-gated bounded log ring. When the server discards build logs,
	// logOn is false and Logf returns before formatting — the call is then
	// effectively free (the variadic slice stays on the caller's stack).
	// When logs are kept, at most maxLogLines lines are retained (a ring of
	// the most recent); the line storage is reused across builds via the
	// context pool.
	logOn   bool
	log     []string
	logHead int // next overwrite position once the ring wrapped
	wrapped bool
}

var bcPool = sync.Pool{New: func() any { return new(BuildContext) }}

// Logf appends to the build log. Near-free when the server does not retain
// build logs.
func (bc *BuildContext) Logf(format string, args ...any) {
	if !bc.logOn {
		return
	}
	bc.addLine(fmt.Sprintf(format, args...))
}

// LogsRetained reports whether the server keeps this build's log — scripts
// use it to skip building expensive log lines of their own.
func (bc *BuildContext) LogsRetained() bool { return bc.logOn }

func (bc *BuildContext) addLine(line string) {
	if len(bc.log) >= maxLogLines {
		bc.log[bc.logHead] = line
		bc.logHead++
		if bc.logHead == len(bc.log) {
			bc.logHead = 0
		}
		bc.wrapped = true
		return
	}
	bc.log = append(bc.log, line)
}

// takeLog returns the retained lines in chronological order, appending
// extra (a script outcome's log) and re-applying the bound; it returns a
// fresh slice because the context's own storage goes back to the pool.
func (bc *BuildContext) takeLog(extra []string) []string {
	total := len(bc.log) + len(extra)
	if total == 0 {
		return nil
	}
	out := make([]string, 0, total)
	if bc.wrapped {
		out = append(out, bc.log[bc.logHead:]...)
		out = append(out, bc.log[:bc.logHead]...)
	} else {
		out = append(out, bc.log...)
	}
	out = append(out, extra...)
	if len(out) > maxLogLines {
		out = out[len(out)-maxLogLines:] // keep the most recent lines
	}
	return out
}

// reset clears the context for pooling, keeping the log line storage.
func (bc *BuildContext) reset() {
	clear(bc.log)
	bc.log = bc.log[:0]
	bc.Clock, bc.Job, bc.Cell = nil, "", nil
	bc.logOn, bc.logHead, bc.wrapped = false, 0, false
}

// Axis returns the cell's value for an axis ("" when absent).
func (bc *BuildContext) Axis(name string) string { return bc.Cell[name] }

// Script is a build's payload. It runs at the build's start instant and
// returns the outcome, including how much simulated time the build takes.
type Script func(bc *BuildContext) Outcome

// Axis is one dimension of a matrix job.
type Axis struct {
	Name   string
	Values []string
}

// Job is a configured job.
type Job struct {
	Name        string
	Description string
	Script      Script
	Axes        []Axis // empty for simple jobs
	Retention   int    // completed builds kept per job (0 = DefaultRetention)

	nextNumber int

	// Retained builds live in a ring: ring[head] is the oldest, nbuilds
	// counts live entries. Retention is O(1) amortized — the oldest
	// completed build pops off the front — instead of the filter-copy of
	// the whole history the previous implementation paid on every trigger.
	ring    []*Build
	head    int
	nbuilds int
	// byNumber indexes retained builds for O(1) lookup (REST API, matrix
	// rollup).
	byNumber map[int]*Build

	// cells interns the matrix cell expansion: the axis maps, their sorted
	// cell-key strings and serialization keys are computed once per job and
	// shared by every build, instead of re-sorting a map per cell trigger.
	cells []matrixCell
}

// matrixCell is one interned (axis values, key) combination of a matrix job.
type matrixCell struct {
	values map[string]string
	key    string // sorted "axis=value,..." form
	serial string // job + cell serialization key
}

// push appends a build to the ring and evicts the oldest completed builds
// beyond the retention limit. Uncompleted builds are never evicted (they
// block eviction from the front until they finish — in steady state builds
// complete roughly in order, so the ring stays within a constant of
// Retention).
func (j *Job) push(b *Build) {
	if j.byNumber == nil {
		j.byNumber = map[int]*Build{}
	}
	if j.nbuilds == len(j.ring) { // full (or nil): grow and realign
		grown := make([]*Build, max(8, 2*len(j.ring)))
		for i := 0; i < j.nbuilds; i++ {
			grown[i] = j.ring[(j.head+i)%len(j.ring)]
		}
		j.ring, j.head = grown, 0
	}
	j.ring[(j.head+j.nbuilds)%len(j.ring)] = b
	j.nbuilds++
	j.byNumber[b.Number] = b
	for j.nbuilds > j.Retention {
		oldest := j.ring[j.head]
		if !oldest.completed {
			break
		}
		delete(j.byNumber, oldest.Number)
		j.ring[j.head] = nil
		j.head = (j.head + 1) % len(j.ring)
		j.nbuilds--
	}
}

// buildAt returns the i-th oldest retained build.
func (j *Job) buildAt(i int) *Build { return j.ring[(j.head+i)%len(j.ring)] }

// DefaultRetention is the per-job build history size.
const DefaultRetention = 200

// maxLogLines bounds the per-build log ring when logs are retained.
const maxLogLines = 1000

// IsMatrix reports whether the job expands into cells.
func (j *Job) IsMatrix() bool { return len(j.Axes) > 0 }

// CellCount returns the number of matrix cells (1 for simple jobs).
func (j *Job) CellCount() int {
	n := 1
	for _, a := range j.Axes {
		n *= len(a.Values)
	}
	return n
}

// Build is one execution (or one matrix cell, or a matrix parent).
type Build struct {
	Job    string
	Number int
	Cause  string            // what triggered it (scheduler, cron, user)
	Cell   map[string]string // axis values; nil for simple/parent builds

	// Matrix linkage.
	Parent     int   // parent build number (0 = not a cell)
	CellBuilds []int // children numbers (parent builds only)

	Result        Result
	QueuedAt      simclock.Time
	StartedAt     simclock.Time
	EndedAt       simclock.Time
	Log           []string
	BugSignatures []string

	completed bool

	// key/serial cache the cell-key and serialization-key strings (interned
	// per job for matrix cells, so triggering a cell allocates neither).
	key    string
	serial string

	// Incremental matrix-parent rollup: instead of rescanning every cell
	// on each completion, the parent tracks how many cells are pending and
	// folds results/timestamps in as they arrive.
	cellsPending int
	aggResult    Result
	aggStarted   bool
}

// Completed reports whether the build has finished.
func (b *Build) Completed() bool { return b.completed }

// CellKey renders the cell coordinates as a stable string
// ("cluster=sol,image=jessie-x64-min"), or "" for non-cell builds.
func (b *Build) CellKey() string {
	if b.key != "" || b.Cell == nil {
		return b.key
	}
	return cellKey(b.Cell)
}

func cellKey(cell map[string]string) string {
	if len(cell) == 0 {
		return ""
	}
	keys := make([]string, 0, len(cell))
	for k := range cell {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + cell[k]
	}
	s := parts[0]
	for _, p := range parts[1:] {
		s += "," + p
	}
	return s
}

// Server is the automation server.
//
// Builds execute on an *executor pool* of NumExecutors executors, driven
// by clock events: a pump event starts dispatchable queued builds, and a
// build occupies its executor for its simulated duration, until its
// completion event, which then starts the next queued build. Builds of the
// same job — same matrix cell for matrix jobs — never run concurrently
// (Jenkins' default "one build at a time per configuration"); builds of
// different jobs, or different cells of one matrix build, genuinely overlap
// in simulated time.
//
// The server has no lock: it belongs to the goroutine stepping its clock,
// and its REST API is served under the lock that goroutine steps under
// (the gateway's shard gate, whose write side a trigger takes). bcPool is
// the package's one synchronized value: a sync.Pool that every server of
// a process shares, concurrent fleet campaigns included.
type Server struct {
	clock     *simclock.Clock
	executors int
	running   int         // builds currently occupying an executor
	idle      []*executor // between builds; only clock events touch it

	jobs     map[string]*Job
	jobOrder []string
	// queue[qhead:] are the queued builds, oldest first; the slots before
	// qhead are free. An emptied queue starts over at its array's front.
	queue []pending
	qhead int
	// activeKeys marks serialization keys (job name, or job+cell for
	// matrix cells) with a build currently running.
	activeKeys map[string]bool
	// pumpScheduled coalesces the pump event: many enqueues at one
	// instant produce a single pump.
	pumpScheduled bool
	claimed       []string // pump's reused keys, at most executors

	// tokens implements the "access control for users to trigger jobs
	// manually" benefit (slide 20): token → user name.
	tokens map[string]string

	// completion listeners (status page, bug filing in internal/core).
	onComplete []func(*Build)

	discardLogs bool // see Options

	builtCount int
}

type pending struct {
	build  *Build
	script Script
}

// executor carries a build that lasts simulated time from its start to its
// completion event. One exists per build in flight; back in Server.idle in
// between, so completions allocate nothing.
type executor struct {
	s   *Server
	b   *Build
	out Outcome
	log []string
	key string
}

// Options configures a Server.
type Options struct {
	// NumExecutors is the size of the executor pool: the maximum number of
	// builds running concurrently. Values below 1 mean 1.
	NumExecutors int

	// DiscardBuildLogs drops build logs entirely: BuildContext.Logf becomes
	// a no-op that never formats, and script outcome logs are not stored.
	// Long campaigns that never read logs run allocation-lean with this
	// set; the default keeps logs, like Jenkins.
	// Kept logs are bounded to a ring of the most recent maxLogLines lines.
	DiscardBuildLogs bool
}

// NewServer creates a server from Options.
func NewServer(clock *simclock.Clock, o Options) *Server {
	if o.NumExecutors < 1 {
		o.NumExecutors = 1
	}
	s := &Server{
		clock:       clock,
		executors:   o.NumExecutors,
		jobs:        map[string]*Job{},
		activeKeys:  map[string]bool{},
		tokens:      map[string]string{},
		discardLogs: o.DiscardBuildLogs,
	}
	return s
}

// AddToken registers an API token for a user.
func (s *Server) AddToken(token, user string) {
	s.tokens[token] = user
}

// OnComplete registers a listener called whenever any build completes.
// Listeners run in the clock event that finished the build.
func (s *Server) OnComplete(fn func(*Build)) {
	s.onComplete = append(s.onComplete, fn)
}

// CreateJob registers a job. Re-registering a name is an error.
func (s *Server) CreateJob(j *Job) error {
	if j.Name == "" {
		return fmt.Errorf("ci: job needs a name")
	}
	if _, dup := s.jobs[j.Name]; dup {
		return fmt.Errorf("ci: job %q already exists", j.Name)
	}
	if j.Script == nil {
		return fmt.Errorf("ci: job %q has no script", j.Name)
	}
	if j.Retention <= 0 {
		j.Retention = DefaultRetention
	}
	s.jobs[j.Name] = j
	s.jobOrder = append(s.jobOrder, j.Name)
	return nil
}

// JobByName returns a job, or nil.
func (s *Server) JobByName(name string) *Job { return s.jobs[name] }

// TotalBuilds returns the number of completed builds since startup.
func (s *Server) TotalBuilds() int { return s.builtCount }

// Trigger enqueues a build of a job. For matrix jobs the returned build is
// the parent; every cell is enqueued behind it.
func (s *Server) Trigger(jobName, cause string) (*Build, error) {
	j := s.jobs[jobName]
	if j == nil {
		return nil, fmt.Errorf("ci: unknown job %q", jobName)
	}
	if j.IsMatrix() {
		return s.triggerMatrix(j, cause, nil), nil
	}
	b := s.newBuild(j, cause, nil, 0)
	s.enqueue(b, j.Script)
	return b, nil
}

// TriggerToken is Trigger gated by the access-control token (the manual
// web-interface path).
func (s *Server) TriggerToken(jobName, token string) (*Build, error) {
	user, ok := s.tokens[token]
	if !ok {
		return nil, fmt.Errorf("ci: invalid token")
	}
	return s.Trigger(jobName, "user "+user)
}

// newBuild allocates the next build number for j. Retention is enforced by
// the ring push (O(1) amortized).
func (s *Server) newBuild(j *Job, cause string, cell map[string]string, parent int) *Build {
	j.nextNumber++
	b := &Build{
		Job:      j.Name,
		Number:   j.nextNumber,
		Cause:    cause,
		Cell:     cell,
		Parent:   parent,
		QueuedAt: s.clock.Now(),
	}
	if cell == nil {
		b.serial = j.Name
	}
	j.push(b)
	return b
}

// serialKey is the per-job serialization key of a build: plain builds
// serialize on the job name, matrix cells on job+cell so different cells
// of one matrix run in parallel while re-runs of the same configuration
// never overlap. Builds created by the server carry the key pre-computed
// (interned per matrix cell); the slow path covers hand-built Builds in
// tests.
func serialKey(b *Build) string {
	if b.serial != "" {
		return b.serial
	}
	if b.Cell == nil {
		return b.Job
	}
	return b.Job + "\x00" + b.CellKey()
}

// enqueue queues b and arranges for queued builds to start at the current
// instant, from the event loop. The pump is coalesced: any number of
// enqueues at one instant schedule a single pump event.
func (s *Server) enqueue(b *Build, script Script) {
	if len(s.queue) == cap(s.queue) && 2*s.qhead >= len(s.queue) {
		// Full, and at least half of it free slots: slide the queued
		// builds down instead of growing the array.
		n := copy(s.queue, s.queue[s.qhead:])
		clear(s.queue[n:])
		s.queue, s.qhead = s.queue[:n], 0
	}
	s.queue = append(s.queue, pending{build: b, script: script})
	if !s.pumpScheduled {
		s.pumpScheduled = true
		s.clock.Schedule(0, pump, s)
	}
}

// pump gives one executor turn to each dispatchable queued build, in
// order: one per distinct free serialization key, up to the free
// executors. The keys it claims fit a scratch slice: the walk stops once
// the pool would be full. Runs on the event loop; the argument is the
// server.
func pump(server any) {
	s := server.(*Server)
	s.pumpScheduled = false
	claimed := s.claimed[:0]
	for _, p := range s.queue[s.qhead:] {
		if s.running+len(claimed) >= s.executors {
			break
		}
		key := serialKey(p.build)
		if s.activeKeys[key] || slices.Contains(claimed, key) {
			continue
		}
		claimed = append(claimed, key)
	}
	n := len(claimed)
	clear(claimed)
	s.claimed = claimed[:0]
	for range n {
		s.execute()
	}
}

// dequeue pops the first queued build whose serialization key is not
// currently running, if there is one. The i builds ahead of it, whose keys
// are busy, move back one slot and the head advances past the freed one:
// the builds behind it stay where they are, so a dequeue costs the builds
// it skipped, not the length of the queue.
func (s *Server) dequeue() (pending, bool) {
	q := s.queue[s.qhead:]
	for i, p := range q {
		if s.activeKeys[serialKey(p.build)] {
			continue
		}
		copy(q[1:i+1], q[:i])
		q[0] = pending{}
		if s.qhead++; s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		}
		return p, true
	}
	return pending{}, false
}

// execute is one executor turn: it starts the first dispatchable queued
// build and runs its script. A build that lasts no simulated time completes
// at once and the turn goes on to the next; one that lasts schedules its
// completion, which takes the turn over (see complete). The turn ends when
// nothing queued can start.
func (s *Server) execute() {
	for {
		p, ok := s.dequeue()
		if !ok {
			return
		}
		b := p.build
		key := serialKey(b)
		s.activeKeys[key] = true
		s.running++
		b.StartedAt = s.clock.Now()

		// The build script runs at the start instant; the executor then
		// stays occupied for the duration the script reports. The context
		// comes from a pool — its log storage is recycled build to build.
		bc := bcPool.Get().(*BuildContext)
		bc.Clock, bc.Job, bc.Cell = s.clock, b.Job, b.Cell
		bc.logOn = !s.discardLogs
		out := p.script(bc)
		var log []string
		if !s.discardLogs {
			log = bc.takeLog(out.Log)
		}
		bc.reset()
		bcPool.Put(bc)
		if out.Duration <= 0 {
			s.completeBuild(b, out, log, key)
			continue
		}
		var e *executor
		if n := len(s.idle); n > 0 {
			e, s.idle = s.idle[n-1], s.idle[:n-1]
		} else {
			e = &executor{s: s}
		}
		e.b, e.out, e.log, e.key = b, out, log, key
		s.clock.Schedule(out.Duration, complete, e)
		return
	}
}

// complete is a build's completion event (the argument is its executor):
// it finishes the build, then runs the executor's next turn.
func complete(arg any) {
	e := arg.(*executor)
	s, b, out, log, key := e.s, e.b, e.out, e.log, e.key
	*e = executor{s: s}
	s.idle = append(s.idle, e)
	s.completeBuild(b, out, log, key)
	s.execute()
}

func (s *Server) completeBuild(b *Build, out Outcome, log []string, key string) {
	b.Log = log
	b.Result = out.Result
	b.BugSignatures = out.BugSignatures
	b.EndedAt = s.clock.Now()
	b.completed = true
	delete(s.activeKeys, key)
	s.running--
	s.builtCount++
	var parentDone *Build
	if b.Parent != 0 {
		parentDone = s.maybeCompleteParent(b)
	}
	for _, fn := range s.onComplete {
		fn(b)
		if parentDone != nil {
			fn(parentDone)
		}
	}
}

// Build returns one build of a job by number, or nil.
func (s *Server) Build(jobName string, number int) *Build {
	j := s.jobs[jobName]
	if j == nil {
		return nil
	}
	return j.byNumber[number]
}

// Builds returns the retained builds of a job, oldest first.
func (s *Server) Builds(jobName string) []*Build {
	j := s.jobs[jobName]
	if j == nil {
		return nil
	}
	out := make([]*Build, j.nbuilds)
	for i := 0; i < j.nbuilds; i++ {
		out[i] = j.buildAt(i)
	}
	return out
}

// LastCompleted returns a job's most recent completed top-level build
// (matrix parents count, cells do not), or nil.
func (s *Server) LastCompleted(jobName string) *Build {
	j := s.jobs[jobName]
	if j == nil {
		return nil
	}
	return j.lastCompleted()
}

// lastCompleted is LastCompleted's walk.
func (j *Job) lastCompleted() *Build {
	for i := j.nbuilds - 1; i >= 0; i-- {
		b := j.buildAt(i)
		if b.completed && b.Parent == 0 {
			return b
		}
	}
	return nil
}
