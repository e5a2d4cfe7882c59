// Package sched implements the paper's central custom development
// (slides 16–17): an external scheduler that decides when to trigger CI
// builds of testbed tests.
//
// Plain time-based Jenkins scheduling is not sufficient because:
//
//   - software-centric tests need one node per cluster, while
//     hardware-centric tests need ALL nodes of a cluster, and on a heavily
//     used testbed "waiting for all nodes of a given cluster to be
//     available can take weeks";
//   - blocking inside a Jenkins build would hold an executor hostage and
//     compete with user requests in the OAR queue.
//
// So the external tool polls both the CI server's job status and the
// testbed's resource availability, and triggers a build only when the
// test's resources are free right now, subject to:
//
//   - a retry policy with exponential backoff after a failed attempt;
//   - additional policies: avoid peak (working) hours for whole-cluster
//     tests, and avoid running several test jobs on the same site.
//
// If a triggered build still cannot get its OAR job started immediately
// (lost the race against a user), the build cancels the OAR job and reports
// itself Unstable; the scheduler observes that and backs off.
package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ci"
	"repro/internal/oar"
	"repro/internal/simclock"
)

// TestKind separates the paper's two scheduling classes.
type TestKind int

const (
	// SoftwareCentric tests need one node per cluster.
	SoftwareCentric TestKind = iota
	// HardwareCentric tests need all nodes of a given cluster.
	HardwareCentric
)

func (k TestKind) String() string {
	if k == HardwareCentric {
		return "hardware-centric"
	}
	return "software-centric"
}

// Spec is one schedulable test configuration.
type Spec struct {
	Name    string // unique, e.g. "disk/graphene"
	JobName string // CI job to trigger
	Cluster string
	Site    string
	Kind    TestKind
	Request string        // OAR resource request the test will submit
	Period  simclock.Time // how often the test should run
}

// Action is what the scheduler decided for a due spec at one poll.
type Action string

const (
	ActionTriggered      Action = "triggered"
	ActionDeferPeak      Action = "defer:peak-hours"
	ActionDeferSiteBusy  Action = "defer:site-busy"
	ActionDeferResources Action = "defer:resources"
)

// Decision is one entry of the decision log (benchmarks replay it).
type Decision struct {
	At      simclock.Time
	Spec    string
	Action  Action
	Backoff simclock.Time // next retry delay when deferred for resources
}

// Config tunes the scheduler's policies: the three the paper's ablations
// vary. The rest of the deployment is fixed: the scheduler polls every
// pollInterval, backs off from BackoffBase, and the peak hours are InPeak's.
type Config struct {
	BackoffMax simclock.Time // cap of the exponential backoff
	// AvoidPeak keeps hardware-centric tests out of the working hours, to
	// stay out of the users' way.
	AvoidPeak bool
	// MaxActivePerSite bounds concurrently running test jobs per site
	// ("avoid several jobs on same site").
	MaxActivePerSite int
}

const (
	// pollInterval is how often the scheduler decides.
	pollInterval = 10 * simclock.Minute
	// BackoffBase is the first retry delay after a resource miss.
	BackoffBase = 30 * simclock.Minute
	// decisionLog is the size of the retained decision ring: Decisions
	// returns the most recent entries, while DecisionCounts stays complete
	// (aggregated incrementally). A multi-week campaign makes millions of
	// decisions; the log exists for debugging and benchmarks, not as an
	// unbounded history.
	decisionLog = 4096
)

// DefaultConfig mirrors the deployment described in the paper.
func DefaultConfig() Config {
	return Config{
		BackoffMax:       12 * simclock.Hour,
		AvoidPeak:        true,
		MaxActivePerSite: 1,
	}
}

// causePrefix starts the cause of every build the scheduler triggers; the
// spec's name follows it.
const causePrefix = "scheduler "

type specState struct {
	spec    *Spec
	req     oar.Request // parsed once at registration; probed every poll
	cause   string      // interned trigger cause ("scheduler <name>")
	nextDue simclock.Time
	backoff simclock.Time // 0 = not backing off
	running bool

	triggers  int
	unstables int
	runs      int
}

// Scheduler is the external scheduling tool.
//
// The scheduler has no lock: its poll loop and its build-completion
// callbacks (observeBuild) both run in clock events, on the goroutine
// stepping the clock, and its stats are read between steps. A poll walks the specs in
// registration order through a slice of pointers, hashing no name; a
// completion finds its spec from the build's cause, with one lookup.
type Scheduler struct {
	clock *simclock.Clock
	oar   *oar.Server
	ci    *ci.Server
	cfg   Config

	specs  map[string]*specState // by spec name
	order  []*specState          // registration order
	bySite map[string]int        // active test builds per site

	ticker *simclock.Ticker

	// Decision bookkeeping: counts aggregates every decision ever made;
	// the ring retains only the most recent decisionLog entries.
	counts    map[Action]int
	decisions []Decision // ring storage
	decHead   int        // oldest entry once the ring is full

	dueScratch []*specState // reused batch buffer for Poll
}

// New wires the scheduler to the OAR and CI servers. It registers a CI
// completion listener to observe build outcomes.
func New(clock *simclock.Clock, oarSrv *oar.Server, ciSrv *ci.Server, cfg Config) *Scheduler {
	if cfg.BackoffMax < BackoffBase {
		cfg.BackoffMax = BackoffBase
	}
	if cfg.MaxActivePerSite <= 0 {
		cfg.MaxActivePerSite = 1
	}
	s := &Scheduler{
		clock:  clock,
		oar:    oarSrv,
		ci:     ciSrv,
		cfg:    cfg,
		specs:  map[string]*specState{},
		bySite: map[string]int{},
		counts: map[Action]int{},
	}
	ciSrv.OnComplete(s.observeBuild)
	return s
}

// Register adds a test configuration. Specs are due immediately (staggered
// by registration order is unnecessary: resource gating spreads them out).
func (s *Scheduler) Register(spec *Spec) error {
	if spec.Name == "" || spec.JobName == "" {
		return fmt.Errorf("sched: spec needs Name and JobName")
	}
	if spec.Period <= 0 {
		return fmt.Errorf("sched: spec %q needs a positive period", spec.Name)
	}
	req, err := oar.ParseRequest(spec.Request)
	if err != nil {
		return fmt.Errorf("sched: spec %q: %w", spec.Name, err)
	}
	if _, dup := s.specs[spec.Name]; dup {
		return fmt.Errorf("sched: spec %q already registered", spec.Name)
	}
	st := &specState{
		spec:    spec,
		req:     req,
		cause:   causePrefix + spec.Name,
		nextDue: s.clock.Now(),
	}
	s.specs[spec.Name] = st
	s.order = append(s.order, st)
	return nil
}

// Start begins the poll loop.
func (s *Scheduler) Start() {
	if s.ticker != nil {
		return
	}
	s.ticker = s.clock.Every(pollInterval, s.Poll)
}

// Stop halts the poll loop.
func (s *Scheduler) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// Poll runs one decision pass: it first collects the batch of specs due at
// this tick, then decides each one. Every build it triggers lands on the
// CI server's executor pool, so all the builds of one tick run
// concurrently (before the pool, triggered builds executed one after the
// other on the single simulated thread). Exported so tests and benchmarks
// can drive the scheduler without the ticker.
func (s *Scheduler) Poll() {
	// The batch is the specs due at this tick, in registration order, in a
	// buffer reused across polls.
	now := s.clock.Now()
	due := s.dueScratch[:0]
	for _, st := range s.order {
		if !st.running && now >= st.nextDue {
			due = append(due, st) // a running spec is not even logged
		}
	}
	s.dueScratch = due
	for _, st := range due {
		s.decide(st)
	}
}

func (s *Scheduler) decide(st *specState) {
	now := s.clock.Now()
	spec := st.spec

	// Policy 1: peak hours (hardware-centric tests monopolise a cluster,
	// keep them out of working hours).
	if s.cfg.AvoidPeak && spec.Kind == HardwareCentric && InPeak(now) {
		s.record(Decision{At: now, Spec: spec.Name, Action: ActionDeferPeak})
		st.nextDue = now + pollInterval
		return
	}

	// Policy 2: at most N active test jobs per site.
	if s.bySite[spec.Site] >= s.cfg.MaxActivePerSite {
		s.record(Decision{At: now, Spec: spec.Name, Action: ActionDeferSiteBusy})
		st.nextDue = now + pollInterval
		return
	}

	// Resource availability: would the test's OAR job start right now?
	// The request was parsed once at registration; the probe is
	// allocation-free.
	if !s.oar.CanStartNowReq(st.req) {
		st.backoff = s.nextBackoff(st.backoff)
		st.nextDue = now + st.backoff
		s.record(Decision{At: now, Spec: spec.Name, Action: ActionDeferResources, Backoff: st.backoff})
		return
	}

	// Trigger the CI build; it starts on the executor pool at this instant,
	// concurrently with the other builds of this tick's batch.
	if _, err := s.ci.Trigger(spec.JobName, st.cause); err != nil {
		// Job vanished from CI: treat like a resource miss so the operator
		// notices the growing backoff.
		st.backoff = s.nextBackoff(st.backoff)
		st.nextDue = now + st.backoff
		s.record(Decision{At: now, Spec: spec.Name, Action: ActionDeferResources, Backoff: st.backoff})
		return
	}
	st.running = true
	st.triggers++
	s.bySite[spec.Site]++
	s.record(Decision{At: now, Spec: spec.Name, Action: ActionTriggered})
}

// nextBackoff doubles the delay, starting at BackoffBase, capped at
// BackoffMax.
func (s *Scheduler) nextBackoff(cur simclock.Time) simclock.Time {
	if cur <= 0 {
		return BackoffBase
	}
	next := cur * 2
	if next > s.cfg.BackoffMax {
		next = s.cfg.BackoffMax
	}
	return next
}

// observeBuild reacts to completed CI builds the scheduler triggered. It
// runs in the clock event that finished the build. A build is attributed by
// its cause, the "scheduler <name>" its spec triggers with, so a manual or
// cron build of the same job that finishes first is not taken for the
// spec's run.
func (s *Scheduler) observeBuild(b *ci.Build) {
	if b.Cell != nil {
		return // matrix cells roll up into their parent
	}
	name, ok := strings.CutPrefix(b.Cause, causePrefix)
	if !ok {
		return // not one of ours (manual/cron build)
	}
	st := s.specs[name]
	if st == nil || !st.running || st.spec.JobName != b.Job {
		return
	}
	st.running = false
	if s.bySite[st.spec.Site] > 0 {
		s.bySite[st.spec.Site]--
	}
	now := s.clock.Now()
	if b.Result == ci.Unstable {
		// The build could not run its testbed job: retry with backoff.
		st.unstables++
		st.backoff = s.nextBackoff(st.backoff)
		st.nextDue = now + st.backoff
		return
	}
	// The test ran (passed or failed — either way it produced a verdict):
	// reset the backoff and wait out the period.
	st.runs++
	st.backoff = 0
	st.nextDue = now + st.spec.Period
}

// record logs a decision: the aggregate count always, the entry itself in
// the bounded ring.
func (s *Scheduler) record(d Decision) {
	s.counts[d.Action]++
	if len(s.decisions) < decisionLog {
		s.decisions = append(s.decisions, d)
		return
	}
	s.decisions[s.decHead] = d
	s.decHead++
	if s.decHead == len(s.decisions) {
		s.decHead = 0
	}
}

// Decisions returns a copy of the retained decision log (the most recent
// decisionLog entries), in chronological order.
func (s *Scheduler) Decisions() []Decision {
	out := make([]Decision, 0, len(s.decisions))
	out = append(out, s.decisions[s.decHead:]...)
	out = append(out, s.decisions[:s.decHead]...)
	return out
}

// DecisionCounts aggregates every decision ever made by action — complete
// even when the retained log ring has wrapped.
func (s *Scheduler) DecisionCounts() map[Action]int {
	out := make(map[Action]int, len(s.counts))
	for a, n := range s.counts {
		out[a] = n
	}
	return out
}

// ActionCount pairs an action with its total decision count.
type ActionCount struct {
	Action Action
	Count  int
}

// DecisionCountsSorted returns the aggregate ordered by action name: the
// stable form for reports and emitted summaries, where ranging over the
// DecisionCounts map would leak nondeterministic iteration order into the
// output.
func (s *Scheduler) DecisionCountsSorted() []ActionCount {
	out := make([]ActionCount, 0, len(s.counts))
	for a, n := range s.counts {
		out = append(out, ActionCount{Action: a, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Action < out[j].Action })
	return out
}

// SpecStats reports per-spec counters for analysis.
type SpecStats struct {
	Name      string
	Triggers  int
	Runs      int
	Unstables int
	Backoff   simclock.Time
	NextDue   simclock.Time
	Running   bool
}

// Stats returns per-spec statistics sorted by name.
func (s *Scheduler) Stats() []SpecStats {
	out := make([]SpecStats, 0, len(s.specs))
	for _, st := range s.specs {
		out = append(out, SpecStats{
			Name:      st.spec.Name,
			Triggers:  st.triggers,
			Runs:      st.runs,
			Unstables: st.unstables,
			Backoff:   st.backoff,
			NextDue:   st.nextDue,
			Running:   st.running,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
