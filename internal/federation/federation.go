// Package federation coordinates a campaign split into per-cluster
// micro-shards behind per-site labels — the architecture the paper's
// subject actually has. Grid'5000 is not one scheduler: it is a federation
// of sites, each running its own OAR, its own monitoring and its own
// operations team, stitched together behind common APIs. The monolithic
// core.Framework collapses that into a single world; a Federation instead
// builds one complete Framework per cluster (its own OAR shard, monitor
// shard, fault and operator processes, CI server, bug tracker and
// simulated clock) and owns the barriers that keep the shards' clocks in
// lockstep. The site remains the unit of identity — chaos events, routing,
// summaries and clock debt are all site-granular; all of a site's
// micro-shards freeze, heal and step together — but the unit of *work* is
// the cluster, so the barrier's critical path is the mean shard, not the
// fattest site (nancy ≈ 2.4x luxembourg under per-site sharding).
//
// Determinism is the load-bearing property. Every micro-shard draws from
// an independent RNG stream whose seed is a pure function of (campaign
// seed, site name, cluster name) — see ShardSeed — and shards share no
// mutable state whatsoever, so stepping them serially or across GOMAXPROCS
// goroutines produces bit-identical campaign summaries. That is the
// same serial ≡ parallel discipline core.Fleet proved for multi-seed
// sweeps, now applied *inside* one campaign: Advance splits simulated time
// into barrier ticks (a simulated week), steps every shard through the
// tick, waits on the barrier, and repeats. Within a tick the workers
// work-steal: micro-shards are queued longest-processing-time-first (by
// node count, the deterministic cost model) and idle workers pull the next
// unit from the queue, so uneven sites no longer serialize the tick.
// TestFederationSerialParallelDeterminism and its 2x-scale sibling gate
// exactly this.
//
// Reporting merges shard outcomes the way the real federation's status
// pages do: per-site summaries fold a site's micro-shards back into one
// SiteSummary (weekly verdict counters sum week by week, bug and build
// counters sum), and the trend endpoints are re-selected from the merged
// report with the same volume threshold a monolithic campaign uses
// (core.TrendWeeks).
package federation

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// Config parameterises a federated campaign.
type Config struct {
	// Seed is the campaign seed; each micro-shard derives its own stream
	// from it via ShardSeed.
	Seed int64

	// Spec is the cluster specification to federate (nil =
	// testbed.DefaultSpec). Micro-shards are carved per cluster, grouped by
	// distinct Site in first-appearance order.
	Spec []testbed.ClusterSpec

	// Workers bounds how many barrier workers pull micro-shards
	// concurrently inside one tick. 0 means GOMAXPROCS; 1 steps shards
	// serially. The campaign outcome is identical either way.
	Workers int

	// Configure builds a shard's campaign profile from its site label (nil
	// = core.DefaultConfig). The returned Config's Seed and Spec are
	// overridden with the micro-shard's derived seed and single cluster.
	Configure func(site string, seed int64) core.Config
}

// barrier is the tick length between cross-site clock barriers. Shards
// never drift further apart than one barrier while an Advance is in flight,
// and always finish it in lockstep.
const barrier = simclock.Week

// Shard is one cluster's slice of the federated campaign: a complete
// framework over just that cluster, labeled with the site that owns it.
type Shard struct {
	Site    string
	Cluster string
	Seed    int64
	// Nodes is the shard's node count — the deterministic cost model the
	// work-stealing barrier orders its queue by.
	Nodes int
	F     *core.Framework

	idx int // position in Federation.shards
}

// Federation owns the per-cluster micro-shards and their lockstep clocks.
type Federation struct {
	cfg     Config
	shards  []*Shard            // site-grouped, cluster order within a site
	sites   []string            // distinct site labels, first-appearance order
	bySite  map[string][]*Shard // site → its micro-shards in cluster order
	workers int
	started bool

	// mu guards the federated clock and all chaos state below. Shard
	// frameworks are never touched under mu: Advance plans a tick under the
	// lock and executes it outside, so injecting or healing a grid event
	// from another goroutine (the gateway's /chaos endpoints) never blocks
	// behind a stepping shard.
	mu  sync.Mutex
	now simclock.Time

	// behind[i] is how far site i's micro-shard clocks lag the federated
	// clock, never negative: a downed site accrues debt each tick it sits
	// frozen at the barrier, and repays all of it in its first tick after
	// the heal. Debt is site-granular because chaos is: all of a site's
	// micro-shards freeze and catch up together, which is what keeps them
	// in lockstep with each other.
	behind []simclock.Time

	// grid owns the active site-scale events; pending/pendingHeals hold
	// the not-yet-due schedule. announced/healAnnounced track which events
	// already had their bug tickets filed/closed in the shard trackers.
	grid          *faults.GridInjector
	pending       []faults.ScheduleEntry
	pendingHeals  []pendingHeal
	announced     map[int]bool
	healAnnounced map[int]bool

	// stepGate wraps every micro-shard step so an embedder (the gateway)
	// can interleave its own per-shard locking with the barrier ticks; the
	// identity until SetStepGate.
	stepGate func(site, cluster string, step func())

	// gridListener, when set, is invoked (outside fed.mu) after any call
	// that can change grid availability or the federated clock: InjectGrid,
	// HealGrid and Advance. The gateway hangs its admission-queue pump off
	// this hook so a site outage invalidates queued reservations immediately
	// instead of waiting for the next submit.
	gridListener func()
}

// pendingHeal schedules the heal of an injected event.
type pendingHeal struct {
	id int
	at simclock.Time
}

// ShardSeed derives a micro-shard's RNG seed from the campaign seed, its
// site label and its cluster name (FNV-1a over site, a zero separator
// byte, then cluster, mixed into the base). The separator keeps the
// (site, cluster) split unambiguous — ("a","b") and ("ab","") hash apart —
// and the function is pure, so a shard's entire campaign depends only on
// (seed, site, cluster, profile): not on shard order, worker count,
// scheduling, or which other clusters the spec carries.
func ShardSeed(base int64, site, cluster string) int64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	for _, b := range []byte(site) {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ 0) * prime // separator: site/cluster boundary
	for _, b := range []byte(cluster) {
		h = (h ^ uint64(b)) * prime
	}
	return base ^ int64(h&0x7fffffffffffffff)
}

// New carves the spec into per-cluster micro-shards (grouped by site in
// first-appearance order) and builds their frameworks. Nothing runs until
// Start.
func New(cfg Config) *Federation {
	spec := cfg.Spec
	if spec == nil {
		spec = testbed.DefaultSpec
	}
	configure := cfg.Configure
	if configure == nil {
		configure = func(string, int64) core.Config { return core.DefaultConfig() }
	}
	// Group clusters by site in first-appearance order, so shard order is a
	// deterministic function of the spec.
	var sites []string
	bySiteSpec := map[string][]testbed.ClusterSpec{}
	for _, cs := range spec {
		if _, ok := bySiteSpec[cs.Site]; !ok {
			sites = append(sites, cs.Site)
		}
		bySiteSpec[cs.Site] = append(bySiteSpec[cs.Site], cs)
	}

	fed := &Federation{
		cfg:           cfg,
		sites:         sites,
		bySite:        make(map[string][]*Shard, len(sites)),
		workers:       cfg.Workers,
		grid:          faults.NewGridInjector(),
		announced:     map[int]bool{},
		healAnnounced: map[int]bool{},
		stepGate:      func(_, _ string, step func()) { step() },
	}
	if fed.workers <= 0 {
		fed.workers = runtime.GOMAXPROCS(0)
	}
	for _, site := range sites {
		for _, cs := range bySiteSpec[site] {
			seed := ShardSeed(cfg.Seed, site, cs.Name)
			c := configure(site, seed)
			c.Seed = seed
			c.Spec = []testbed.ClusterSpec{cs}
			sh := &Shard{
				Site:    site,
				Cluster: cs.Name,
				Seed:    seed,
				Nodes:   cs.NodeCount,
				F:       core.New(c),
				idx:     len(fed.shards),
			}
			fed.shards = append(fed.shards, sh)
			fed.bySite[site] = append(fed.bySite[site], sh)
		}
	}
	fed.behind = make([]simclock.Time, len(fed.sites))
	return fed
}

// Shards returns the micro-shards, grouped by site in first-appearance
// order, cluster order within a site.
func (fed *Federation) Shards() []*Shard { return fed.shards }

// Sites returns the distinct site labels in first-appearance order.
func (fed *Federation) Sites() []string { return fed.sites }

// Now returns the federated clock: the simulated time every healthy site
// has been advanced to (they finish every Advance in lockstep; a downed
// site lags by its accrued debt until it heals and catches up).
func (fed *Federation) Now() simclock.Time {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return fed.now
}

// Start arms every shard's processes (CI jobs, schedulers, faults,
// operators, user load). Idempotent, like Framework.Start.
func (fed *Federation) Start() {
	if fed.started {
		return
	}
	fed.started = true
	for _, sh := range fed.shards {
		sh.F.Start()
	}
}

// Advance steps every shard by d of simulated time, in barrier ticks: all
// shards complete tick k before any shard begins tick k+1. Within a tick
// the workers pull micro-shards from a deterministic cost-ordered queue
// (longest-processing-time-first by node count); because the shards share
// no state and the queue is fixed before the first pull, the outcome is
// bit-identical to the serial order no matter how the pulls interleave.
//
// Chaos events interleave deterministically with the barriers: before each
// tick the due part of the disaster schedule is applied, a site downed by
// an active event is frozen for the tick (every one of its micro-shards
// skips it atomically; the site accrues clock debt instead of stepping),
// and a healed site repays its debt with catch-up ticks before rejoining
// the lockstep. Because the plan for a tick is computed once under the
// federation lock and the shards share nothing, serial and parallel
// advances stay bit-identical even mid-disaster.
func (fed *Federation) Advance(d simclock.Time) {
	for d > 0 {
		fed.mu.Lock()
		tick := min(d, barrier)
		plan := fed.planTickLocked(tick)
		fed.mu.Unlock()
		fed.runPlan(plan)
		d -= tick
	}
	// Apply schedule entries landing exactly on the new clock so an event
	// due at the end of this Advance is visible (down routes, degraded
	// markers) as soon as Advance returns.
	fed.mu.Lock()
	fed.applyDueLocked()
	fed.mu.Unlock()
	fed.notifyGrid()
}

// shardWork is one micro-shard's slice of a tick plan: how far to step and
// which grid-event tickets to file or close in the shard's bug tracker
// first. Tickets ride only on a site's coordinator shard (its first
// cluster) — one root cause is one ticket per site, not one per cluster.
type shardWork struct {
	idx  int
	step simclock.Time
	file []gridTicket
	fix  []string
}

// gridTicket is the bug-report form of a grid event, captured as plain
// strings under the federation lock so the stepping goroutines never touch
// live event state.
type gridTicket struct {
	sig, title, target string
}

// planTickLocked applies the due chaos schedule, plans every shard's work
// for one tick and advances the federated clock. Caller holds fed.mu.
func (fed *Federation) planTickLocked(tick simclock.Time) []shardWork {
	fed.applyDueLocked()

	// Grid events announce themselves to the shard bug trackers exactly
	// once: a fresh event files one ticket per reachable site (one root
	// cause, not N cluster tickets), a fresh heal closes them.
	var file []gridTicket
	var fix []string
	for _, e := range fed.grid.Active() {
		if fed.announced[e.ID] {
			continue
		}
		fed.announced[e.ID] = true
		file = append(file, gridTicket{
			sig:    e.Signature(),
			title:  e.Title(),
			target: strings.Join(e.Sites, "+"),
		})
	}
	for _, e := range fed.grid.History() {
		if !e.Healed || fed.healAnnounced[e.ID] {
			continue
		}
		fed.healAnnounced[e.ID] = true
		if !fed.announced[e.ID] {
			// Healed before any shard heard of it: nothing to close.
			fed.announced[e.ID] = true
			continue
		}
		fix = append(fix, e.Signature())
	}

	plan := make([]shardWork, 0, len(fed.shards))
	for si, site := range fed.sites {
		if fed.grid.SiteDownAt(site, fed.now) {
			// Frozen at the barrier: every micro-shard of the site skips the
			// tick atomically and the site accrues clock debt to repay on
			// heal.
			fed.behind[si] += tick
			continue
		}
		step := fed.behind[si] + tick
		fed.behind[si] = 0
		for ci, sh := range fed.bySite[site] {
			w := shardWork{idx: sh.idx, step: step}
			if ci == 0 {
				w.file = file
				w.fix = fix
			}
			plan = append(plan, w)
		}
	}
	fed.now += tick
	return plan
}

// applyDueLocked injects schedule entries and heals whose time has come,
// and self-heals exhausted rolling maintenances. Caller holds fed.mu.
func (fed *Federation) applyDueLocked() {
	rest := fed.pending[:0]
	for _, e := range fed.pending {
		if e.At > fed.now {
			rest = append(rest, e)
			continue
		}
		window := simclock.Time(0)
		if e.Kind == faults.RollingMaintenance {
			window = e.Duration
		}
		ev, err := fed.grid.Inject(e.Kind, e.Sites, e.At, window)
		if err != nil {
			// Entries are validated in ScheduleChaos; an error here means a
			// site list raced a spec change, which cannot happen — drop it.
			continue
		}
		if e.Kind != faults.RollingMaintenance && e.Duration > 0 {
			fed.pendingHeals = append(fed.pendingHeals, pendingHeal{id: ev.ID, at: e.At + e.Duration})
		}
	}
	fed.pending = rest

	heals := fed.pendingHeals[:0]
	for _, h := range fed.pendingHeals {
		if h.at > fed.now {
			heals = append(heals, h)
			continue
		}
		// Ignore "not active": the event may have been healed by hand via
		// HealGrid before its scheduled heal came due.
		_ = fed.grid.Heal(h.id, h.at)
	}
	fed.pendingHeals = heals
	fed.grid.AutoHeal(fed.now)
}

// runPlan executes one tick's plan: every planned shard files/closes its
// grid tickets and steps its campaign. With more than one worker the shards
// are pulled work-stealing style — an atomic cursor over the plan sorted
// longest-processing-time-first — so an idle worker immediately takes the
// next-heaviest remaining shard instead of waiting on a static assignment.
// Shards share nothing and the queue is fixed before the first pull, so
// worker count and pull interleaving cannot change the outcome.
func (fed *Federation) runPlan(plan []shardWork) {
	workers := fed.workers
	if workers > len(plan) {
		workers = len(plan)
	}
	if workers <= 1 {
		for _, w := range plan {
			fed.runShardWork(w)
		}
		return
	}
	// LPT: node count descending, shard index ascending on ties. With
	// uniform per-node cost it bounds the barrier's makespan at
	// (4/3 − 1/3w)× optimal, and the order is a pure function of the plan,
	// so every run pulls from the same queue.
	sort.Slice(plan, func(i, j int) bool {
		ni, nj := fed.shards[plan[i].idx].Nodes, fed.shards[plan[j].idx].Nodes
		if ni != nj {
			return ni > nj
		}
		return plan[i].idx < plan[j].idx
	})
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//g5k:allow baregoroutine work-stealing barrier workers pull share-nothing micro-shards from a queue fixed before the first pull; pull interleaving cannot change the outcome (E17/E18/E21 gates)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(plan) {
					return
				}
				fed.runShardWork(plan[i])
			}
		}()
	}
	wg.Wait()
}

// runShardWork applies one micro-shard's slice of a tick plan. Ticket work
// and each catch-up chunk pass through the step gate separately, so an
// embedder holding per-shard locks (the gateway) never blocks readers for
// longer than one barrier tick.
func (fed *Federation) runShardWork(w shardWork) {
	sh := fed.shards[w.idx]
	gate := fed.stepGate
	if len(w.file) > 0 || len(w.fix) > 0 {
		gate(sh.Site, sh.Cluster, func() {
			for _, t := range w.file {
				sh.F.Bugs.File(t.sig, t.title, "grid", t.target)
			}
			for _, sig := range w.fix {
				if b := sh.F.Bugs.BySignature(sig); b != nil && b.State == bugs.Open {
					sh.F.Bugs.Fix(b.ID)
				}
			}
		})
	}
	for rest := w.step; rest > 0; {
		chunk := min(rest, barrier)
		gate(sh.Site, sh.Cluster, func() { sh.F.RunFor(chunk) })
		rest -= chunk
	}
}

// MergeWeekly sums per-site weekly reports into one federated report:
// counters add up week by week, and weeks in which no site reported are
// skipped (matching Framework.WeeklyReport's sparse shape).
func MergeWeekly(reports ...[]core.WeekCounts) []core.WeekCounts {
	byWeek := map[int]core.WeekCounts{}
	maxWeek := -1
	for _, rep := range reports {
		for _, w := range rep {
			acc := byWeek[w.Week]
			acc.Week = w.Week
			acc.Success += w.Success
			acc.Failure += w.Failure
			acc.Unstable += w.Unstable
			byWeek[w.Week] = acc
			if w.Week > maxWeek {
				maxWeek = w.Week
			}
		}
	}
	out := make([]core.WeekCounts, 0, len(byWeek))
	for w := 0; w <= maxWeek; w++ {
		if acc, ok := byWeek[w]; ok {
			out = append(out, acc)
		}
	}
	return out
}

// WeeklyReport returns the federated weekly build statistics: the sum of
// every shard's report, week by week.
func (fed *Federation) WeeklyReport() []core.WeekCounts {
	reports := make([][]core.WeekCounts, len(fed.shards))
	for i, sh := range fed.shards {
		reports[i] = sh.F.WeeklyReport()
	}
	return MergeWeekly(reports...)
}

// siteSummary folds one site's micro-shard campaigns into a single
// CampaignSummary, exactly as a per-site shard would have reported it:
// counters sum across clusters, the trend endpoints are re-selected from
// the site's merged weekly report, and Duration is the site's lockstep
// clock (every micro-shard of a site shares it by construction).
func (fed *Federation) siteSummary(site string) core.CampaignSummary {
	var out core.CampaignSummary
	var weeklies [][]core.WeekCounts
	for _, sh := range fed.bySite[site] {
		s := sh.F.Summary()
		out.Duration = s.Duration
		out.Builds += s.Builds
		out.BugsFiled += s.BugsFiled
		out.BugsFixed += s.BugsFixed
		out.BugsOpen += s.BugsOpen
		out.ActiveFaults += s.ActiveFaults
		weeklies = append(weeklies, sh.F.WeeklyReport())
	}
	out.FirstWeek, out.LastWeek = core.TrendWeeks(MergeWeekly(weeklies...))
	return out
}

// SiteSummary is one site's slice of a federated summary — its
// micro-shards folded back into the per-site view. The struct stays
// comparable (==) on purpose: the determinism gates compare serial and
// parallel summaries with plain equality.
type SiteSummary struct {
	Site    string
	Summary core.CampaignSummary
	// Down marks a site frozen by an active outage or maintenance window;
	// Unreachable marks one isolated by a WAN partition (still stepping,
	// excluded from the merge until heal).
	Down        bool
	Unreachable bool
}

// Summary is the outcome of a federated campaign: the cross-site merge
// plus every site's own summary (in site order). While the federation is
// degraded, Merged covers only the reachable sites — the partitioned
// groups' numbers reconcile into the merge once the events heal.
type Summary struct {
	Merged           core.CampaignSummary
	Sites            []SiteSummary
	Degraded         bool
	DownSites        []string
	UnreachableSites []string
}

func (s Summary) String() string {
	if s.Degraded {
		return fmt.Sprintf("federation of %d sites (degraded: %d down, %d unreachable), %s",
			len(s.Sites), len(s.DownSites), len(s.UnreachableSites), s.Merged)
	}
	return fmt.Sprintf("federation of %d sites, %s", len(s.Sites), s.Merged)
}

// Summary merges the shard campaigns: counters sum across sites, the
// trend endpoints are re-selected from the merged weekly report with the
// monolithic volume rule, and Duration is the federated clock. Sites downed
// or isolated by an active grid event are excluded from the merge (their
// own SiteSummary still reports their numbers) until the event heals.
func (fed *Federation) Summary() Summary {
	fed.mu.Lock()
	now := fed.now
	down := fed.downSitesLocked()
	unreachable := fed.unreachableSitesLocked()
	fed.mu.Unlock()

	out := Summary{
		Sites:            make([]SiteSummary, len(fed.sites)),
		Degraded:         len(down)+len(unreachable) > 0,
		DownSites:        down,
		UnreachableSites: unreachable,
	}
	isDown := sliceSet(down)
	isUnreachable := sliceSet(unreachable)
	out.Merged.Duration = now
	var mergedReports [][]core.WeekCounts
	for i, site := range fed.sites {
		s := fed.siteSummary(site)
		out.Sites[i] = SiteSummary{
			Site:        site,
			Summary:     s,
			Down:        isDown[site],
			Unreachable: isUnreachable[site],
		}
		if isDown[site] || isUnreachable[site] {
			continue
		}
		out.Merged.Builds += s.Builds
		out.Merged.BugsFiled += s.BugsFiled
		out.Merged.BugsFixed += s.BugsFixed
		out.Merged.BugsOpen += s.BugsOpen
		out.Merged.ActiveFaults += s.ActiveFaults
		for _, sh := range fed.bySite[site] {
			mergedReports = append(mergedReports, sh.F.WeeklyReport())
		}
	}
	out.Merged.FirstWeek, out.Merged.LastWeek = core.TrendWeeks(MergeWeekly(mergedReports...))
	return out
}

// sliceSet turns a site list into a membership set.
func sliceSet(sites []string) map[string]bool {
	m := make(map[string]bool, len(sites))
	for _, s := range sites {
		m[s] = true
	}
	return m
}
