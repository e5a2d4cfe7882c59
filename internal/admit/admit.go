// Package admit is the grid-level admission layer between the gateway and
// the federation's shards — the pooled meta-scheduler the real
// Grid'5000 front door needs once submissions stop naming a site.
//
// A submission without an anchor could be satisfied anywhere, so the
// controller probes every live site with a CanStartNowReq and routes
// the job to the least-loaded site that can start it right now.
// Requests no site can start enter a bounded, fairness-aware reservation
// queue with a per-request deadline instead of failing; every campaign
// advance (and every chaos transition) pumps the queue, placing whatever
// newly-freed capacity allows. When the queue is full the gateway sheds
// load with 429 + Retry-After — the layer never buffers unboundedly — and
// a per-site breaker trips placement away from sites that are down,
// partitioned, or persistently refusing work, so a site outage fails
// queued reservations fast and re-routes new arrivals.
//
// The grid-wide peak-hours rule (sched.AllowNow) always applies: a
// whole-cluster demand during working hours queues even when capacity is
// free, and a dry run answers what the submission would get.
//
// Determinism is preserved by construction. Probes are read-only and
// RNG-free, run serially in site order, and the placement decision is a
// pure function of the gathered results (least busy/total load ratio, ties
// broken by lexicographically smallest site name). Time is an injected
// simulated-clock function and the controller spawns no goroutines, keeping
// the package clean under the repository's walltime and baregoroutine
// analyzers. Controller.mu is its one lock: gateway handlers admit and
// probe from their own goroutines while the Advance driver pumps the queue.
package admit

import (
	"sort"
	"sync"

	"repro/internal/oar"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// Backend is one site's placement surface. The gateway adapts each of its
// shards to this interface; probes and placements run under the shard's
// own write gate (a probe reuses OAR's allocation scratch), so they never
// block another site's progress.
type Backend interface {
	// Site returns the backend's site name (unique across backends).
	Site() string
	// Available reports whether the site is serving (false while an
	// outage, maintenance window or partition has it out of the grid).
	Available() bool
	// Capacity returns the site's allocated and total node counts.
	Capacity() (busy, total int)
	// CanPlace probes whether the request could start right now — an
	// RNG-free CanStartNowReq against the site's OAR.
	CanPlace(req oar.Request) bool
	// Place pins the request to the site and submits it. It errors only
	// when the site cannot take submissions at all (down mid-flight);
	// contention after a successful probe leaves the job in the site's
	// own OAR queue, which is placement, not failure.
	Place(req oar.Request, user string) (oar.JobInfo, error)
}

// The controller's fixed policy.
const (
	// queueCap bounds the reservation queue; arrivals beyond it are shed
	// with 429 + Retry-After.
	queueCap = 64
	// deadline is how long a reservation may wait (simulated time) before
	// it expires.
	deadline = 2 * simclock.Hour
	// retryAfterSec is the Retry-After hint attached to shed responses.
	retryAfterSec = 30
	// breakerThreshold is how many consecutive placement refusals trip a
	// site's breaker.
	breakerThreshold = 3
	// breakerCooldown is how long (simulated time) a tripped breaker holds
	// the site out of placement before a half-open probe.
	breakerCooldown = 30 * simclock.Minute
)

// Status classifies an admission outcome.
type Status string

const (
	// Placed: a site could start the request now; it was submitted there.
	Placed Status = "placed"
	// Queued: no site could start it; a reservation waits in the queue.
	Queued Status = "queued"
	// Shed: the queue is full; the caller must retry after RetryAfterSec.
	Shed Status = "shed"
)

// Outcome is the result of one Admit call.
type Outcome struct {
	Status Status
	// Site and Job are set for Placed.
	Site string
	Job  oar.JobInfo
	// Reservation is set for Queued.
	Reservation ReservationJSON
	// RetryAfterSec is set for Shed.
	RetryAfterSec int
}

// ReservationJSON is the wire form of one queued reservation.
type ReservationJSON struct {
	ID            int     `json:"id"`
	Request       string  `json:"request"`
	User          string  `json:"user,omitempty"`
	Position      int     `json:"position"`
	EnqueuedAtSec float64 `json:"enqueued_at_sec"`
	DeadlineSec   float64 `json:"deadline_sec"`
}

// ResolvedJSON is one finished reservation in the recently-resolved ring.
type ResolvedJSON struct {
	ID      int     `json:"id"`
	Outcome string  `json:"outcome"` // placed | expired | failed
	Site    string  `json:"site,omitempty"`
	JobID   int     `json:"job_id,omitempty"`
	AtSec   float64 `json:"at_sec"`
}

// BreakerJSON is one site's breaker state on the wire.
type BreakerJSON struct {
	Site     string `json:"site"`
	State    string `json:"state"` // closed | open | half-open | site-down
	Failures int    `json:"failures,omitempty"`
}

// StatsJSON is the controller's counter block (also embedded in the
// gateway's /metrics report).
type StatsJSON struct {
	Depth        int   `json:"depth"`
	Capacity     int   `json:"capacity"`
	MaxDepth     int   `json:"max_depth"`
	Probes       int64 `json:"probes"`
	Placed       int64 `json:"placed"`
	Queued       int64 `json:"queued"`
	QueuedPlaced int64 `json:"queued_placed"`
	Shed         int64 `json:"shed"`
	Expired      int64 `json:"expired"`
	Failed       int64 `json:"failed"`
	DeferredPeak int64 `json:"deferred_peak,omitempty"`
}

// QueueJSON is the wire form of GET /admit/queue.
type QueueJSON struct {
	Stats    StatsJSON         `json:"stats"`
	Waiting  []ReservationJSON `json:"waiting"`
	Resolved []ResolvedJSON    `json:"resolved,omitempty"`
	Breakers []BreakerJSON     `json:"breakers"`
}

// resolvedRing bounds the recently-resolved history kept for /admit/queue.
const resolvedRing = 32

// reservation is one queued request.
type reservation struct {
	id       int
	req      oar.Request
	user     string
	enqueued simclock.Time
	deadline simclock.Time
}

// breaker is one site's failure tracker.
type breaker struct {
	failures int
	openedAt simclock.Time // set when failures reached the threshold
}

// Controller is the admission layer. One instance fronts all sites.
type Controller struct {
	now      func() simclock.Time
	backends []Backend // sorted by site name

	mu       sync.Mutex
	queue    []*reservation
	nextID   int
	breakers map[string]*breaker
	resolved []ResolvedJSON // ring, oldest first once full
	resHead  int

	maxDepth     int
	probes       int64
	placed       int64
	queued       int64
	queuedPlaced int64
	shed         int64
	expired      int64
	failed       int64
	deferredPeak int64
}

// New builds a controller over the given backends. now supplies the
// simulated clock: deadlines and breaker cooldowns are measured in campaign
// time, not wall time. Backends are sorted by site name, so placement
// tiebreaks do not depend on registration order.
func New(now func() simclock.Time, backends []Backend) *Controller {
	sorted := append([]Backend(nil), backends...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Site() < sorted[j].Site() })
	return &Controller{
		now:      now,
		backends: sorted,
		breakers: map[string]*breaker{},
	}
}

// probe is one backend's gathered probe result.
type probe struct {
	backend  Backend
	canStart bool
	busy     int
	total    int
}

// candidates returns the backends placement may consider right now: live
// sites whose breaker is closed (or due a half-open trial). Caller holds
// c.mu; the availability checks go to the chaos layer, not the shards, so
// they are cheap and lock-ordering-safe.
func (c *Controller) candidatesLocked(now simclock.Time) []Backend {
	out := make([]Backend, 0, len(c.backends))
	for _, b := range c.backends {
		if !b.Available() {
			continue
		}
		if br := c.breakers[b.Site()]; br != nil && br.failures >= breakerThreshold {
			if now < br.openedAt+breakerCooldown {
				continue // open: placement routed away
			}
			// Cooldown over: half-open, let one placement attempt through.
		}
		out = append(out, b)
	}
	return out
}

// probeAll probes the request against every candidate, in site order.
func probeAll(cands []Backend, req oar.Request) []probe {
	results := make([]probe, len(cands))
	for i, b := range cands {
		busy, total := b.Capacity()
		results[i] = probe{backend: b, canStart: b.CanPlace(req), busy: busy, total: total}
	}
	return results
}

// pickSite chooses the least-loaded startable site: smallest busy/total
// ratio, compared by cross-multiplication so the decision stays in exact
// integer arithmetic; ties go to the lexicographically smallest site name
// (the probe slice is sorted by site already). Returns nil when no site
// can start the request.
func pickSite(probes []probe) Backend {
	var best *probe
	for i := range probes {
		p := &probes[i]
		if !p.canStart || p.total <= 0 {
			continue
		}
		if best == nil || p.busy*best.total < best.busy*p.total {
			best = p
		}
	}
	if best == nil {
		return nil
	}
	return best.backend
}

// Probe runs the placement probe without admitting anything: the dry-run
// form of Admit. It returns the site that would take the request now, or
// ok=false when Admit would not place it now: no live site can start it,
// or the peak-hours rule holds it back.
func (c *Controller) Probe(req oar.Request) (site string, ok bool) {
	now := c.now()
	if !sched.AllowNow(req, now) {
		return "", false
	}
	c.mu.Lock()
	cands := c.candidatesLocked(now)
	c.mu.Unlock()
	results := probeAll(cands, req)
	c.mu.Lock()
	c.probes += int64(len(results))
	c.mu.Unlock()
	if b := pickSite(results); b != nil {
		return b.Site(), true
	}
	return "", false
}

// Admit routes one unanchored submission: place it on the least-loaded
// startable site, queue a reservation when nothing can start it, or shed
// when the queue is full.
func (c *Controller) Admit(req oar.Request, user string) Outcome {
	now := c.now()
	c.mu.Lock()
	cands := c.candidatesLocked(now)
	c.mu.Unlock()

	allowNow := sched.AllowNow(req, now)
	var results []probe
	if allowNow {
		results = probeAll(cands, req)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.probes += int64(len(results))
	if !allowNow {
		c.deferredPeak++
	}
	if b := pickSite(results); b != nil {
		if info, err := c.placeLocked(b, req, user, now); err == nil {
			c.placed++
			return Outcome{Status: Placed, Site: b.Site(), Job: info}
		}
		// The probed site refused between probe and placement (downed
		// mid-flight); fall through to the queue like any other miss.
	}
	if len(c.queue) >= queueCap {
		c.shed++
		return Outcome{Status: Shed, RetryAfterSec: retryAfterSec}
	}
	c.nextID++
	r := &reservation{
		id:       c.nextID,
		req:      req,
		user:     user,
		enqueued: now,
		deadline: now + deadline,
	}
	c.queue = append(c.queue, r)
	c.queued++
	if len(c.queue) > c.maxDepth {
		c.maxDepth = len(c.queue)
	}
	return Outcome{Status: Queued, Reservation: c.reservationJSONLocked(r, len(c.queue)-1)}
}

// placeLocked submits the request to the chosen site and keeps the site's
// breaker honest: success closes it, refusal counts toward tripping it.
// Caller holds c.mu; Place itself only touches the target shard.
func (c *Controller) placeLocked(b Backend, req oar.Request, user string, now simclock.Time) (oar.JobInfo, error) {
	info, err := b.Place(req, user)
	br := c.breakers[b.Site()]
	if err != nil {
		if br == nil {
			br = &breaker{}
			c.breakers[b.Site()] = br
		}
		br.failures++
		if br.failures == breakerThreshold {
			br.openedAt = now
		}
		return oar.JobInfo{}, err
	}
	if br != nil {
		delete(c.breakers, b.Site())
	}
	return info, nil
}

// Pump drains what the queue can place right now: expired reservations
// fail, reservations are re-probed oldest first, and — the fairness
// property — a large request stuck at the head does not block smaller
// requests behind it (every entry gets its own probe, backfill style).
// Call it after every campaign advance and every chaos transition; it is a
// cheap no-op while the queue is empty.
func (c *Controller) Pump() {
	now := c.now()
	c.mu.Lock()
	if len(c.queue) == 0 {
		c.mu.Unlock()
		return
	}
	pending := append([]*reservation(nil), c.queue...)
	cands := c.candidatesLocked(now)
	c.mu.Unlock()

	anyLive := len(cands) > 0
	type verdict struct {
		r       *reservation
		outcome string // keep | expired | failed | place
		site    Backend
	}
	verdicts := make([]verdict, 0, len(pending))
	for _, r := range pending {
		switch {
		case now >= r.deadline:
			verdicts = append(verdicts, verdict{r: r, outcome: "expired"})
		case !anyLive:
			// No live site anywhere: fail fast rather than let every
			// reservation sit out its deadline against a dead grid.
			verdicts = append(verdicts, verdict{r: r, outcome: "failed"})
		case !sched.AllowNow(r.req, now):
			verdicts = append(verdicts, verdict{r: r, outcome: "keep"})
		default:
			results := probeAll(cands, r.req)
			c.mu.Lock()
			c.probes += int64(len(results))
			c.mu.Unlock()
			if b := pickSite(results); b != nil {
				verdicts = append(verdicts, verdict{r: r, outcome: "place", site: b})
			} else {
				verdicts = append(verdicts, verdict{r: r, outcome: "keep"})
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	done := map[int]bool{}
	for _, v := range verdicts {
		switch v.outcome {
		case "expired":
			c.expired++
			c.resolveLocked(ResolvedJSON{ID: v.r.id, Outcome: "expired", AtSec: now.Seconds()})
			done[v.r.id] = true
		case "failed":
			c.failed++
			c.resolveLocked(ResolvedJSON{ID: v.r.id, Outcome: "failed", AtSec: now.Seconds()})
			done[v.r.id] = true
		case "place":
			info, err := c.placeLocked(v.site, v.r.req, v.r.user, now)
			if err != nil {
				continue // site lost mid-pump; the reservation stays queued
			}
			c.queuedPlaced++
			c.resolveLocked(ResolvedJSON{
				ID: v.r.id, Outcome: "placed", Site: v.site.Site(),
				JobID: info.ID, AtSec: now.Seconds(),
			})
			done[v.r.id] = true
		}
	}
	if len(done) > 0 {
		kept := c.queue[:0]
		for _, r := range c.queue {
			if !done[r.id] {
				kept = append(kept, r)
			}
		}
		c.queue = kept
	}
}

// resolveLocked appends to the bounded recently-resolved ring.
func (c *Controller) resolveLocked(r ResolvedJSON) {
	if len(c.resolved) < resolvedRing {
		c.resolved = append(c.resolved, r)
		return
	}
	c.resolved[c.resHead] = r
	c.resHead++
	if c.resHead == len(c.resolved) {
		c.resHead = 0
	}
}

func (c *Controller) reservationJSONLocked(r *reservation, pos int) ReservationJSON {
	return ReservationJSON{
		ID:            r.id,
		Request:       r.req.String(),
		User:          r.user,
		Position:      pos,
		EnqueuedAtSec: r.enqueued.Seconds(),
		DeadlineSec:   r.deadline.Seconds(),
	}
}

// Stats snapshots the counter block.
func (c *Controller) Stats() StatsJSON {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

func (c *Controller) statsLocked() StatsJSON {
	return StatsJSON{
		Depth:        len(c.queue),
		Capacity:     queueCap,
		MaxDepth:     c.maxDepth,
		Probes:       c.probes,
		Placed:       c.placed,
		Queued:       c.queued,
		QueuedPlaced: c.queuedPlaced,
		Shed:         c.shed,
		Expired:      c.expired,
		Failed:       c.failed,
		DeferredPeak: c.deferredPeak,
	}
}

// Queue snapshots the full observability view (what GET /admit/queue
// serves): counters, waiting reservations in FIFO order, the
// recently-resolved ring, and every site's breaker state.
func (c *Controller) Queue() QueueJSON {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := QueueJSON{
		Stats:    c.statsLocked(),
		Waiting:  make([]ReservationJSON, 0, len(c.queue)),
		Breakers: make([]BreakerJSON, 0, len(c.backends)),
	}
	for i, r := range c.queue {
		out.Waiting = append(out.Waiting, c.reservationJSONLocked(r, i))
	}
	out.Resolved = append(out.Resolved, c.resolved[c.resHead:]...)
	out.Resolved = append(out.Resolved, c.resolved[:c.resHead]...)
	for _, b := range c.backends {
		bj := BreakerJSON{Site: b.Site(), State: "closed"}
		if !b.Available() {
			bj.State = "site-down"
		}
		if br := c.breakers[b.Site()]; br != nil {
			bj.Failures = br.failures
			if br.failures >= breakerThreshold {
				if now < br.openedAt+breakerCooldown {
					bj.State = "open"
				} else if bj.State == "closed" {
					bj.State = "half-open"
				}
			}
		}
		out.Breakers = append(out.Breakers, bj)
	}
	return out
}
