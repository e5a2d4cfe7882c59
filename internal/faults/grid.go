package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/simclock"
)

// GridKind identifies a site-scale (grid-level) fault class. Node and link
// faults model what goes wrong *inside* a site; grid events model what goes
// wrong *between* sites once the campaign is federated: a whole site going
// dark, a WAN partition between shards, a rolling re-image across sites.
type GridKind string

// The grid-event catalogue.
const (
	// SiteOutage takes every listed site completely offline: its shard's
	// clock freezes at the federation barrier and its API routes disappear
	// until the event heals.
	SiteOutage GridKind = "site-outage"

	// WANPartition cuts the listed sites off from the federation's merge
	// plane: their shards keep stepping locally, but merged summaries and
	// scatter-gather responses exclude them until the partition heals and
	// the groups reconcile.
	WANPartition GridKind = "wan-partition"

	// RollingMaintenance re-images the listed sites one at a time: site i
	// is down during window i (measured from injection), so at most one of
	// the listed sites is dark at any instant. The event heals itself once
	// every window has elapsed.
	RollingMaintenance GridKind = "rolling-maintenance"
)

// GridEvent is one injected site-scale event. Like node faults, events are
// identified by ID, carry inject/heal timestamps off the sim clock, and
// expose a stable Signature for bug deduplication.
type GridEvent struct {
	ID         int
	Kind       GridKind
	Sites      []string // affected sites, in injection order
	InjectedAt simclock.Time
	// Window is the per-site maintenance window for RollingMaintenance
	// (site i is down during [InjectedAt+i·Window, InjectedAt+(i+1)·Window)).
	// Zero for the other kinds.
	Window   simclock.Time
	Healed   bool
	HealedAt simclock.Time
}

// Signature is the stable identity used for bug deduplication, in the same
// shape node faults use: one signature per root cause, so a site outage is
// one ticket rather than N.
func (e *GridEvent) Signature() string {
	return fmt.Sprintf("%s:%s", e.Kind, strings.Join(e.Sites, "+"))
}

func (e *GridEvent) String() string {
	return fmt.Sprintf("grid event #%d %s (injected %s)", e.ID, e.Signature(), e.InjectedAt)
}

// Title is the human-readable bug-report title for the event.
func (e *GridEvent) Title() string {
	switch e.Kind {
	case SiteOutage:
		return fmt.Sprintf("site outage: %s unreachable", strings.Join(e.Sites, ", "))
	case WANPartition:
		return fmt.Sprintf("WAN partition isolating %s", strings.Join(e.Sites, ", "))
	default:
		return fmt.Sprintf("rolling maintenance across %s", strings.Join(e.Sites, ", "))
	}
}

// downAt reports whether the named site is down (frozen, routes dark) under
// this event at the given instant.
func (e *GridEvent) downAt(site string, now simclock.Time) bool {
	if e.Healed {
		return false
	}
	switch e.Kind {
	case SiteOutage:
		for _, s := range e.Sites {
			if s == site {
				return true
			}
		}
	case RollingMaintenance:
		for i, s := range e.Sites {
			if s != site {
				continue
			}
			start := e.InjectedAt + simclock.Time(i)*e.Window
			return now >= start && now < start+e.Window
		}
	}
	return false
}

// exhaustedAt reports whether a RollingMaintenance event has run out every
// per-site window by the given instant (and so should self-heal).
func (e *GridEvent) exhaustedAt(now simclock.Time) bool {
	if e.Kind != RollingMaintenance {
		return false
	}
	return now >= e.InjectedAt+simclock.Time(len(e.Sites))*e.Window
}

// GridInjector owns the active site-scale events. It is deliberately pure
// state + queries — no locking and no clock of its own — because the
// federation drives it under its own mutex off the federated clock, exactly
// like the per-shard Injector is driven by its shard's clock.
type GridInjector struct {
	nextID  int
	active  map[int]*GridEvent
	history []*GridEvent
}

// NewGridInjector returns an injector with no active events.
func NewGridInjector() *GridInjector {
	return &GridInjector{active: map[int]*GridEvent{}}
}

// Inject registers a new grid event starting at the given instant. A
// RollingMaintenance event needs a positive per-site window; the other kinds
// ignore it. Every event needs at least one site.
func (g *GridInjector) Inject(kind GridKind, sites []string, at, window simclock.Time) (*GridEvent, error) {
	switch kind {
	case SiteOutage, WANPartition, RollingMaintenance:
	default:
		return nil, fmt.Errorf("faults: unknown grid event kind %q", kind)
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("faults: grid event %s needs at least one site", kind)
	}
	seen := map[string]bool{}
	for _, s := range sites {
		if s == "" {
			return nil, fmt.Errorf("faults: grid event %s has an empty site name", kind)
		}
		if seen[s] {
			return nil, fmt.Errorf("faults: grid event %s lists site %q twice", kind, s)
		}
		seen[s] = true
	}
	if kind == RollingMaintenance && window <= 0 {
		return nil, fmt.Errorf("faults: rolling maintenance needs a positive per-site window")
	}
	if kind != RollingMaintenance {
		window = 0
	}
	g.nextID++
	e := &GridEvent{
		ID:         g.nextID,
		Kind:       kind,
		Sites:      append([]string(nil), sites...),
		InjectedAt: at,
		Window:     window,
	}
	g.active[e.ID] = e
	g.history = append(g.history, e)
	return e, nil
}

// Heal undoes an active event at the given instant. Healing twice is an
// error, matching Injector.Fix semantics.
func (g *GridInjector) Heal(id int, at simclock.Time) error {
	e, ok := g.active[id]
	if !ok {
		return fmt.Errorf("faults: no active grid event #%d", id)
	}
	e.Healed = true
	e.HealedAt = at
	delete(g.active, id)
	return nil
}

// AutoHeal heals every RollingMaintenance event whose windows have all
// elapsed by the given instant, returning the healed events sorted by ID.
func (g *GridInjector) AutoHeal(now simclock.Time) []*GridEvent {
	var done []*GridEvent
	for _, e := range g.active {
		if e.exhaustedAt(now) {
			done = append(done, e)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].ID < done[j].ID })
	for _, e := range done {
		e.Healed = true
		e.HealedAt = now
		delete(g.active, e.ID)
	}
	return done
}

// Get returns the event with the given ID (active or healed), or nil.
func (g *GridInjector) Get(id int) *GridEvent {
	for _, e := range g.history {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// Active returns the active (unhealed) events sorted by ID.
func (g *GridInjector) Active() []*GridEvent {
	out := make([]*GridEvent, 0, len(g.active))
	for _, e := range g.active {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// History returns every event ever injected, healed or not, in injection
// order.
func (g *GridInjector) History() []*GridEvent { return append([]*GridEvent(nil), g.history...) }

// SiteDownAt reports whether the named site is down — its shard frozen and
// its routes dark — under any active event at the given instant.
func (g *GridInjector) SiteDownAt(site string, now simclock.Time) bool {
	for _, e := range g.active {
		if e.downAt(site, now) {
			return true
		}
	}
	return false
}

// IsolatedAt returns the set of sites cut off from the federation's merge
// plane by active WAN partitions at the given instant. Isolated shards keep
// stepping; they just stop contributing to merged views until heal.
func (g *GridInjector) IsolatedAt(now simclock.Time) map[string]bool {
	out := map[string]bool{}
	for _, e := range g.active {
		if e.Kind != WANPartition || e.Healed {
			continue
		}
		for _, s := range e.Sites {
			out[s] = true
		}
	}
	return out
}

// ScheduleEntry is one step of a deterministic disaster schedule: inject
// Kind on Sites at time At. For SiteOutage and WANPartition, Duration > 0
// schedules the heal at At+Duration (0 = heal manually). For
// RollingMaintenance, Duration is the per-site window and the event heals
// itself once every window has elapsed.
type ScheduleEntry struct {
	Kind     GridKind
	Sites    []string
	At       simclock.Time
	Duration simclock.Time
}

// gridKindAliases maps schedule-string spellings to kinds.
var gridKindAliases = map[string]GridKind{
	"outage":                   SiteOutage,
	string(SiteOutage):         SiteOutage,
	"partition":                WANPartition,
	string(WANPartition):       WANPartition,
	"maintenance":              RollingMaintenance,
	string(RollingMaintenance): RollingMaintenance,
}

// ParseSchedule parses a comma-separated disaster schedule of the form
//
//	kind:site1+site2@start+duration[,kind:...]
//
// e.g. "outage:lyon@1w+1w,partition:nancy+grenoble@3w+2w". Kinds accept the
// short aliases outage, partition and maintenance as well as the canonical
// signatures. Times take simulated-duration suffixes w (weeks) and d (days)
// on a bare number, or any Go duration string (30m, 2h45m, ...).
func ParseSchedule(s string) ([]ScheduleEntry, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("faults: empty chaos schedule")
	}
	var out []ScheduleEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("faults: empty entry in chaos schedule %q", s)
		}
		kindStr, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("faults: chaos entry %q: want kind:sites@start+duration", part)
		}
		kind, ok := gridKindAliases[kindStr]
		if !ok {
			return nil, fmt.Errorf("faults: chaos entry %q: unknown kind %q", part, kindStr)
		}
		sitesStr, timing, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("faults: chaos entry %q: missing @start", part)
		}
		var sites []string
		for _, site := range strings.Split(sitesStr, "+") {
			site = strings.TrimSpace(site)
			if site == "" {
				return nil, fmt.Errorf("faults: chaos entry %q: empty site name", part)
			}
			sites = append(sites, site)
		}
		atStr, durStr, hasDur := strings.Cut(timing, "+")
		at, err := parseSimDuration(atStr)
		if err != nil {
			return nil, fmt.Errorf("faults: chaos entry %q: bad start: %v", part, err)
		}
		var dur simclock.Time
		if hasDur {
			dur, err = parseSimDuration(durStr)
			if err != nil {
				return nil, fmt.Errorf("faults: chaos entry %q: bad duration: %v", part, err)
			}
			if dur <= 0 {
				return nil, fmt.Errorf("faults: chaos entry %q: duration must be positive", part)
			}
		}
		if kind == RollingMaintenance && dur <= 0 {
			return nil, fmt.Errorf("faults: chaos entry %q: maintenance needs a +window", part)
		}
		out = append(out, ScheduleEntry{Kind: kind, Sites: sites, At: at, Duration: dur})
	}
	return out, nil
}

// parseSimDuration parses a simulated duration: a bare number with a w
// (weeks) or d (days) suffix, or any Go duration string.
func parseSimDuration(s string) (simclock.Time, error) {
	s = strings.TrimSpace(s)
	// Within ±10 000 units: NaN and what would overflow a simclock.Time
	// fall through to ParseDuration, which refuses them.
	if n, ok := strings.CutSuffix(s, "w"); ok {
		if v, err := strconv.ParseFloat(n, 64); err == nil && math.Abs(v) <= 1e4 {
			return simclock.Time(v * float64(simclock.Week)), nil
		}
	}
	if n, ok := strings.CutSuffix(s, "d"); ok {
		if v, err := strconv.ParseFloat(n, 64); err == nil && math.Abs(v) <= 1e4 {
			return simclock.Time(v * float64(24*time.Hour)), nil
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return simclock.Time(d), nil
}
