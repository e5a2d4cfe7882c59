package federation

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/simclock"
)

// This file is the federation's site-scale chaos surface: deterministic
// disaster schedules (ScheduleChaos) and live injection (InjectGrid /
// HealGrid, driven by the gateway's /chaos endpoints), plus the
// availability queries the gateway's degraded-mode routing is built on.
// All state lives behind fed.mu; events take effect at barrier boundaries,
// which is what keeps serial and parallel advances bit-identical through a
// disaster.

// SetStepGate installs a wrapper around every micro-shard step performed
// by Advance: gate(site, cluster, step) must call step exactly once. The
// gateway uses this to take the micro-shard's write lock around its
// barrier ticks so live reads stay coherent. Must be set before the first
// Advance and not changed afterwards.
func (fed *Federation) SetStepGate(gate func(site, cluster string, step func())) {
	fed.stepGate = gate
}

// ScheduleChaos appends entries to the deterministic disaster schedule.
// Each entry injects its event when the federated clock reaches At (and
// schedules the heal at At+Duration, where applicable). Unknown sites, and
// entries GridInjector.Inject would refuse when they came due, are rejected
// now so a typo cannot silently schedule a no-op disaster.
func (fed *Federation) ScheduleChaos(entries ...faults.ScheduleEntry) error {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	for _, e := range entries {
		if err := fed.checkSitesLocked(e.Sites); err != nil {
			return err
		}
		var probe faults.GridInjector
		if _, err := probe.Inject(e.Kind, e.Sites, e.At, e.Duration); err != nil {
			return err
		}
	}
	for _, e := range entries {
		e.Sites = append([]string(nil), e.Sites...)
		fed.pending = append(fed.pending, e)
	}
	fed.applyDueLocked()
	return nil
}

// InjectGrid injects a grid event now (at the federated clock) and returns
// a value copy of it. RollingMaintenance takes window, the per-site window
// (0 = one barrier tick); the other kinds take duration, the delay to their
// heal (0 = heal manually). The parameter a kind does not take must be 0.
func (fed *Federation) InjectGrid(kind faults.GridKind, sites []string, window, duration simclock.Time) (faults.GridEvent, error) {
	switch {
	case kind == faults.RollingMaintenance && duration != 0:
		return faults.GridEvent{}, fmt.Errorf("federation: %s takes a window, not a duration", kind)
	case kind != faults.RollingMaintenance && window != 0:
		return faults.GridEvent{}, fmt.Errorf("federation: %s takes a duration, not a window", kind)
	case kind == faults.RollingMaintenance:
		duration = window
		if duration <= 0 {
			duration = barrier
		}
	}
	fed.mu.Lock()
	defer fed.mu.Unlock()
	if err := fed.checkSitesLocked(sites); err != nil {
		return faults.GridEvent{}, err
	}
	return fed.grid.Inject(kind, sites, fed.now, duration)
}

// HealGrid heals an active grid event right now, returning a value copy of
// the healed event.
func (fed *Federation) HealGrid(id int) (faults.GridEvent, error) {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return fed.grid.Heal(id, fed.now)
}

// ActiveGridEvents returns value copies of the active grid events, sorted
// by ID.
func (fed *Federation) ActiveGridEvents() []faults.GridEvent {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return fed.grid.Active()
}

// GridHistory returns value copies of every grid event ever injected, in
// injection order.
func (fed *Federation) GridHistory() []faults.GridEvent {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return fed.grid.History()
}

// SiteAvailable reports whether the named site is serving: false while an
// active outage or maintenance window has it down. Partitioned sites stay
// available (their site-scoped routes work; only merges exclude them).
// Unknown sites report false.
func (fed *Federation) SiteAvailable(site string) bool {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	if _, ok := fed.bySite[site]; !ok {
		return false
	}
	return !fed.grid.SiteDownAt(site, fed.now)
}

// LostSites returns the sites currently frozen by an active outage or
// maintenance window, and those isolated by a WAN partition (and not also
// down), each in shard order — one reading of the grid under one lock, so a
// site an event moves from one list to the other cannot be missing from
// both.
func (fed *Federation) LostSites() (down, unreachable []string) {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return fed.lostSitesLocked()
}

// lostSitesLocked returns the down sites and the partition-isolated (but
// not down) ones, each in site order. Caller holds fed.mu.
func (fed *Federation) lostSitesLocked() (down, unreachable []string) {
	iso := fed.grid.Isolated()
	for _, site := range fed.sites {
		switch {
		case fed.grid.SiteDownAt(site, fed.now):
			down = append(down, site)
		case iso[site]:
			unreachable = append(unreachable, site)
		}
	}
	return down, unreachable
}

// checkSitesLocked validates that every named site is a shard.
func (fed *Federation) checkSitesLocked(sites []string) error {
	if len(sites) == 0 {
		return fmt.Errorf("federation: grid event needs at least one site")
	}
	for _, s := range sites {
		if _, ok := fed.bySite[s]; !ok {
			return fmt.Errorf("federation: unknown site %q", s)
		}
	}
	return nil
}
