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

// SetGridListener installs a callback fired (outside fed.mu) after every
// InjectGrid, HealGrid and Advance — the calls that can change which sites
// are live or move the federated clock. The gateway uses it to pump the
// admission queue, so queued reservations against a site that just went
// down fail or re-route immediately. Must be set before the federation
// starts serving and not changed afterwards; the listener must not call
// back into Inject/Heal/Advance.
func (fed *Federation) SetGridListener(fn func()) {
	fed.gridListener = fn
}

// notifyGrid invokes the grid listener, if any. Callers must not hold
// fed.mu: the listener typically takes gateway and shard locks of its own.
func (fed *Federation) notifyGrid() {
	if fed.gridListener != nil {
		fed.gridListener()
	}
}

// ScheduleChaos appends entries to the deterministic disaster schedule.
// Each entry injects its event when the federated clock reaches At (and
// schedules the heal at At+Duration, where applicable). Unknown sites are
// rejected so a typo cannot silently schedule a no-op disaster.
func (fed *Federation) ScheduleChaos(entries ...faults.ScheduleEntry) error {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	for _, e := range entries {
		if err := fed.checkSitesLocked(e.Sites); err != nil {
			return err
		}
		if e.Kind == faults.RollingMaintenance && e.Duration <= 0 {
			return fmt.Errorf("federation: rolling maintenance needs a per-site window")
		}
	}
	for _, e := range entries {
		e.Sites = append([]string(nil), e.Sites...)
		fed.pending = append(fed.pending, e)
	}
	fed.applyDueLocked()
	return nil
}

// InjectGrid injects a grid event right now (at the federated clock). For
// RollingMaintenance, window is the per-site window (0 = one barrier tick).
// For the other kinds, duration > 0 schedules the heal that much later
// (0 = heal manually). Returns a value copy of the event.
func (fed *Federation) InjectGrid(kind faults.GridKind, sites []string, window, duration simclock.Time) (faults.GridEvent, error) {
	fed.mu.Lock()
	if err := fed.checkSitesLocked(sites); err != nil {
		fed.mu.Unlock()
		return faults.GridEvent{}, err
	}
	if kind == faults.RollingMaintenance && window <= 0 {
		window = fed.barrier
	}
	ev, err := fed.grid.Inject(kind, sites, fed.now, window)
	if err != nil {
		fed.mu.Unlock()
		return faults.GridEvent{}, err
	}
	if kind != faults.RollingMaintenance && duration > 0 {
		fed.pendingHeals = append(fed.pendingHeals, pendingHeal{id: ev.ID, at: fed.now + duration})
	}
	out := eventCopy(ev)
	fed.mu.Unlock()
	fed.notifyGrid()
	return out, nil
}

// HealGrid heals an active grid event right now, returning a value copy of
// the healed event.
func (fed *Federation) HealGrid(id int) (faults.GridEvent, error) {
	fed.mu.Lock()
	if err := fed.grid.Heal(id, fed.now); err != nil {
		fed.mu.Unlock()
		return faults.GridEvent{}, err
	}
	out := eventCopy(fed.grid.Get(id))
	fed.mu.Unlock()
	fed.notifyGrid()
	return out, nil
}

// ActiveGridEvents returns value copies of the active grid events, sorted
// by ID.
func (fed *Federation) ActiveGridEvents() []faults.GridEvent {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return eventCopies(fed.grid.Active())
}

// GridHistory returns value copies of every grid event ever injected, in
// injection order.
func (fed *Federation) GridHistory() []faults.GridEvent {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return eventCopies(fed.grid.History())
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
	return fed.downSitesLocked(), fed.unreachableSitesLocked()
}

// Degraded reports whether any site is currently down or unreachable.
func (fed *Federation) Degraded() bool {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return len(fed.downSitesLocked())+len(fed.unreachableSitesLocked()) > 0
}

// downSitesLocked returns the down sites in site order. Caller holds
// fed.mu.
func (fed *Federation) downSitesLocked() []string {
	var out []string
	for _, site := range fed.sites {
		if fed.grid.SiteDownAt(site, fed.now) {
			out = append(out, site)
		}
	}
	return out
}

// unreachableSitesLocked returns the partition-isolated (but not down)
// sites in site order. Caller holds fed.mu.
func (fed *Federation) unreachableSitesLocked() []string {
	iso := fed.grid.IsolatedAt(fed.now)
	var out []string
	for _, site := range fed.sites {
		if iso[site] && !fed.grid.SiteDownAt(site, fed.now) {
			out = append(out, site)
		}
	}
	return out
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

// eventCopy returns a detached value copy of a grid event.
func eventCopy(e *faults.GridEvent) faults.GridEvent {
	out := *e
	out.Sites = append([]string(nil), e.Sites...)
	return out
}

func eventCopies(events []*faults.GridEvent) []faults.GridEvent {
	out := make([]faults.GridEvent, len(events))
	for i, e := range events {
		out[i] = eventCopy(e)
	}
	return out
}
