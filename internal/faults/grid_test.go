package faults

import (
	"reflect"
	"testing"

	"repro/internal/simclock"
)

func TestGridEventLifecycle(t *testing.T) {
	var g GridInjector
	e, err := g.Inject(SiteOutage, []string{"nancy"}, simclock.Week, 0)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	if e.ID != 1 || e.Kind != SiteOutage || e.InjectedAt != simclock.Week {
		t.Fatalf("bad event: %+v", e)
	}
	if got := e.Signature(); got != "site-outage:nancy" {
		t.Fatalf("signature = %q", got)
	}
	if !g.SiteDownAt("nancy", simclock.Week) {
		t.Fatal("nancy should be down while the outage is active")
	}
	if g.SiteDownAt("lyon", simclock.Week) {
		t.Fatal("lyon should be unaffected")
	}
	if n := len(g.Active()); n != 1 {
		t.Fatalf("active = %d", n)
	}
	healed, err := g.Heal(e.ID, 2*simclock.Week)
	if err != nil {
		t.Fatalf("heal: %v", err)
	}
	if g.SiteDownAt("nancy", 2*simclock.Week) {
		t.Fatal("nancy should be back after heal")
	}
	if !healed.Healed || healed.HealedAt != 2*simclock.Week || e.Healed {
		t.Fatalf("heal not recorded in a fresh value: healed %+v, injected %+v", healed, e)
	}
	if _, err := g.Heal(e.ID, 3*simclock.Week); err == nil {
		t.Fatal("double heal should fail")
	}
	if _, err := g.Heal(2, 3*simclock.Week); err == nil {
		t.Fatal("healing an event never injected should fail")
	}
	if h := g.History(); len(h) != 1 || !reflect.DeepEqual(h[0], healed) || len(g.Active()) != 0 {
		t.Fatalf("history = %+v, active = %+v; want the healed event alone in history", h, g.Active())
	}
	// What the accessors return is detached: writing to it leaves the
	// injector's events as they were.
	g.History()[0].Sites[0] = "mutated"
	if g.History()[0].Sites[0] != "nancy" {
		t.Fatal("History aliased the injector's sites")
	}
}

// TestGridScheduledHeal: an outage or partition given a duration heals at
// InjectedAt+duration, stamped with that instant whenever AutoHeal first
// runs at or after it; a manual heal that comes first wins, and the
// scheduled one then changes nothing.
func TestGridScheduledHeal(t *testing.T) {
	var g GridInjector
	w := simclock.Week
	early, _ := g.Inject(SiteOutage, []string{"lyon"}, w, w/2)
	manual, _ := g.Inject(WANPartition, []string{"nancy"}, w, 2*w)
	if early.HealAt != w+w/2 || manual.HealAt != 3*w {
		t.Fatalf("HealAt = %v, %v; want 1.5w and 3w", early.HealAt, manual.HealAt)
	}
	g.AutoHeal(w + w/4)
	if len(g.Active()) != 2 {
		t.Fatal("AutoHeal fired before any scheduled heal was due")
	}
	if _, err := g.Heal(manual.ID, 2*w); err != nil {
		t.Fatalf("manual heal: %v", err)
	}
	g.AutoHeal(4 * w)
	h := g.History()
	if !h[0].Healed || h[0].HealedAt != w+w/2 || !h[1].Healed || h[1].HealedAt != 2*w {
		t.Fatalf("history = %+v; want healed at 1.5w and at the manual 2w", h)
	}
}

func TestGridInjectValidation(t *testing.T) {
	var g GridInjector
	if _, err := g.Inject(GridKind("volcano"), []string{"nancy"}, 0, 0); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if _, err := g.Inject(SiteOutage, nil, 0, 0); err == nil {
		t.Fatal("no sites should fail")
	}
	if _, err := g.Inject(SiteOutage, []string{"a", "a"}, 0, 0); err == nil {
		t.Fatal("duplicate site should fail")
	}
	if _, err := g.Inject(RollingMaintenance, []string{"a", "b"}, 0, 0); err == nil {
		t.Fatal("maintenance without window should fail")
	}
	if _, err := g.Inject(WANPartition, []string{"a"}, -simclock.Day, simclock.Day); err == nil {
		t.Fatal("a start before time zero should fail")
	}
	// The Sites slice must be copied: mutating the caller's slice after
	// injection must not alter the event.
	sites := []string{"nancy"}
	e, err := g.Inject(SiteOutage, sites, 0, 0)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	sites[0] = "mutated"
	if e.Sites[0] != "nancy" {
		t.Fatal("event aliased the caller's sites slice")
	}
}

func TestRollingMaintenanceWindows(t *testing.T) {
	var g GridInjector
	w := simclock.Week
	e, err := g.Inject(RollingMaintenance, []string{"a", "b", "c"}, w, w)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	// Window layout: a down in [1w,2w), b in [2w,3w), c in [3w,4w).
	cases := []struct {
		at   simclock.Time
		down string
	}{
		{w / 2, ""}, {w, "a"}, {w + w/2, "a"}, {2 * w, "b"}, {3 * w, "c"}, {4 * w, ""},
	}
	for _, tc := range cases {
		for _, site := range []string{"a", "b", "c"} {
			want := site == tc.down
			if got := g.SiteDownAt(site, tc.at); got != want {
				t.Errorf("SiteDownAt(%s, %s) = %v, want %v", site, tc.at, got, want)
			}
		}
	}
	if g.AutoHeal(4*w - 1); len(g.Active()) != 1 {
		t.Fatal("AutoHeal fired before the last window elapsed")
	}
	g.AutoHeal(4 * w)
	if h := g.History()[0]; h.ID != e.ID || !h.Healed || h.HealedAt != 4*w {
		t.Fatalf("after AutoHeal(4w): %+v", h)
	}
	// A maintenance heals itself at the instant AutoHeal runs, not at the
	// end of its last window.
	var late GridInjector
	if _, err := late.Inject(RollingMaintenance, []string{"a", "b", "c"}, w, w); err != nil {
		t.Fatalf("inject: %v", err)
	}
	late.AutoHeal(5 * w)
	if h := late.History()[0]; !h.Healed || h.HealedAt != 5*w {
		t.Fatalf("after AutoHeal(5w): %+v", h)
	}
}

func TestWANPartitionIsolation(t *testing.T) {
	var g GridInjector
	e, err := g.Inject(WANPartition, []string{"nancy", "grenoble"}, 0, 0)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	if got := e.Signature(); got != "wan-partition:nancy+grenoble" {
		t.Fatalf("signature = %q", got)
	}
	// Partitioned sites keep running — they are isolated, not down.
	if g.SiteDownAt("nancy", 0) {
		t.Fatal("partitioned site must not count as down")
	}
	iso := g.Isolated()
	if !iso["nancy"] || !iso["grenoble"] || iso["lyon"] {
		t.Fatalf("Isolated = %v", iso)
	}
	if _, err := g.Heal(e.ID, simclock.Week); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if len(g.Isolated()) != 0 {
		t.Fatal("isolation should clear on heal")
	}
}

func TestParseSchedule(t *testing.T) {
	entries, err := ParseSchedule("outage:lyon@1w+1w, partition:nancy+grenoble@2w, maintenance:a+b@3w+2d")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	e0 := entries[0]
	if e0.Kind != SiteOutage || e0.Sites[0] != "lyon" || e0.At != simclock.Week || e0.Duration != simclock.Week {
		t.Fatalf("entry 0 = %+v", e0)
	}
	e1 := entries[1]
	if e1.Kind != WANPartition || len(e1.Sites) != 2 || e1.Duration != 0 {
		t.Fatalf("entry 1 = %+v", e1)
	}
	e2 := entries[2]
	if e2.Kind != RollingMaintenance || e2.Duration != 2*simclock.Day {
		t.Fatalf("entry 2 = %+v", e2)
	}
	// Go duration strings are accepted too.
	entries, err = ParseSchedule("site-outage:x@30m+2h45m")
	if err != nil || entries[0].At != simclock.Time(30*simclock.Minute) {
		t.Fatalf("go-duration parse: %v %+v", err, entries)
	}

	for _, bad := range []string{
		"", "outage", "volcano:x@1w", "outage:@1w", "outage:x", "outage:x@soon",
		"outage:x@1w+never", "maintenance:x@1w", "outage:x@1w+0s", ",",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) should fail", bad)
		}
	}
}
