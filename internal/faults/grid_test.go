package faults

import (
	"testing"

	"repro/internal/simclock"
)

func TestGridEventLifecycle(t *testing.T) {
	g := NewGridInjector()
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
	if err := g.Heal(e.ID, 2*simclock.Week); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if g.SiteDownAt("nancy", 2*simclock.Week) {
		t.Fatal("nancy should be back after heal")
	}
	if !e.Healed || e.HealedAt != 2*simclock.Week {
		t.Fatalf("heal not recorded: %+v", e)
	}
	if err := g.Heal(e.ID, 3*simclock.Week); err == nil {
		t.Fatal("double heal should fail")
	}
	if len(g.History()) != 1 || g.Get(e.ID) != e {
		t.Fatal("history should keep healed events")
	}
}

func TestGridInjectValidation(t *testing.T) {
	g := NewGridInjector()
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
	g := NewGridInjector()
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
	if healed := g.AutoHeal(4*w - 1); len(healed) != 0 {
		t.Fatal("AutoHeal fired before the last window elapsed")
	}
	healed := g.AutoHeal(4 * w)
	if len(healed) != 1 || healed[0] != e || !e.Healed || e.HealedAt != 4*w {
		t.Fatalf("AutoHeal = %v (event %+v)", healed, e)
	}
}

func TestWANPartitionIsolation(t *testing.T) {
	g := NewGridInjector()
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
	iso := g.IsolatedAt(0)
	if !iso["nancy"] || !iso["grenoble"] || iso["lyon"] {
		t.Fatalf("IsolatedAt = %v", iso)
	}
	if err := g.Heal(e.ID, simclock.Week); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if len(g.IsolatedAt(simclock.Week)) != 0 {
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
