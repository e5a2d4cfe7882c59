package bugs

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

func TestFileAndDedup(t *testing.T) {
	tr := NewTracker(simclock.New(1))
	b1, isNew := tr.File("disk-cache-off:sol-1.sophia", "write cache disabled", "disk", "sol")
	if !isNew || b1.ID != 1 {
		t.Fatalf("first filing: new=%v id=%d", isNew, b1.ID)
	}
	b2, isNew := tr.File("disk-cache-off:sol-1.sophia", "write cache disabled", "disk", "sol")
	if isNew || b2.ID != b1.ID {
		t.Fatal("dedup failed")
	}
	if b1.Occurrences != 2 {
		t.Fatalf("occurrences = %d", b1.Occurrences)
	}
	if st := tr.Stats(); st.Filed != 1 || st.Open != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFixAndReopen(t *testing.T) {
	c := simclock.New(2)
	tr := NewTracker(c)
	b, _ := tr.File("sig", "title", "fam", "tgt")
	c.RunUntil(simclock.Hour)
	if err := tr.Fix(b.ID); err != nil {
		t.Fatal(err)
	}
	if b.State != Fixed || b.FixedAt != simclock.Hour {
		t.Fatalf("bug = %+v", b)
	}
	if err := tr.Fix(b.ID); err == nil {
		t.Fatal("double fix accepted")
	}
	if err := tr.Fix(99); err == nil {
		t.Fatal("ghost fix accepted")
	}
	// Re-detection reopens.
	b2, isNew := tr.File("sig", "title", "fam", "tgt")
	if !isNew || b2 != b || b.State != Open || b.Reopens != 1 {
		t.Fatalf("reopen: %+v", b)
	}
	if st := tr.Stats(); st.Filed != 1 || st.Fixed != 0 || st.Open != 1 {
		t.Fatalf("stats after reopen = %+v", st)
	}
}

func TestLookups(t *testing.T) {
	tr := NewTracker(simclock.New(3))
	tr.File("a", "ta", "f1", "x")
	tr.File("b", "tb", "f2", "y")
	if all := tr.All(); len(all) != 2 || all[0].ID != 1 || all[1].ID != 2 {
		t.Fatal("IDs are not in filing order")
	}
	if tr.BySignature("b").ID != 2 {
		t.Fatal("BySignature")
	}
	if tr.BySignature("zzz") != nil {
		t.Fatal("ghost signature")
	}
	if len(tr.All()) != 2 {
		t.Fatal("All")
	}
}

func TestOpenBugsOrdering(t *testing.T) {
	tr := NewTracker(simclock.New(4))
	tr.File("a", "t", "f", "x")
	b2, _ := tr.File("b", "t", "f", "x")
	tr.File("c", "t", "f", "x")
	tr.Fix(b2.ID)
	open := tr.OpenBugs()
	if len(open) != 2 || open[0].Signature != "a" || open[1].Signature != "c" {
		t.Fatalf("open = %v", open)
	}
}

func TestByFamilySortedByCount(t *testing.T) {
	tr := NewTracker(simclock.New(5))
	tr.File("1", "t", "disk", "x")
	tr.File("2", "t", "disk", "y")
	tr.File("3", "t", "kavlan", "z")
	fc := tr.ByFamily()
	if len(fc) != 2 || fc[0].Family != "disk" || fc[0].Count != 2 {
		t.Fatalf("by family = %v", fc)
	}
}

func TestStatsString(t *testing.T) {
	tr := NewTracker(simclock.New(6))
	for i := 0; i < 5; i++ {
		b, _ := tr.File(string(rune('a'+i)), "t", "f", "x")
		if i < 3 {
			tr.Fix(b.ID)
		}
	}
	if got := tr.Stats().String(); got != "5 bugs filed (inc. 3 already fixed)" {
		t.Fatalf("stats = %q", got)
	}
	if !strings.Contains(tr.Report(), "f") {
		t.Fatal("report missing family")
	}
}

func TestBugString(t *testing.T) {
	tr := NewTracker(simclock.New(7))
	b, _ := tr.File("sig-x", "broken thing", "disk", "sol")
	s := b.String()
	if !strings.Contains(s, "#1") || !strings.Contains(s, "open") || !strings.Contains(s, "sig-x") {
		t.Fatalf("String() = %q", s)
	}
	if Open.String() != "open" || Fixed.String() != "fixed" {
		t.Fatal("state strings")
	}
}

// Property: filing N distinct signatures yields N bugs with IDs 1..N, and
// filing any of them again never grows the database.
func TestFilingProperty(t *testing.T) {
	f := func(sigs []string) bool {
		tr := NewTracker(simclock.New(8))
		uniq := map[string]bool{}
		for _, s := range sigs {
			tr.File(s, "t", "f", "x")
			uniq[s] = true
		}
		if len(tr.All()) != len(uniq) {
			return false
		}
		for _, s := range sigs {
			tr.File(s, "t", "f", "x")
		}
		if len(tr.All()) != len(uniq) {
			return false
		}
		for i, b := range tr.All() {
			if b.ID != i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVersionCounter pins the ETag contract: every mutation — new filing,
// deduplicated occurrence bump, reopen, fix — advances the version; pure
// reads do not.
func TestVersionCounter(t *testing.T) {
	tr := NewTracker(simclock.New(9))
	if tr.Version() != 0 {
		t.Fatalf("fresh tracker version = %d, want 0", tr.Version())
	}
	b, _ := tr.File("sig-a", "t", "f", "x")
	v1 := tr.Version()
	if v1 == 0 {
		t.Fatal("new filing did not bump the version")
	}
	tr.File("sig-a", "t", "f", "x") // dedup: occurrence bump still mutates
	v2 := tr.Version()
	if v2 == v1 {
		t.Fatal("deduplicated filing did not bump the version")
	}
	if err := tr.Fix(b.ID); err != nil {
		t.Fatal(err)
	}
	v3 := tr.Version()
	if v3 == v2 {
		t.Fatal("fix did not bump the version")
	}
	tr.File("sig-a", "t", "f", "x") // reopen
	if tr.Version() == v3 {
		t.Fatal("reopen did not bump the version")
	}
	before := tr.Version()
	tr.All()
	tr.OpenBugs()
	tr.Stats()
	if tr.Version() != before {
		t.Fatal("reads bumped the version")
	}
}
