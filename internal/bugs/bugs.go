// Package bugs implements the bug tracker that closes the paper's loop:
// tests exhibit issues, issues become bug reports, operators fix them
// ("118 bugs filed (inc. 84 already fixed)", slide 22).
//
// The paper stresses (slide 11) that typical testbed users rarely report
// bugs; the testing framework is effectively the reporter of record, so
// reports must be deduplicated — the same failing test firing nightly must
// not open a new ticket every night. Deduplication is keyed on the bug
// signature carried by the failing test's outcome.
package bugs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/simclock"
)

// State is a bug's lifecycle state.
type State int

const (
	// Open means the problem is unresolved.
	Open State = iota
	// Fixed means an operator resolved it.
	Fixed
)

func (s State) String() string {
	if s == Fixed {
		return "fixed"
	}
	return "open"
}

// Bug is one tracked issue.
type Bug struct {
	ID        int
	Signature string // stable identity for deduplication
	Title     string
	Family    string // test family that exhibited it
	Target    string // cluster/site/node concerned
	State     State

	FiledAt     simclock.Time
	FixedAt     simclock.Time
	Occurrences int // how many test failures matched this bug
	Reopens     int // how many times it came back after a fix
}

func (b *Bug) String() string {
	return fmt.Sprintf("#%d [%s] %s (%s)", b.ID, b.State, b.Title, b.Signature)
}

// Tracker is the bug database.
type Tracker struct {
	clock *simclock.Clock
	bugs  []*Bug
	bySig map[string]*Bug

	// open indexes unresolved bugs in filing (ID) order, maintained
	// incrementally so OpenBugs/Stats never rescan the full history; fixed
	// counts resolved bugs for O(1) Stats.
	open  []*Bug
	fixed int

	// version counts mutations: every File (including deduplicated
	// occurrence bumps — they change rollup output) and every successful
	// Fix. The gateway's rollup and incident ETags key on it, so any change
	// that could alter those views invalidates them.
	version int64
}

// NewTracker returns an empty tracker.
func NewTracker(clock *simclock.Clock) *Tracker {
	return &Tracker{clock: clock, bySig: map[string]*Bug{}}
}

// openInsert puts a bug back into the open index, keeping ID order
// (reopens are rare; everything else appends at the tail).
func (t *Tracker) openInsert(b *Bug) {
	i := sort.Search(len(t.open), func(i int) bool { return t.open[i].ID >= b.ID })
	t.open = append(t.open, nil)
	copy(t.open[i+1:], t.open[i:])
	t.open[i] = b
}

// openRemove drops a bug from the open index.
func (t *Tracker) openRemove(b *Bug) {
	i := sort.Search(len(t.open), func(i int) bool { return t.open[i].ID >= b.ID })
	if i < len(t.open) && t.open[i] == b {
		t.open = append(t.open[:i], t.open[i+1:]...)
	}
}

// File records a problem. If an open bug already carries the signature, it
// is deduplicated (occurrence count bumped). If a *fixed* bug carries it,
// the bug is reopened — the problem came back. Returns the bug and whether
// this filing created or reopened it (i.e. operators have new work).
func (t *Tracker) File(signature, title, family, target string) (*Bug, bool) {
	t.version++
	if b := t.bySig[signature]; b != nil {
		b.Occurrences++
		if b.State == Fixed {
			b.State = Open
			b.Reopens++
			t.fixed--
			t.openInsert(b)
			return b, true
		}
		return b, false
	}
	b := &Bug{
		ID:          len(t.bugs) + 1,
		Signature:   signature,
		Title:       title,
		Family:      family,
		Target:      target,
		State:       Open,
		FiledAt:     t.clock.Now(),
		Occurrences: 1,
	}
	t.bugs = append(t.bugs, b)
	t.bySig[signature] = b
	t.open = append(t.open, b) // new IDs are monotonic: tail append keeps order
	return b, true
}

// Fix marks a bug resolved.
func (t *Tracker) Fix(id int) error {
	if id < 1 || id > len(t.bugs) {
		return fmt.Errorf("bugs: no bug #%d", id)
	}
	b := t.bugs[id-1]
	if b.State == Fixed {
		return fmt.Errorf("bugs: #%d already fixed", id)
	}
	b.State = Fixed
	b.FixedAt = t.clock.Now()
	t.fixed++
	t.version++
	t.openRemove(b)
	return nil
}

// Version returns the tracker's mutation counter: it advances on every
// filing (new, reopened or deduplicated) and every fix, never otherwise.
// Two reads observing the same version observed identical tracker state.
func (t *Tracker) Version() int64 { return t.version }

// Get returns a bug by ID, or nil.
func (t *Tracker) Get(id int) *Bug {
	if id < 1 || id > len(t.bugs) {
		return nil
	}
	return t.bugs[id-1]
}

// BySignature returns the bug carrying the signature, or nil.
func (t *Tracker) BySignature(sig string) *Bug { return t.bySig[sig] }

// All returns every bug in filing order.
func (t *Tracker) All() []*Bug { return append([]*Bug(nil), t.bugs...) }

// Snapshot returns every bug in filing order, by value: unlike the live
// tickets All points at, the copies do not change under a later File or
// Fix, so they may be read after the lock that guards the tracker is
// released.
func (t *Tracker) Snapshot() []Bug {
	out := make([]Bug, len(t.bugs))
	for i, b := range t.bugs {
		out[i] = *b
	}
	return out
}

// OpenBugs returns unresolved bugs, oldest first. The copy comes straight
// off the maintained open index — no history scan.
func (t *Tracker) OpenBugs() []*Bug {
	return append([]*Bug(nil), t.open...)
}

// EachOpen visits unresolved bugs oldest-first without copying, stopping
// when fn returns false. fn must not File, Fix or reopen bugs during the
// walk — collect first, then mutate.
func (t *Tracker) EachOpen(fn func(*Bug) bool) {
	for _, b := range t.open {
		if !fn(b) {
			return
		}
	}
}

// Stats summarises the tracker like the paper's slide 22 headline.
type Stats struct {
	Filed int
	Fixed int
	Open  int
}

func (s Stats) String() string {
	return fmt.Sprintf("%d bugs filed (inc. %d already fixed)", s.Filed, s.Fixed)
}

// Stats returns filed/fixed/open counts. O(1): the counters are maintained
// incrementally by File/Fix instead of rescanning the bug list.
func (t *Tracker) Stats() Stats {
	return Stats{Filed: len(t.bugs), Fixed: t.fixed, Open: len(t.open)}
}

// ByFamily groups filed-bug counts per test family, sorted by family name —
// the operators' view of which tests earn their keep.
func (t *Tracker) ByFamily() []FamilyCount {
	m := map[string]int{}
	for _, b := range t.bugs {
		m[b.Family]++
	}
	out := make([]FamilyCount, 0, len(m))
	for f, n := range m {
		out = append(out, FamilyCount{Family: f, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Family < out[j].Family
	})
	return out
}

// FamilyCount pairs a test family with its bug tally.
type FamilyCount struct {
	Family string
	Count  int
}

// Report renders a text summary for operators.
func (t *Tracker) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Stats())
	for _, fc := range t.ByFamily() {
		fmt.Fprintf(&sb, "  %-16s %d\n", fc.Family, fc.Count)
	}
	return sb.String()
}
