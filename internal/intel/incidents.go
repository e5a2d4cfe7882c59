package intel

// Cross-site incident rollup: signature-keyed correlation over every
// site's bug tracker. A tracker has no lock of its own, and this file takes
// none: the caller reads the trackers under whatever guards them and hands
// over snapshots (CorrelateSnapshots), or guards them for the whole of
// Correlate. See the package comment for where this sits.

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/bugs"
	"repro/internal/simclock"
)

// SiteTracker names one site's bug tracker.
type SiteTracker struct {
	Site string
	Bugs *bugs.Tracker
}

// Incident is one root cause seen across the grid: every ticket sharing a
// signature, wherever it was filed, folded into a single lifecycle view.
type Incident struct {
	Signature   string
	Title       string
	Family      string
	Sites       []string // affected sites, sorted
	Tickets     int      // tickets across all sites
	OpenTickets int      // of those, still open (at the query instant)
	Occurrences int      // summed occurrence counters
	Reopens     int      // summed reopen counters
	FirstSeen   simclock.Time
	LastSeen    simclock.Time // latest filing or fix among the tickets
	Open        bool          // any ticket open (at the query instant)
}

// CorrelateOptions scope a correlation pass.
type CorrelateOptions struct {
	// At, when ≥ 0, asks for the incident view as of that sim-time:
	// tickets filed later are invisible, and only incidents with a ticket
	// open at that instant are returned. Use -1 (or AtNow) for the live
	// view. The reconstruction is as faithful as the tracker's record: a
	// ticket reopened after At reads as open (trackers keep current state
	// plus first-fix times, not full transition histories).
	At simclock.Time
	// IncludeClosed keeps incidents whose every ticket is resolved (the
	// live view's ?state=all). Ignored when At ≥ 0 — a time-scoped query
	// asks precisely for what was open then.
	IncludeClosed bool
}

// AtNow marks an unscoped (live) correlation.
const AtNow = simclock.Time(-1)

// TrackerSnapshot is one site's tracker read in a single pass: the
// tracker's mutation version plus the tickets that version pins, copied by
// value so that nothing read from a snapshot can change under a later
// campaign step. The reader takes both under one hold of whatever guards the
// tracker, which is what keeps a version-keyed ETag honest — the key and
// the body cannot straddle a step.
type TrackerSnapshot struct {
	Site    string
	Version int64
	List    []bugs.Bug // nil in a versions-only snapshot
}

// VersionKey64 renders the snapshots' version vector as an ETag payload,
// e.g. "12.0.7" — equal vectors guarantee byte-identical correlations.
func VersionKey64(snaps []TrackerSnapshot) string {
	var sb strings.Builder
	for i := range snaps {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.FormatInt(snaps[i].Version, 10))
	}
	return sb.String()
}

// Correlate folds every tracker's tickets into signature-keyed incidents,
// reading the trackers in caller (shard) order. The caller guards the
// trackers: nothing may File or Fix on them while Correlate runs. Output is
// sorted first-seen ascending, signature as the tie-break — deterministic
// regardless of how many sites filed or in what interleaving.
func Correlate(sources []SiteTracker, opts CorrelateOptions) []Incident {
	snaps := make([]TrackerSnapshot, len(sources))
	for i, src := range sources {
		snaps[i] = TrackerSnapshot{Site: src.Site, List: src.Bugs.Snapshot()}
	}
	return CorrelateSnapshots(snaps, opts)
}

// CorrelateSnapshots is Correlate over pre-read tracker snapshots (the
// gateway path: the same snapshots also key the ETag).
func CorrelateSnapshots(snaps []TrackerSnapshot, opts CorrelateOptions) []Incident {
	timeScoped := opts.At >= 0
	acc := map[string]*Incident{}
	for i := range snaps {
		src := &snaps[i]
		for k := range src.List {
			b := &src.List[k]
			if timeScoped && b.FiledAt > opts.At {
				continue
			}
			open := b.State == bugs.Open
			last := b.FiledAt
			if timeScoped {
				// Reconstruct the ticket's state as of At: a fix later than
				// At had not happened yet.
				if b.State == bugs.Fixed && b.FixedAt > opts.At {
					open = true
				}
				if !open && b.FixedAt > last {
					last = b.FixedAt
				}
			} else if b.State == bugs.Fixed && b.FixedAt > last {
				last = b.FixedAt
			}
			e := acc[b.Signature]
			if e == nil {
				e = &Incident{
					Signature: b.Signature,
					Title:     b.Title,
					Family:    b.Family,
					FirstSeen: b.FiledAt,
					LastSeen:  last,
				}
				acc[b.Signature] = e
			}
			if b.FiledAt < e.FirstSeen {
				e.FirstSeen = b.FiledAt
			}
			if last > e.LastSeen {
				e.LastSeen = last
			}
			e.Sites = appendSite(e.Sites, src.Site)
			e.Tickets++
			e.Occurrences += b.Occurrences
			e.Reopens += b.Reopens
			if open {
				e.OpenTickets++
				e.Open = true
			}
		}
	}
	out := make([]Incident, 0, len(acc))
	for _, e := range acc {
		if !e.Open && timeScoped {
			continue // "open as of At" is the whole question
		}
		if !e.Open && !opts.IncludeClosed {
			continue
		}
		sort.Strings(e.Sites)
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstSeen != out[j].FirstSeen {
			return out[i].FirstSeen < out[j].FirstSeen
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// appendSite adds site to the set (small slices; linear scan beats a map).
func appendSite(sites []string, site string) []string {
	for _, s := range sites {
		if s == site {
			return sites
		}
	}
	return append(sites, site)
}
