package intel

// Federated time travel: the grid-wide view of every site's archived
// Reference API chain. See the package comment for where this sits.

import (
	"strconv"
	"strings"

	"repro/internal/refapi"
	"repro/internal/simclock"
)

// SiteArchive couples one store's Reference API archive with the read
// gate that guards it against campaign progress. Site labels who owns the
// store; Cluster narrows the label when a site is split into per-cluster
// micro-shards (empty for one-store-per-site layouts — the two never mix
// within one archive). Gate runs fn under the owning shard's read lock;
// nil means the store needs no gating (tests, standalone use).
type SiteArchive struct {
	Site    string
	Cluster string
	Ref     *refapi.Store
	Gate    func(func())
}

// key is the archive's identity: site alone for one-store-per-site
// layouts, site/cluster once micro-sharded.
func (s *SiteArchive) key() string { return archiveKey(s.Site, s.Cluster) }

func archiveKey(site, cluster string) string {
	if cluster == "" {
		return site
	}
	return site + "/" + cluster
}

func (s *SiteArchive) gated(fn func()) {
	if s.Gate != nil {
		s.Gate(fn)
		return
	}
	fn()
}

// GridArchive answers archival questions over every store at once.
// Entries keep caller order (shard order: site-grouped, cluster order
// within a site), so all outputs are deterministic for a given federation
// layout.
type GridArchive struct {
	sites []SiteArchive
	byKey map[string]*SiteArchive
}

// NewGridArchive builds an archive over the given stores (order is
// preserved and becomes the output order everywhere).
func NewGridArchive(sites []SiteArchive) *GridArchive {
	a := &GridArchive{
		sites: append([]SiteArchive(nil), sites...),
		byKey: make(map[string]*SiteArchive, len(sites)),
	}
	for i := range a.sites {
		a.byKey[a.sites[i].key()] = &a.sites[i]
	}
	return a
}

// SiteVersion is one store's archived version number at a query time.
// Cluster carries the micro-shard label when the site is cluster-carved.
type SiteVersion struct {
	Site    string
	Cluster string
	Version int // 0 = the query time precedes the store's first capture
}

// VersionVector answers "which version was current at t at every site"
// without materializing a single snapshot: one binary search per site,
// each under that site's gate. Sites in exclude (the degraded set) are
// skipped entirely. This is the gateway's conditional-request fast path.
func (a *GridArchive) VersionVector(t simclock.Time, exclude map[string]bool) []SiteVersion {
	out := make([]SiteVersion, 0, len(a.sites))
	// One closure for the whole walk: a gate is an indirect call, so one
	// made per store would be two heap objects per store on the gateway's
	// hottest path.
	var s *SiteArchive
	var version int
	read := func() { version, _ = s.Ref.VersionAt(t) }
	for i := range a.sites {
		if s = &a.sites[i]; exclude[s.Site] {
			continue
		}
		s.gated(read)
		out = append(out, SiteVersion{Site: s.Site, Cluster: s.Cluster, Version: version})
	}
	return out
}

// VersionKey renders a vector as the composite ETag payload, e.g.
// "3.1.7" — strong because every site's archived content is immutable and
// pinned by its version number.
func VersionKey(vec []SiteVersion) string {
	var sb strings.Builder
	sb.Grow(4 * len(vec))
	for i, sv := range vec {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.Itoa(sv.Version))
	}
	return sb.String()
}

// SiteCapture is one store's slice of a grid snapshot.
type SiteCapture struct {
	Site     string
	Cluster  string
	Version  int
	TakenAt  simclock.Time
	Snapshot *refapi.Snapshot
}

// GridSnapshot is the federation-wide answer to "inventory as of T":
// every included site's snapshot current at that instant, in site order.
// Sites whose first capture postdates T are omitted (they did not exist
// yet, archivally speaking); AsOf is the latest capture time among the
// included sites — the instant the grid view actually reflects.
type GridSnapshot struct {
	AsOf  simclock.Time
	Sites []SiteCapture
}

// Materialize builds the grid snapshot for an exact version vector
// (VersionVector's output); each site's snapshot is built (and cached) by
// its own store under its own gate. This is the gateway's body path: the
// rendered body is pinned to the same versions the composite ETag names,
// immune to shards archiving new versions between the vector read and the
// render. Vector entries with version 0 (or naming unknown sites) are
// omitted.
func (a *GridArchive) Materialize(vec []SiteVersion) GridSnapshot {
	var out GridSnapshot
	for _, sv := range vec {
		s := a.byKey[archiveKey(sv.Site, sv.Cluster)]
		if s == nil || sv.Version < 1 {
			continue
		}
		var snap *refapi.Snapshot
		s.gated(func() { snap = s.Ref.Version(sv.Version) })
		if snap == nil {
			continue
		}
		if snap.TakenAt > out.AsOf {
			out.AsOf = snap.TakenAt
		}
		out.Sites = append(out.Sites, SiteCapture{
			Site:     sv.Site,
			Cluster:  sv.Cluster,
			Version:  snap.Version,
			TakenAt:  snap.TakenAt,
			Snapshot: snap,
		})
	}
	return out
}

// SiteDiff is one store's contribution to a grid-level historical diff.
type SiteDiff struct {
	Site        string
	Cluster     string
	FromVersion int // 0 = the store had no capture at from yet
	ToVersion   int
	Differences []refapi.Difference
}

// GridDiff answers "what changed anywhere between from and to": one
// per-site field-level diff per included site, in site order. Count sums
// the differences.
type GridDiff struct {
	Count int
	Sites []SiteDiff
}

// emptySnapshot is the diff base for a site that had no capture at the
// earlier instant: everything present later reads as "missing → present".
var emptySnapshot = &refapi.Snapshot{}

// DiffVector computes the grid-level historical diff between two exact
// version vectors (VersionVector's outputs for the two instants) — the
// gateway's body path, for the same reason Materialize exists. Site order
// follows the to vector; version-0 entries diff against the empty
// snapshot; sites absent from both (or unknown) are skipped.
func (a *GridArchive) DiffVector(from, to []SiteVersion) GridDiff {
	fromOf := make(map[string]int, len(from))
	for _, sv := range from {
		fromOf[archiveKey(sv.Site, sv.Cluster)] = sv.Version
	}
	var out GridDiff
	for _, sv := range to {
		k := archiveKey(sv.Site, sv.Cluster)
		s := a.byKey[k]
		if s == nil || (fromOf[k] == 0 && sv.Version == 0) {
			continue
		}
		sd := SiteDiff{Site: sv.Site, Cluster: sv.Cluster, FromVersion: fromOf[k], ToVersion: sv.Version}
		var sa, sb *refapi.Snapshot
		s.gated(func() {
			if sd.FromVersion > 0 {
				sa = s.Ref.Version(sd.FromVersion)
			}
			if sd.ToVersion > 0 {
				sb = s.Ref.Version(sd.ToVersion)
			}
		})
		if sa == nil {
			sa = emptySnapshot
			sd.FromVersion = 0
		}
		if sb == nil {
			sb = emptySnapshot
			sd.ToVersion = 0
		}
		if sa != sb {
			sd.Differences = refapi.DiffSnapshots(sa, sb)
		}
		if sd.Differences == nil {
			sd.Differences = []refapi.Difference{}
		}
		out.Count += len(sd.Differences)
		out.Sites = append(out.Sites, sd)
	}
	return out
}
