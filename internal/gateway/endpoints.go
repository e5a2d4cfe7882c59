package gateway

// The OAR, monitoring, bug-tracker and status-view endpoints. Each handler
// follows the scatter-gather shape: parse parameters lock-free, snapshot
// the shard(s) involved under their own read gates, merge and write the
// answer outside any lock.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/admit"
	"repro/internal/bugs"
	"repro/internal/ci"
	"repro/internal/intel"
	"repro/internal/monitor"
	"repro/internal/oar"
	"repro/internal/simclock"
	"repro/internal/status"
)

// secondsToSim converts a wire-level seconds value to simulated time,
// saturating at the latest representable instant: converting a float64
// beyond int64's range is implementation-defined (amd64 wraps it negative),
// and a far-future instant must read as "the latest state", not as before
// the campaign began.
func secondsToSim(s float64) simclock.Time {
	ns := s * float64(simclock.Second)
	if ns >= math.MaxInt64 {
		return simclock.Time(math.MaxInt64)
	}
	return simclock.Time(ns)
}

// maxBodyBytes bounds a POST body; the largest legitimate one is a few
// hundred bytes of JSON.
const maxBodyBytes = 64 << 10

// decodeBody decodes a POST's JSON body into v, reading at most
// maxBodyBytes of it. On failure it has answered — 413 for an oversized
// body, 400 for a malformed one, a field v lacks (a misspelt "dry_run" must
// not enqueue a real job) or anything after the value — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if _, more := dec.Token(); err == nil && more != io.EOF {
		err = errors.New("data after the JSON value")
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", maxBodyBytes))
	case err != nil:
		httpError(w, http.StatusBadRequest, "bad JSON body: "+err.Error())
	}
	return err == nil
}

// ---- OAR -------------------------------------------------------------------

// OARResourcesJSON is the wire form of GET /oar/resources.
type OARResourcesJSON struct {
	Degraded *DegradedJSON      `json:"degraded,omitempty"`
	Summary  map[string]int     `json:"summary"`
	Nodes    []oar.ResourceInfo `json:"nodes"`
}

// resources snapshots one shard's resource states under its gate, narrowed
// to the named cluster (empty = all; a shard that does not own it has none).
func (s *shard) resources(cluster string) []oar.ResourceInfo {
	var out []oar.ResourceInfo
	s.rlocked(func() { out = s.f.OAR.Resources(cluster) })
	return out
}

func (g *Gateway) handleOARResources(w http.ResponseWriter, r *http.Request) {
	g.serveOARResources(w, r, "")
}

// serveOARResources implements /oar/resources and its site-scoped variant
// (fixedSite != "" pins the site from the URL path).
func (g *Gateway) serveOARResources(w http.ResponseWriter, r *http.Request, fixedSite string) {
	q := r.URL.Query()
	cluster := q.Get("cluster")
	site := fixedSite
	if site == "" {
		site = q.Get("site")
	}

	var nodes []oar.ResourceInfo
	var degraded *DegradedJSON
	switch {
	case site != "":
		ss := g.siteShards[site]
		if len(ss) == 0 {
			// The ?site= filter contract: unknown sites are a client error.
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown site %q", site))
			return
		}
		if !g.siteAvailable(site) {
			siteUnavailable(w, site)
			return
		}
		// A site concatenates its cluster shards in cluster order.
		for _, s := range ss {
			nodes = append(nodes, s.resources(cluster)...)
		}
		if cluster != "" && len(nodes) == 0 {
			httpError(w, http.StatusNotFound,
				fmt.Sprintf("no cluster %q at site %q", cluster, site))
			return
		}
	case cluster != "":
		s := g.shardForCluster(cluster)
		if s == nil {
			httpError(w, http.StatusNotFound, fmt.Sprintf("no cluster %q", cluster))
			return
		}
		if !g.siteAvailable(s.site) {
			siteUnavailable(w, s.site)
			return
		}
		nodes = s.resources(cluster)
		if len(nodes) == 0 {
			httpError(w, http.StatusNotFound, fmt.Sprintf("no cluster %q", cluster))
			return
		}
	default:
		// Scatter-gather over the surviving shards, shard order (= site
		// order); lost shards are excluded and the marker says which.
		degraded = g.degradedMarker()
		for _, s := range liveShards(g.shards, degraded) {
			nodes = append(nodes, s.resources("")...)
		}
	}
	summary := map[string]int{}
	for _, n := range nodes {
		summary[n.State]++
	}
	writeJSON(w, OARResourcesJSON{Degraded: degraded, Summary: summary, Nodes: nodes})
}

// OARJobsJSON is the wire form of GET /oar/jobs.
type OARJobsJSON struct {
	Degraded  *DegradedJSON `json:"degraded,omitempty"`
	Submitted int           `json:"submitted"`
	Started   int           `json:"started"`
	Canceled  int           `json:"canceled"`
	Jobs      []oar.JobInfo `json:"jobs"`
}

func parseLimit(r *http.Request) (int, error) {
	limit := 500
	if q := r.URL.Query().Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad limit %q", q)
		}
		limit = v
	}
	return limit, nil
}

// jobsScoped snapshots one shard's job list and counters under its gate.
func (s *shard) jobsScoped(limit int) (jobs []oar.JobInfo, submitted, started, canceled int) {
	s.rlocked(func() {
		jobs = s.f.OAR.JobsInfo(limit)
		submitted, started, canceled = s.f.OAR.Stats()
	})
	return jobs, submitted, started, canceled
}

func (g *Gateway) handleOARJobs(w http.ResponseWriter, r *http.Request) {
	g.serveOARJobs(w, r, nil)
}

// serveOARJobs implements /oar/jobs; a non-nil only pins a site's shard
// set (the site-scoped route) — one shard per cluster, whose newest-first
// lists merge like the grid-wide view's.
func (g *Gateway) serveOARJobs(w http.ResponseWriter, r *http.Request, only []*shard) {
	limit, err := parseLimit(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var out OARJobsJSON
	shards := only
	if only == nil {
		out.Degraded = g.degradedMarker()
		shards = liveShards(g.shards, out.Degraded)
	}
	for _, s := range shards {
		jobs, sub, st, can := s.jobsScoped(limit)
		out.Jobs = append(out.Jobs, jobs...)
		out.Submitted += sub
		out.Started += st
		out.Canceled += can
	}
	// Merge the per-shard newest-first lists into one newest-first view;
	// ties on submission time keep shard order (stable sort), so one
	// shard's list stays as it came.
	sort.SliceStable(out.Jobs, func(i, j int) bool {
		return out.Jobs[i].SubmittedAtSec > out.Jobs[j].SubmittedAtSec
	})
	if limit > 0 && len(out.Jobs) > limit {
		out.Jobs = out.Jobs[:limit]
	}
	writeJSON(w, out)
}

// SubmitRequest is the body of POST /oar/submit.
type SubmitRequest struct {
	Request string `json:"request"`
	User    string `json:"user,omitempty"`
	// DryRun probes whether the request could start right now
	// (oar.Server.CanStartNow — what the external scheduler asks before
	// every trigger) without enqueuing anything.
	DryRun bool `json:"dry_run,omitempty"`
}

// SubmitResponse is the reply of POST /oar/submit.
type SubmitResponse struct {
	Site        string       `json:"site,omitempty"` // site of the shard that took the job
	CanStartNow *bool        `json:"can_start_now,omitempty"`
	Job         *oar.JobInfo `json:"job,omitempty"`
	// Admission marks a submission routed through the grid admission layer
	// (placed | queued | shed); Reservation and RetryAfterSec carry the
	// queued and shed details respectively.
	Admission     string                 `json:"admission,omitempty"`
	Reservation   *admit.ReservationJSON `json:"reservation,omitempty"`
	RetryAfterSec int                    `json:"retry_after_sec,omitempty"`
}

// hasUnanchoredSegment reports whether any segment of the request carries
// no site/cluster/host anchor; hasAnchoredSegment, whether any does.
func hasUnanchoredSegment(req oar.Request) bool {
	for _, seg := range req.Segments {
		if key, _ := seg.Anchor(); key == "" {
			return true
		}
	}
	return false
}

func hasAnchoredSegment(req oar.Request) bool {
	for _, seg := range req.Segments {
		if key, _ := seg.Anchor(); key != "" {
			return true
		}
	}
	return false
}

// resolveOARRequest routes a parsed resource request to the single site
// owning every anchored site/cluster/host — and, when cluster or host
// anchors name one, the specific shard. A nil shard with a non-empty site
// means only site-level anchors resolved (the caller probes the site's
// cluster shards). Unanchored segments are skipped here
// — the caller pins them to the resolved site (mixed requests); a fully
// unanchored request never gets here, the admission layer places it.
func (g *Gateway) resolveOARRequest(req oar.Request) (string, *shard, error) {
	var site string
	var target *shard
	for i, seg := range req.Segments {
		key, val := seg.Anchor()
		var s *shard
		var owner string
		switch key {
		case "cluster":
			if s = g.shardForCluster(val); s != nil {
				owner = s.site
			}
		case "site":
			if len(g.siteShards[val]) > 0 {
				owner = val
			}
		case "host":
			if s = nodeShardIn(g.shards, val); s != nil {
				owner = s.site
			}
		default:
			continue
		}
		if owner == "" {
			return "", nil, fmt.Errorf("federated submit: segment %d anchors to unknown %s %q", i+1, key, val)
		}
		if site != "" && owner != site {
			return "", nil, fmt.Errorf("federated submit: request spans more than one site")
		}
		site = owner
		if s != nil {
			if target != nil && s != target {
				return "", nil, fmt.Errorf("federated submit: request spans more than one cluster shard of site %q", site)
			}
			target = s
		}
	}
	return site, target, nil
}

// nodeShardIn returns the shard in the set whose testbed owns the named
// node, or nil.
func nodeShardIn(shards []*shard, name string) *shard {
	for _, s := range shards {
		if s.f.TB.Node(name) != nil {
			return s
		}
	}
	return nil
}

// pickSiteShard resolves which of a site's shards takes a site-scoped (or
// site-resolved) submission when no cluster/host anchor named one:
// the shards are probed in cluster order for one that could start the
// pinned request now, falling back to the coordinator, which queues it.
func pickSiteShard(shards []*shard, pinned oar.Request) *shard {
	if len(shards) == 1 {
		return shards[0]
	}
	for _, s := range shards {
		ok := false
		s.rlocked(func() { ok = s.f.OAR.CanStartNowReq(pinned) })
		if ok {
			return s
		}
	}
	return shards[0]
}

func (g *Gateway) handleOARSubmit(w http.ResponseWriter, r *http.Request) {
	g.serveOARSubmit(w, r, nil, "")
}

// anchorsWithinSite verifies that every anchored segment of a request
// falls inside the named site (a cluster or host is at the site when one of
// its shards owns it). Unanchored segments pass — the caller pins them with
// Request.PinnedToSite.
func (g *Gateway) anchorsWithinSite(req oar.Request, site string) error {
	for i, seg := range req.Segments {
		key, val := seg.Anchor()
		switch key {
		case "site":
			if val != site {
				return fmt.Errorf("segment %d anchors to site %q, not %q", i+1, val, site)
			}
		case "cluster":
			if g.shardFor(site, val) == nil {
				return fmt.Errorf("segment %d anchors to cluster %q, which is not at site %q", i+1, val, site)
			}
		case "host":
			if nodeShardIn(g.siteShards[site], val) == nil {
				return fmt.Errorf("segment %d anchors to host %q, which is not at site %q", i+1, val, site)
			}
		}
	}
	return nil
}

// serveOARSubmit implements POST /oar/submit; a non-nil only pins a
// site's shard set (the site-scoped route, with site naming the requested
// site). Site-scoped submissions are validated against the site — anchors
// elsewhere are 400 — and unanchored segments are pinned to it, so
// /sites/X/oar/submit can never allocate outside X. Cluster and host
// anchors name the owning cluster shard (a request cannot span two — each
// shard is its own OAR); without one, the site's shards are probed in
// cluster order and the coordinator queues what nothing can start.
func (g *Gateway) serveOARSubmit(w http.ResponseWriter, r *http.Request, only []*shard, site string) {
	var req SubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Request == "" {
		httpError(w, http.StatusBadRequest, "missing request")
		return
	}
	var target *shard
	var pinned *oar.Request
	switch {
	case only != nil:
		parsed, err := oar.ParseRequest(req.Request)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if err := g.anchorsWithinSite(parsed, site); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		p := parsed.PinnedToSite(site)
		pinned = &p
		for _, seg := range parsed.Segments {
			key, val := seg.Anchor()
			var s *shard
			switch key {
			case "cluster":
				s = g.shardFor(site, val)
			case "host":
				s = nodeShardIn(only, val)
			default:
				continue
			}
			if target != nil && s != target {
				httpError(w, http.StatusBadRequest,
					fmt.Sprintf("request spans more than one cluster shard of site %q", site))
				return
			}
			target = s
		}
		if target == nil {
			target = pickSiteShard(only, p)
		}
	default:
		parsed, err := oar.ParseRequest(req.Request)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if !hasAnchoredSegment(parsed) {
			// Nothing names a site: the grid admission layer picks one
			// (or queues / sheds). See admission.go.
			g.serveAdmission(w, req, parsed)
			return
		}
		targetSite, anchored, err := g.resolveOARRequest(parsed)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		target = anchored
		if target == nil || hasUnanchoredSegment(parsed) {
			// The anchored segments resolved only the site (or left some
			// segments floating): pin the request to it so the whole thing
			// lands there.
			p := parsed.PinnedToSite(targetSite)
			pinned = &p
		}
		if target == nil {
			// Site-level anchors only: pick a cluster shard.
			if !g.siteAvailable(targetSite) {
				siteUnavailable(w, targetSite)
				return
			}
			target = pickSiteShard(g.siteShards[targetSite], *pinned)
		}
	}
	if !g.siteAvailable(target.site) {
		// Submissions routed to a lost site cannot enqueue anywhere; the
		// client retries after heal.
		siteUnavailable(w, target.site)
		return
	}
	srv := target.f.OAR
	if req.DryRun {
		var ok bool
		var err error
		target.rlocked(func() {
			if pinned != nil {
				ok = srv.CanStartNowReq(*pinned)
			} else {
				ok, err = srv.CanStartNow(req.Request)
			}
		})
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, SubmitResponse{Site: target.site, CanStartNow: &ok})
		return
	}
	user := req.User
	if user == "" {
		user = "api"
	}
	var info oar.JobInfo
	var submitErr error
	target.rlocked(func() {
		var j *oar.Job
		if pinned != nil {
			j = srv.SubmitReq(*pinned, oar.SubmitOptions{User: user})
		} else {
			var err error
			j, err = srv.Submit(req.Request, oar.SubmitOptions{User: user})
			if err != nil {
				submitErr = err
				return
			}
		}
		info, _ = srv.JobInfoByID(j.ID)
	})
	if submitErr != nil {
		httpError(w, http.StatusBadRequest, submitErr.Error())
		return
	}
	writeJSONStatus(w, http.StatusCreated, SubmitResponse{Site: target.site, Job: &info})
}

// ---- monitoring ------------------------------------------------------------

// MonitorJSON is the wire form of GET /monitor/metrics.
type MonitorJSON struct {
	Metric  string       `json:"metric"`
	Node    string       `json:"node"`
	Site    string       `json:"site,omitempty"`
	FromSec float64      `json:"from_sec"`
	ToSec   float64      `json:"to_sec"`
	Mean    float64      `json:"mean"`
	Samples []SampleJSON `json:"samples"`
}

// SampleJSON is one measurement with the timestamp in seconds.
type SampleJSON struct {
	TSec float64 `json:"t_sec"`
	V    float64 `json:"v"`
}

func (g *Gateway) handleMonitorMetrics(w http.ResponseWriter, r *http.Request) {
	g.serveMonitorMetrics(w, r, "")
}

// serveMonitorMetrics implements /monitor/metrics and its site-scoped
// variant. The ?site= filter (or the path site) must name a known site —
// unknown sites are 400 — and the queried node must live there.
func (g *Gateway) serveMonitorMetrics(w http.ResponseWriter, r *http.Request, fixedSite string) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		metric = monitor.MetricPowerW
	}
	switch metric {
	case monitor.MetricPowerW, monitor.MetricCPULoad, monitor.MetricNetMbps:
	default:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown metric %q", metric))
		return
	}
	node := q.Get("node")
	if node == "" {
		httpError(w, http.StatusBadRequest, "missing node")
		return
	}
	site := fixedSite
	if site == "" {
		site = q.Get("site")
	}
	var s *shard
	if site != "" {
		ss := g.siteShards[site]
		if len(ss) == 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown site %q", site))
			return
		}
		if s = nodeShardIn(ss, node); s == nil {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("node %q is not at site %q", node, site))
			return
		}
	} else if s = nodeShardIn(g.shards, node); s == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown node %q", node))
		return
	}
	if !g.siteAvailable(s.site) {
		siteUnavailable(w, s.site)
		return
	}
	now := s.f.Clock.Now().Seconds()
	defFrom := now - 60
	if defFrom < 0 {
		defFrom = 0 // a campaign younger than the default window
	}
	from, err := floatParam(q.Get("from_sec"), defFrom)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	to, err := floatParam(q.Get("to_sec"), now)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if from < 0 || to < from {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad range %g..%g", from, to))
		return
	}
	fromT := secondsToSim(from)
	toT := secondsToSim(to)

	// The collector shares the shard campaign's RNG on flaky-kwapi rolls;
	// serialize queries per shard so concurrent scrapes never race on it.
	var samples []monitor.Sample
	var qerr error
	s.rlocked(func() {
		s.monMu.Lock()
		samples, qerr = s.f.Monitor.Query(metric, node, fromT, toT)
		s.monMu.Unlock()
	})
	if qerr != nil {
		// Inputs were validated above; what remains is the monitoring
		// service itself failing (the paper's flaky kwapi).
		httpError(w, http.StatusBadGateway, qerr.Error())
		return
	}
	out := MonitorJSON{
		Metric:  metric,
		Node:    node,
		Site:    site,
		FromSec: from,
		ToSec:   to,
		Mean:    monitor.Mean(samples),
		Samples: make([]SampleJSON, len(samples)),
	}
	for i, smp := range samples {
		out.Samples[i] = SampleJSON{TSec: smp.T.Seconds(), V: smp.V}
	}
	writeJSON(w, out)
}

// ---- bugs ------------------------------------------------------------------

// BugJSON is the wire form of one bug report.
type BugJSON struct {
	ID          int     `json:"id"`
	Site        string  `json:"site,omitempty"` // the owning shard's
	Signature   string  `json:"signature"`
	Title       string  `json:"title,omitempty"`
	Family      string  `json:"family,omitempty"`
	Target      string  `json:"target,omitempty"`
	State       string  `json:"state"`
	FiledAtSec  float64 `json:"filed_at_sec"`
	FixedAtSec  float64 `json:"fixed_at_sec,omitempty"`
	Occurrences int     `json:"occurrences"`
	Reopens     int     `json:"reopens,omitempty"`
}

// BugsJSON is the wire form of GET /bugs.
type BugsJSON struct {
	Degraded *DegradedJSON `json:"degraded,omitempty"`
	Filed    int           `json:"filed"`
	Fixed    int           `json:"fixed"`
	Open     int           `json:"open"`
	Bugs     []BugJSON     `json:"bugs"`
}

// parseBugState validates the ?state= filter (open unless given).
func parseBugState(r *http.Request) (string, error) {
	state := r.URL.Query().Get("state")
	if state == "" {
		state = "open"
	}
	if state != "open" && state != "all" {
		return "", fmt.Errorf("bad state %q (open|all)", state)
	}
	return state, nil
}

func (g *Gateway) handleBugs(w http.ResponseWriter, r *http.Request) {
	state, err := parseBugState(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	family := r.URL.Query().Get("family")
	var out BugsJSON
	out.Degraded = g.degradedMarker()
	for _, s := range liveShards(g.shards, out.Degraded) {
		s.rlocked(func() {
			tr := s.f.Bugs
			st := tr.Stats()
			out.Filed += st.Filed
			out.Fixed += st.Fixed
			out.Open += st.Open
			list := tr.OpenBugs()
			if state == "all" {
				list = tr.All()
			}
			for _, b := range list {
				if family != "" && b.Family != family {
					continue
				}
				out.Bugs = append(out.Bugs, BugJSON{
					ID:          b.ID,
					Site:        s.site,
					Signature:   b.Signature,
					Title:       b.Title,
					Family:      b.Family,
					Target:      b.Target,
					State:       b.State.String(),
					FiledAtSec:  b.FiledAt.Seconds(),
					FixedAtSec:  b.FixedAt.Seconds(),
					Occurrences: b.Occurrences,
					Reopens:     b.Reopens,
				})
			}
		})
	}
	if out.Bugs == nil {
		out.Bugs = []BugJSON{}
	}
	writeJSON(w, out)
}

// BugRollupJSON is one row of GET /bugs/rollup: every ticket sharing a
// signature across the surviving shards, folded into one root cause.
type BugRollupJSON struct {
	Signature       string   `json:"signature"`
	Title           string   `json:"title,omitempty"`
	Family          string   `json:"family,omitempty"`
	Sites           []string `json:"sites"`
	Tickets         int      `json:"tickets"`
	Open            int      `json:"open"`
	Occurrences     int      `json:"occurrences"`
	FirstFiledAtSec float64  `json:"first_filed_at_sec"`
}

// BugsRollupJSON is the wire form of GET /bugs/rollup.
type BugsRollupJSON struct {
	Degraded *DegradedJSON   `json:"degraded,omitempty"`
	Count    int             `json:"count"`
	Rollup   []BugRollupJSON `json:"rollup"`
}

// handleBugsRollup serves the cross-site rollup: a site outage files one
// ticket per surviving shard; this view folds such bursts back into one row
// per signature, widest burst first. The ETag is the joined per-site
// tracker version vector (every File and Fix bumps it) — so a matching
// conditional request means the cached body is exactly current, and a 304
// costs no rollup and reads no ticket at all; a miss reads each tracker's
// tickets together with its version and answers under that key (serveView).
func (g *Gateway) handleBugsRollup(w http.ResponseWriter, r *http.Request) {
	state, err := parseBugState(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	degraded := g.degradedMarker()
	keyOf := func(snaps []intel.TrackerSnapshot) string {
		return "br" + intel.VersionKey64(snaps) + "|" + state + downSetKey(degraded)
	}
	trackers := g.liveTrackers(excludedSites(degraded))
	serveView(w, r, &g.rollup, keyOf(intel.SnapshotVersions(trackers)), 0, false, func() (string, []byte, error) {
		snaps := intel.SnapshotTrackers(trackers)
		out := BugsRollupJSON{Degraded: degraded, Rollup: []BugRollupJSON{}}
		for _, e := range bugs.RollupSorted(rollupFromSnapshots(snaps, state)) {
			out.Rollup = append(out.Rollup, BugRollupJSON{
				Signature:       e.Signature,
				Title:           e.Title,
				Family:          e.Family,
				Sites:           e.Sites,
				Tickets:         e.Tickets,
				Open:            e.Open,
				Occurrences:     e.Occurrences,
				FirstFiledAtSec: e.FirstFiledAt.Seconds(),
			})
		}
		out.Count = len(out.Rollup)
		return rendered(keyOf(snaps), out)
	})
}

// ---- status views ----------------------------------------------------------

// GridJSON is the wire form of GET /status/grid.
type GridJSON struct {
	Degraded  *DegradedJSON                      `json:"degraded,omitempty"`
	Families  []string                           `json:"families"`
	Targets   []string                           `json:"targets"`
	OKRatePct float64                            `json:"ok_rate_pct"`
	Cells     map[string]map[string]GridCellJSON `json:"cells"`
}

// GridCellJSON is one grid entry.
type GridCellJSON struct {
	Result string  `json:"result"`
	Build  int     `json:"build"`
	AtSec  float64 `json:"at_sec"`
}

func (g *Gateway) handleStatusGrid(w http.ResponseWriter, r *http.Request) {
	// Scatter: one grid per surviving shard, each under its own gate;
	// gather into a merged grid. Family/target spaces are disjoint across
	// shards (each site owns its clusters), so the merge is a union.
	degraded := g.degradedMarker()
	merged := &status.Grid{Cells: map[string]map[string]status.CellStatus{}}
	famSet := map[string]bool{}
	tgtSet := map[string]bool{}
	for _, s := range liveShards(g.shards, degraded) {
		var grid *status.Grid
		var err error
		s.rlocked(func() { grid, err = s.statusClient.BuildGrid() })
		if err != nil {
			httpError(w, http.StatusBadGateway, err.Error())
			return
		}
		for fam, row := range grid.Cells {
			famSet[fam] = true
			m := merged.Cells[fam]
			if m == nil {
				m = map[string]status.CellStatus{}
				merged.Cells[fam] = m
			}
			for tgt, st := range row {
				tgtSet[tgt] = true
				if prev, ok := m[tgt]; !ok || st.AtSec > prev.AtSec {
					m[tgt] = st
				}
			}
		}
	}
	for fam := range famSet {
		merged.Families = append(merged.Families, fam)
	}
	for tgt := range tgtSet {
		merged.Targets = append(merged.Targets, tgt)
	}
	sort.Strings(merged.Families)
	sort.Strings(merged.Targets)

	out := GridJSON{
		Degraded:  degraded,
		Families:  merged.Families,
		Targets:   merged.Targets,
		OKRatePct: 100 * merged.OKRate(),
		Cells:     make(map[string]map[string]GridCellJSON, len(merged.Cells)),
	}
	for fam, row := range merged.Cells {
		m := make(map[string]GridCellJSON, len(row))
		for tgt, st := range row {
			m[tgt] = GridCellJSON{Result: st.Result, Build: st.Build, AtSec: st.AtSec}
		}
		out.Cells[fam] = m
	}
	writeJSON(w, out)
}

// TrendJSON is the wire form of GET /status/trend.
type TrendJSON struct {
	Degraded  *DegradedJSON       `json:"degraded,omitempty"`
	BucketSec float64             `json:"bucket_sec"`
	Points    []status.TrendPoint `json:"points"`
}

func (g *Gateway) handleStatusTrend(w http.ResponseWriter, r *http.Request) {
	bucket, err := floatParam(r.URL.Query().Get("bucket_sec"), 86400)
	if err != nil || bucket <= 0 {
		httpError(w, http.StatusBadRequest, "bad bucket_sec")
		return
	}
	degraded := g.degradedMarker()
	var builds []ci.BuildJSON
	for _, s := range liveShards(g.shards, degraded) {
		var part []ci.BuildJSON
		var gerr error
		s.rlocked(func() { part, gerr = s.statusClient.AllBuilds() })
		if gerr != nil {
			httpError(w, http.StatusBadGateway, gerr.Error())
			return
		}
		builds = append(builds, part...)
	}
	points := status.Trend(builds, bucket)
	if points == nil {
		points = []status.TrendPoint{}
	}
	writeJSON(w, TrendJSON{Degraded: degraded, BucketSec: bucket, Points: points})
}

// ---- small parsers ---------------------------------------------------------

func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	// NaN slides past ordering checks (NaN <= x is always false) and Inf
	// breaks range arithmetic; both would corrupt downstream validation
	// and leave a body that does not encode — a 500 for a bad request.
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}
