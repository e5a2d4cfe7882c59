package gateway

// The OAR, monitoring, bug-tracker and status-view endpoints. Each read
// follows the scatter-gather shape: parse parameters lock-free, snapshot
// the shard(s) involved under their own read gates, merge and write the
// answer outside any lock. A submission or a dry run holds a write gate.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"

	"repro/internal/admit"
	"repro/internal/bugs"
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

// serveOARResources implements /oar/resources and its site-scoped variant,
// whose path site takes the place of ?site=.
func (g *Gateway) serveOARResources(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cluster := q.Get("cluster")
	site := r.PathValue("site")
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

// serveOARJobs implements /oar/jobs; the site-scoped route reads only the
// path site's shards — one per cluster, whose newest-first lists merge like
// the grid-wide view's.
func (g *Gateway) serveOARJobs(w http.ResponseWriter, r *http.Request) {
	limit, err := parseLimit(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var out OARJobsJSON
	shards := g.siteShards[r.PathValue("site")]
	if shards == nil {
		out.Degraded = g.degradedMarker()
		shards = liveShards(g.shards, out.Degraded)
	}
	lists := make([][]oar.JobInfo, len(shards))
	for i, s := range shards {
		jobs, sub, st, can := s.jobsScoped(limit)
		lists[i] = jobs
		out.Submitted += sub
		out.Started += st
		out.Canceled += can
	}
	out.Jobs = mergeNewestFirst(lists, limit)
	writeJSON(w, out)
}

// mergeNewestFirst merges per-shard newest-first job lists into one
// newest-first list of at most limit jobs (0: all of them), nil when there
// are none. Ties on submission time go to the lower shard index, so the
// result is the stable sort of the lists' concatenation.
func mergeNewestFirst(lists [][]oar.JobInfo, limit int) []oar.JobInfo {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if limit > 0 {
		total = min(total, limit)
	}
	if total == 0 {
		return nil
	}
	out := make([]oar.JobInfo, 0, total)
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || l[0].SubmittedAtSec > lists[best][0].SubmittedAtSec) {
				best = i
			}
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
	return out
}

// SubmitRequest is the body of POST /oar/submit.
type SubmitRequest struct {
	Request string `json:"request"`
	User    string `json:"user,omitempty"`
	// DryRun probes whether the request could start right now
	// (oar.Server.CanStartNowReq — what the external scheduler asks before
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

// hasAnchoredSegment reports whether any segment of the request names a
// site, cluster or host.
func hasAnchoredSegment(req oar.Request) bool {
	for _, seg := range req.Segments {
		if key, _ := seg.Anchor(); key != "" {
			return true
		}
	}
	return false
}

// routeSubmission is the one routing of a parsed request, whichever way it
// came in: the grid route, a site's route, or the admission layer placing
// it on a site. It returns the cluster shard that takes the request and the
// request with its unanchored segments pinned to that shard's site.
//
// site is what the way in fixes. On the grid route it is "" and the first
// anchor names it (a request with no anchor never gets there: the admission
// layer picks its site). Every later anchor must fall inside that site. A
// cluster or host anchor names the cluster shard — a request spans at most
// one, each being its own OAR; without one, the site's shards are probed in
// cluster order for one that could start the request now, and the
// coordinator queues what none can.
func (g *Gateway) routeSubmission(req oar.Request, site string) (*shard, oar.Request, error) {
	var target *shard
	for i, seg := range req.Segments {
		key, val := seg.Anchor()
		var s *shard
		var owner string
		switch key {
		case "site":
			if len(g.siteShards[val]) > 0 {
				owner = val
			}
		case "cluster":
			if site == "" {
				s = g.shardForCluster(val)
			} else {
				s = g.shardFor(site, val)
			}
		case "host":
			pool := g.shards
			if site != "" {
				pool = g.siteShards[site]
			}
			s = nodeShardIn(pool, val)
		default:
			continue
		}
		if s != nil {
			owner = s.site
		}
		switch {
		case owner != "" && (site == "" || owner == site):
			site = owner
		case site == "":
			return nil, oar.Request{}, fmt.Errorf("segment %d anchors to unknown %s %q", i+1, key, val)
		default:
			return nil, oar.Request{}, fmt.Errorf("segment %d anchors to %s %q, which is not at site %q", i+1, key, val, site)
		}
		if s == nil {
			continue
		}
		if target != nil && s != target {
			return nil, oar.Request{}, fmt.Errorf("request spans more than one cluster shard of site %q", site)
		}
		target = s
	}
	pinned := req.PinnedToSite(site)
	if target == nil {
		shards := g.siteShards[site]
		target = shards[0]
		if len(shards) > 1 {
			for _, s := range shards {
				if s.canStart(pinned) {
					target = s
					break
				}
			}
		}
	}
	return target, pinned, nil
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

// canStart probes whether the shard's OAR could start the request now.
func (s *shard) canStart(req oar.Request) (ok bool) {
	s.locked(func() { ok = s.f.OAR.CanStartNowReq(req) })
	return ok
}

// submit enqueues the request on the shard's OAR — where every submission
// ends, whichever way it came in — and returns the job as OAR lists it.
func (s *shard) submit(req oar.Request, user string) (job oar.JobInfo) {
	s.locked(func() {
		j := s.f.OAR.SubmitReq(req, oar.SubmitOptions{User: user})
		job, _ = s.f.OAR.JobInfoByID(j.ID)
	})
	return job
}

// serveOARSubmit implements POST /oar/submit and, with the path naming a
// site, the site's own /sites/{site}/oar/submit, which can never allocate
// outside the site. The body's request is parsed once: on the grid route a
// request no anchor places goes to the admission layer (admission.go), and
// everything else takes routeSubmission. A submission routed to a lost site
// cannot enqueue anywhere; it answers 503 and the client retries after heal.
func (g *Gateway) serveOARSubmit(w http.ResponseWriter, r *http.Request) {
	site := r.PathValue("site")
	var body SubmitRequest
	if !decodeBody(w, r, &body) {
		return
	}
	if body.Request == "" {
		httpError(w, http.StatusBadRequest, "missing request")
		return
	}
	req, err := oar.ParseRequest(body.Request)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	user := body.User
	if user == "" {
		user = "api"
	}
	if site == "" && !hasAnchoredSegment(req) {
		g.serveAdmission(w, req, user, body.DryRun)
		return
	}
	target, pinned, err := g.routeSubmission(req, site)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !g.siteAvailable(target.site) {
		siteUnavailable(w, target.site)
		return
	}
	if body.DryRun {
		ok := target.canStart(pinned)
		writeJSON(w, SubmitResponse{Site: target.site, CanStartNow: &ok})
		return
	}
	job := target.submit(pinned, user)
	writeJSONStatus(w, http.StatusCreated, SubmitResponse{Site: target.site, Job: &job})
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

// monitorWindowSec bounds a /monitor/metrics range, measured up to now: one
// day, 86 401 samples at 1 Hz, above every window clients and the kwapi
// family ask for. The samples are built under the shard's read gate, so a
// longer range would hold that shard's campaign step back.
const monitorWindowSec = 86400

// monitorRange reads a /monitor/metrics range against the shard's now;
// it defaults to the last minute, or less in a younger campaign.
func monitorRange(fromQ, toQ string, now float64) (from, to float64, err error) {
	if from, err = floatParam(fromQ, max(now-60, 0)); err != nil {
		return 0, 0, err
	}
	if to, err = floatParam(toQ, now); err != nil {
		return 0, 0, err
	}
	switch {
	case from < 0 || to < from:
		return 0, 0, fmt.Errorf("bad range %g..%g", from, to)
	case min(to, now)-from > monitorWindowSec:
		return 0, 0, fmt.Errorf("range %g..%g exceeds the bound of %d s of samples", from, min(to, now), monitorWindowSec)
	}
	return from, to, nil
}

// serveMonitorMetrics implements /monitor/metrics and its site-scoped
// variant. The ?site= filter (or the path site) must name a known site —
// unknown sites are 400 — and the queried node must live there.
func (g *Gateway) serveMonitorMetrics(w http.ResponseWriter, r *http.Request) {
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
	site := r.PathValue("site")
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
	var from, to float64
	var samples []monitor.Sample
	var err, qerr error
	s.rlocked(func() { // one hold reads now and the samples: one instant
		from, to, err = monitorRange(q.Get("from_sec"), q.Get("to_sec"), s.f.Clock.Now().Seconds())
		if err == nil {
			samples, qerr = s.f.Monitor.Query(metric, node, secondsToSim(from), secondsToSim(to))
		}
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if qerr != nil {
		// Inputs were validated above, and a query draws nothing, so what
		// remains is a probe the wiring database cannot find.
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
// conditional request means the client's body is exactly current, and a 304
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
	serveView(w, r, keyOf(g.trackerSnapshots(degraded, false)), false, func() (string, []byte, error) {
		snaps := g.trackerSnapshots(degraded, true)
		rows := rollupRows(snaps, state)
		return rendered(keyOf(snaps), BugsRollupJSON{Degraded: degraded, Count: len(rows), Rollup: rows})
	})
}

// rollupRows folds tracker snapshots into /bugs/rollup rows, one per
// signature over the open tickets (every ticket when state is "all"): the
// sites carrying it in snapshot order, widest burst first, then signature.
func rollupRows(snaps []intel.TrackerSnapshot, state string) []BugRollupJSON {
	rows := []BugRollupJSON{}
	row := map[string]int{} // signature → index in rows
	for _, snap := range snaps {
		for k := range snap.List {
			b := &snap.List[k]
			if state != "all" && b.State != bugs.Open {
				continue
			}
			i, ok := row[b.Signature]
			if !ok {
				i = len(rows)
				row[b.Signature] = i
				rows = append(rows, BugRollupJSON{
					Signature: b.Signature, Title: b.Title, Family: b.Family,
					FirstFiledAtSec: b.FiledAt.Seconds(),
				})
			}
			r := &rows[i]
			r.FirstFiledAtSec = min(r.FirstFiledAtSec, b.FiledAt.Seconds())
			if len(r.Sites) == 0 || r.Sites[len(r.Sites)-1] != snap.Site {
				r.Sites = append(r.Sites, snap.Site)
			}
			r.Tickets++
			r.Occurrences += b.Occurrences
			if b.State == bugs.Open {
				r.Open++
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Tickets != rows[j].Tickets {
			return rows[i].Tickets > rows[j].Tickets
		}
		return rows[i].Signature < rows[j].Signature
	})
	return rows
}

// ---- status views ----------------------------------------------------------

// GridJSON is the wire form of GET /status/grid.
type GridJSON struct {
	Degraded  *DegradedJSON                           `json:"degraded,omitempty"`
	Families  []string                                `json:"families"`
	Targets   []string                                `json:"targets"`
	OKRatePct float64                                 `json:"ok_rate_pct"`
	Cells     map[string]map[string]status.CellStatus `json:"cells"`
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

	writeJSON(w, GridJSON{
		Degraded:  degraded,
		Families:  merged.Families,
		Targets:   merged.Targets,
		OKRatePct: 100 * merged.OKRate(),
		Cells:     merged.Cells,
	})
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
	var parts [][]status.Build
	for _, s := range liveShards(g.shards, degraded) {
		var part []status.Build
		var gerr error
		s.rlocked(func() { part, gerr = s.statusClient.AllBuilds() })
		if gerr != nil {
			httpError(w, http.StatusBadGateway, gerr.Error())
			return
		}
		parts = append(parts, part)
	}
	points := status.Trend(slices.Concat(parts...), bucket)
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
