// Package status implements the external status page (slides 18–19).
//
// Jenkins can show per-test status across all clusters, but operators also
// need the transposed view — per site or per cluster, across all tests —
// and an historical perspective. The paper solves this with an external
// page that consumes Jenkins' REST API; this package does the same against
// internal/ci's API, over real HTTP.
//
// Three views are produced:
//
//   - Grid: test family × target (cluster or site), latest result, from the
//     CI summary (/api/json) and each matrix job's detail;
//   - TargetReport: one column of the grid, for a single cluster/site;
//   - Trend: success rate over time buckets, the "85 % in February → 93 %
//     today" series of slide 23, from every job's detail.
package status

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ci"
	"repro/internal/inproc"
)

// Client talks to the CI server's REST API.
type Client struct {
	base string
	http *http.Client
}

// DefaultTimeout bounds every request a NewClient makes. The status page
// sits in front of operators' browsers; without a client timeout a single
// stalled CI server would hang every page render forever.
const DefaultTimeout = 10 * time.Second

// NewClient returns a client for the API at baseURL (no trailing slash),
// with DefaultTimeout on every request. Use NewClientWith to supply a
// custom *http.Client.
func NewClient(baseURL string) *Client {
	return NewClientWith(baseURL, &http.Client{Timeout: DefaultTimeout})
}

// NewClientWith returns a client for the API at baseURL using hc for its
// requests (custom timeouts, transports, instrumentation).
func NewClientWith(baseURL string, hc *http.Client) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), http: hc}
}

// NewLocalClient returns a client that dispatches requests in process,
// straight into the given CI API handler — no TCP listener, no loopback
// hop. The HTTP client-side code path (URLs, status handling, JSON
// decoding) is identical to the networked one.
func NewLocalClient(h http.Handler) *Client {
	return NewClientWith("http://ci.local", inproc.Client(h))
}

// bodies recycles the buffers get reads response bodies into.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// get fetches and decodes one API response; any status but 200 is an
// error naming it. json.Unmarshal copies what it keeps out of the buffer.
func (c *Client) get(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return fmt.Errorf("status: GET %s: %s", path, resp.Status)
	}
	buf := bodies.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bodies.Put(buf) }()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// Root fetches the server summary.
func (c *Client) Root() (ci.RootJSON, error) {
	var out ci.RootJSON
	err := c.get("/api/json", &out)
	return out, err
}

// Build is the part of a build record (ci.BuildJSON) that the grid and the
// trend read; job, cause, bug signatures and the other axes are skipped.
type Build struct {
	Number int `json:"number"`
	Parent int `json:"parent"` // a matrix cell's parent build
	Cell   struct {
		Cluster string `json:"cluster"`
	} `json:"cell"` // zero unless a matrix cell
	CellBuilds []int   `json:"cell_builds"` // a matrix parent's cells
	Result     string  `json:"result"`
	Building   bool    `json:"building"`
	EndedAtSec float64 `json:"ended_at_sec"`
}

// jobBuilds fetches one job's retained builds into reuse's array, zeroed
// first: json.Unmarshal keeps what a body leaves out of an element.
func (c *Client) jobBuilds(name string, reuse []Build) ([]Build, error) {
	clear(reuse[:cap(reuse)])
	out := struct {
		Builds []Build `json:"builds"`
	}{reuse[:0]}
	err := c.get("/job/"+name+"/api/json", &out)
	return out.Builds, err
}

// AllBuilds fetches every retained build of every job.
func (c *Client) AllBuilds() ([]Build, error) {
	root, err := c.Root()
	if err != nil {
		return nil, err
	}
	var out, job []Build
	for _, j := range root.Jobs {
		if job, err = c.jobBuilds(j.Name, job); err != nil {
			return nil, err
		}
		out = append(out, job...)
	}
	return out, nil
}

// CellStatus is one grid entry, and its wire form in the gateway's
// /status/grid.
type CellStatus struct {
	Result string  `json:"result"` // SUCCESS/UNSTABLE/FAILURE/ABORTED, "" when never run
	Build  int     `json:"build"`  // build number behind the verdict
	AtSec  float64 `json:"at_sec"` // sim-time (seconds) of the verdict
}

// Grid is the family × target status matrix.
type Grid struct {
	Families []string
	Targets  []string
	Cells    map[string]map[string]CellStatus // family → target → status
}

// splitJobName parses "family/target" simple-job names.
func splitJobName(name string) (family, target string, ok bool) {
	i := strings.IndexByte(name, '/')
	if i <= 0 || i == len(name)-1 {
		return "", "", false
	}
	return name[:i], name[i+1:], true
}

// BuildGrid assembles the per-test × per-target matrix from the CI API.
// Simple jobs named "family/target" contribute the last completed build the
// summary names; the environments matrix job contributes one entry per
// cluster, the worst result across that cluster's images in the latest
// completed parent build.
func (c *Client) BuildGrid() (*Grid, error) {
	root, err := c.Root()
	if err != nil {
		return nil, err
	}
	g := &Grid{Cells: make(map[string]map[string]CellStatus, len(root.Jobs))}
	famSet := make(map[string]bool, len(root.Jobs))
	tgtSet := make(map[string]bool, 64)
	put := func(family, target string, st CellStatus) {
		if g.Cells[family] == nil {
			g.Cells[family] = map[string]CellStatus{}
		}
		g.Cells[family][target] = st
		famSet[family] = true
		tgtSet[target] = true
	}

	for _, j := range root.Jobs {
		if j.Matrix {
			if err := c.mergeMatrix(g, j.Name, put); err != nil {
				return nil, err
			}
			continue
		}
		family, target, ok := splitJobName(j.Name)
		if !ok || j.LastBuild == 0 {
			continue
		}
		put(family, target, CellStatus{Result: j.LastResult, Build: j.LastBuild, AtSec: j.LastEndedAtSec})
	}

	g.Families = make([]string, 0, len(famSet))
	for f := range famSet {
		g.Families = append(g.Families, f)
	}
	g.Targets = make([]string, 0, len(tgtSet))
	for t := range tgtSet {
		g.Targets = append(g.Targets, t)
	}
	sort.Strings(g.Families)
	sort.Strings(g.Targets)
	return g, nil
}

// mergeMatrix folds the latest completed parent build of a matrix job into
// the grid, one entry per distinct "cluster" axis value.
func (c *Client) mergeMatrix(g *Grid, jobName string, put func(string, string, CellStatus)) error {
	builds, err := c.jobBuilds(jobName, nil)
	if err != nil {
		return err
	}
	// Latest completed parent.
	var parent *Build
	for i := range builds { // listed oldest first
		if b := &builds[i]; !b.Building && len(b.CellBuilds) > 0 {
			parent = b
		}
	}
	if parent == nil {
		return nil
	}
	worst := make(map[string]CellStatus, 32)
	for _, b := range builds {
		cluster := b.Cell.Cluster
		if cluster == "" || b.Parent != parent.Number {
			continue
		}
		cur, seen := worst[cluster]
		if !seen || worseResult(b.Result, cur.Result) {
			worst[cluster] = CellStatus{Result: b.Result, Build: b.Number, AtSec: b.EndedAtSec}
		}
	}
	for cluster, st := range worst {
		put(jobName, cluster, st)
	}
	return nil
}

// resultRank is Jenkins' severity ordering; an unknown result ranks with
// SUCCESS.
var resultRank = map[string]int{"SUCCESS": 0, "NOT_BUILT": 1, "UNSTABLE": 2, "ABORTED": 3, "FAILURE": 4}

// worseResult reports whether a is more severe than b.
func worseResult(a, b string) bool {
	return resultRank[a] > resultRank[b]
}

// TargetReport is the transposed view: all families for one target.
type TargetReport struct {
	Target string
	Rows   []TargetRow
}

// TargetRow is one family's status on the target.
type TargetRow struct {
	Family string
	Status CellStatus
}

// ReportFor extracts a target's column from the grid.
func (g *Grid) ReportFor(target string) TargetReport {
	rep := TargetReport{Target: target}
	for _, f := range g.Families {
		if st, ok := g.Cells[f][target]; ok {
			rep.Rows = append(rep.Rows, TargetRow{Family: f, Status: st})
		}
	}
	return rep
}

// OKRate returns the fraction of grid cells currently SUCCESS, over cells
// that have run at least once.
func (g *Grid) OKRate() float64 {
	total, ok := 0, 0
	for _, row := range g.Cells {
		for _, st := range row {
			if st.Result == "" {
				continue
			}
			total++
			if st.Result == "SUCCESS" {
				ok++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}

// TrendPoint is one bucket of the historical success-rate series. The JSON
// tags are its wire form on the gateway's /status/trend endpoint.
type TrendPoint struct {
	BucketStartSec float64 `json:"bucket_start_sec"`
	Total          int     `json:"total"` // completed verdicts (SUCCESS, FAILURE or ABORTED)
	Success        int     `json:"success"`
	Unstable       int     `json:"unstable"` // tracked separately: could-not-run is not a verdict
	Rate           float64 `json:"rate"`
}

// Trend buckets completed builds by EndedAt and computes the success rate
// per bucket, counting only verdicts (SUCCESS, and FAILURE or ABORTED as
// failures); UNSTABLE builds could not run and are reported separately.
// Matrix parents are skipped (their cells are already counted).
func Trend(builds []Build, bucketSec float64) []TrendPoint {
	if bucketSec <= 0 {
		return nil
	}
	// Value map: one accumulator struct per bucket lives inline in the map
	// instead of behind a per-bucket pointer allocation.
	type acc struct{ total, success, unstable int }
	buckets := make(map[int64]acc, 64)
	for _, b := range builds {
		if b.Building || len(b.CellBuilds) > 0 {
			continue
		}
		k := int64(b.EndedAtSec / bucketSec)
		a := buckets[k]
		switch b.Result {
		case "SUCCESS":
			a.total++
			a.success++
		case "FAILURE", "ABORTED":
			a.total++
		case "UNSTABLE":
			a.unstable++
		}
		buckets[k] = a
	}
	keys := make([]int64, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]TrendPoint, 0, len(keys))
	for _, k := range keys {
		a := buckets[k]
		p := TrendPoint{
			BucketStartSec: float64(k) * bucketSec,
			Total:          a.total,
			Success:        a.success,
			Unstable:       a.unstable,
		}
		if a.total > 0 {
			p.Rate = float64(a.success) / float64(a.total)
		}
		out = append(out, p)
	}
	return out
}
