package ci

// REST API in the style of Jenkins' JSON remote API. The external status
// page (internal/status) consumes these endpoints over real HTTP, exactly
// as the paper's status page does ("external status page that uses
// Jenkins' REST API", slide 18).

import (
	"net/http"
	"slices"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// JobJSON is the wire form of a job summary; Last* name its newest completed build.
type JobJSON struct {
	Name           string  `json:"name"`
	Description    string  `json:"description,omitempty"`
	Matrix         bool    `json:"matrix"`
	CellCount      int     `json:"cell_count"`
	LastBuild      int     `json:"last_build,omitempty"`
	LastResult     string  `json:"last_result,omitempty"`
	LastEndedAtSec float64 `json:"last_ended_at_sec,omitempty"`
}

// BuildJSON is the wire form of one build.
type BuildJSON struct {
	Job           string            `json:"job"`
	Number        int               `json:"number"`
	Cause         string            `json:"cause,omitempty"`
	Cell          map[string]string `json:"cell,omitempty"`
	Parent        int               `json:"parent,omitempty"`
	CellBuilds    []int             `json:"cell_builds,omitempty"`
	Result        string            `json:"result"`
	Building      bool              `json:"building"`
	QueuedAtSec   float64           `json:"queued_at_sec"`
	StartedAtSec  float64           `json:"started_at_sec"`
	EndedAtSec    float64           `json:"ended_at_sec"`
	Log           []string          `json:"log,omitempty"`
	BugSignatures []string          `json:"bug_signatures,omitempty"`
}

func buildJSON(b *Build, withLog bool) BuildJSON {
	out := BuildJSON{
		Job:           b.Job,
		Number:        b.Number,
		Cause:         b.Cause,
		Cell:          b.Cell,
		Parent:        b.Parent,
		CellBuilds:    b.CellBuilds,
		Result:        b.Result.String(),
		Building:      !b.Completed(),
		QueuedAtSec:   b.QueuedAt.Seconds(),
		StartedAtSec:  b.StartedAt.Seconds(),
		EndedAtSec:    b.EndedAt.Seconds(),
		BugSignatures: b.BugSignatures,
	}
	if withLog {
		out.Log = b.Log
	}
	return out
}

// Handler returns the REST API as an http.Handler:
//
//	GET  /api/json                    → server summary (jobs, queue, executors); a status grid's simple cells
//	GET  /job/{name}/api/json         → job detail + retained builds; a status trend's every job, a grid's matrix jobs
//	GET  /job/{name}/{n}/api/json     → one build, with log
//	POST /job/{name}/build?token=T    → trigger (token access control)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/json", s.handleRoot)
	mux.HandleFunc("/job/", s.handleJob)
	return mux
}

// RootJSON is the wire form of the server summary endpoint.
type RootJSON struct {
	Jobs        []JobJSON `json:"jobs"`
	QueueLength int       `json:"queue_length"`
	Executors   int       `json:"executors"`
	Busy        int       `json:"busy_executors"`
	TotalBuilds int       `json:"total_builds"`
}

// methodNotAllowed rejects a request with 405 and the Allow header RFC 9110
// requires, so clients can discover the supported methods. Read endpoints
// accept only GET; the trigger endpoint only POST.
func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
}

func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	out := RootJSON{QueueLength: len(s.queue) - s.qhead, Executors: s.executors, Busy: s.running, TotalBuilds: s.builtCount}
	out.Jobs = slices.Grow(out.Jobs, len(s.jobOrder)) // still nil, listed null, without jobs
	for _, name := range s.jobOrder {
		out.Jobs = append(out.Jobs, jobJSON(s.jobs[name]))
	}
	writeJSON(w, http.StatusOK, out)
}

// jobJSON renders a job's summary.
func jobJSON(j *Job) JobJSON {
	out := JobJSON{Name: j.Name, Description: j.Description, Matrix: j.IsMatrix(), CellCount: j.CellCount()}
	if last := j.lastCompleted(); last != nil {
		out.LastBuild = last.Number
		out.LastResult = last.Result.String()
		out.LastEndedAtSec = last.EndedAt.Seconds()
	}
	return out
}

// JobDetailJSON is the wire form of one job plus its retained builds.
type JobDetailJSON struct {
	JobJSON
	Builds []BuildJSON `json:"builds"`
}

// jobDetail renders a job and its retained builds. ok is false for an
// unknown job.
func (s *Server) jobDetail(name string) (out JobDetailJSON, ok bool) {
	j := s.jobs[name]
	if j == nil {
		return out, false
	}
	out.JobJSON = jobJSON(j)
	out.Builds = slices.Grow(out.Builds, j.nbuilds) // still nil, listed null, without builds
	for i := 0; i < j.nbuilds; i++ {
		out.Builds = append(out.Builds, buildJSON(j.buildAt(i), false))
	}
	return out, true
}

// handleJob routes /job/... paths. Job names may themselves contain slashes
// ("disk/sol"), so the path is parsed from the END: the suffix decides the
// endpoint and everything before it is the job name.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/job/")
	switch {
	case strings.HasSuffix(rest, "/build"):
		name := strings.TrimSuffix(rest, "/build")
		if s.JobByName(name) == nil {
			http.NotFound(w, r)
			return
		}
		if r.Method != http.MethodPost {
			methodNotAllowed(w, http.MethodPost)
			return
		}
		b, err := s.TriggerToken(name, r.URL.Query().Get("token"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
		writeJSON(w, http.StatusCreated, buildJSON(b, false))

	case strings.HasSuffix(rest, "/api/json"):
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		name := strings.TrimSuffix(rest, "/api/json")
		// Build detail when the last path segment is a number and the
		// prefix names a registered job.
		if slash := strings.LastIndexByte(name, '/'); slash > 0 {
			if n, err := strconv.Atoi(name[slash+1:]); err == nil {
				jobName := name[:slash]
				if s.JobByName(jobName) != nil {
					b := s.Build(jobName, n)
					if b == nil {
						http.NotFound(w, r)
						return
					}
					writeJSON(w, http.StatusOK, buildJSON(b, true))
					return
				}
			}
		}
		out, ok := s.jobDetail(name)
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, http.StatusOK, out)

	default:
		http.NotFound(w, r)
	}
}

// writeJSON renders v before the status line goes out: a value that does
// not encode answers 500, not code with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	if err := wire.WriteIndent(w, code, v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
