package ci

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simclock"
)

func apiServer(t *testing.T) (*simclock.Clock, *Server, *httptest.Server) {
	t.Helper()
	c := simclock.New(20)
	s := NewServer(c, Options{NumExecutors: 4})
	s.CreateJob(&Job{Name: "smoke", Description: "basic check",
		Script: constScript(Success, 5*simclock.Minute)})
	s.CreateJob(&Job{Name: "envs", Script: constScript(Failure, simclock.Minute),
		Axes: []Axis{{Name: "image", Values: []string{"a", "b"}}}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return c, s, ts
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestAPIRoot(t *testing.T) {
	c, s, ts := apiServer(t)
	s.Trigger("smoke", "t")
	c.Run()

	var root RootJSON
	if code := getJSON(t, ts.URL+"/api/json", &root); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(root.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(root.Jobs))
	}
	if root.Jobs[0].Name != "smoke" || root.Jobs[0].LastResult != "SUCCESS" {
		t.Fatalf("job[0] = %+v", root.Jobs[0])
	}
	if !root.Jobs[1].Matrix || root.Jobs[1].CellCount != 2 {
		t.Fatalf("job[1] = %+v", root.Jobs[1])
	}
	if root.TotalBuilds != 1 {
		t.Fatalf("total = %d", root.TotalBuilds)
	}
}

func TestAPIJobDetail(t *testing.T) {
	c, s, ts := apiServer(t)
	s.Trigger("envs", "t")
	c.Run()

	var jd JobDetailJSON
	if code := getJSON(t, ts.URL+"/job/envs/api/json", &jd); code != 200 {
		t.Fatalf("status = %d", code)
	}
	// 1 parent + 2 cells.
	if len(jd.Builds) != 3 {
		t.Fatalf("builds = %d", len(jd.Builds))
	}
	if jd.LastResult != "FAILURE" {
		t.Fatalf("last result = %q", jd.LastResult)
	}
	cells := 0
	for _, b := range jd.Builds {
		if b.Cell != nil {
			cells++
			if b.Result != "FAILURE" {
				t.Fatalf("cell result = %q", b.Result)
			}
		}
	}
	if cells != 2 {
		t.Fatalf("cells = %d", cells)
	}
}

func TestAPIBuildDetailWithLog(t *testing.T) {
	c, s, ts := apiServer(t)
	b, _ := s.Trigger("smoke", "t")
	c.Run()

	var bj BuildJSON
	if code := getJSON(t, ts.URL+"/job/smoke/1/api/json", &bj); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if bj.Number != b.Number || bj.Result != "SUCCESS" || bj.Building {
		t.Fatalf("build = %+v", bj)
	}
	if len(bj.Log) == 0 {
		t.Fatal("log missing")
	}
	if bj.EndedAtSec-bj.StartedAtSec != 300 {
		t.Fatalf("duration = %v", bj.EndedAtSec-bj.StartedAtSec)
	}
}

func TestAPINotFound(t *testing.T) {
	_, _, ts := apiServer(t)
	var v struct{}
	if code := getJSON(t, ts.URL+"/job/ghost/api/json", &v); code != 404 {
		t.Fatalf("ghost job status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/job/smoke/99/api/json", &v); code != 404 {
		t.Fatalf("ghost build status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/job/smoke/abc/api/json", &v); code != 404 {
		t.Fatalf("bad number status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/job/smoke", &v); code != 404 {
		t.Fatalf("short path status = %d", code)
	}
}

func TestAPITriggerWithToken(t *testing.T) {
	c, s, ts := apiServer(t)
	s.AddToken("tok", "alice")

	resp, err := http.Post(ts.URL+"/job/smoke/build?token=tok", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	c.Run()
	if s.TotalBuilds() != 1 {
		t.Fatal("trigger did not build")
	}

	resp, _ = http.Post(ts.URL+"/job/smoke/build?token=wrong", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bad token status = %d", resp.StatusCode)
	}

	// GET on the build endpoint is rejected.
	resp, _ = http.Get(ts.URL + "/job/smoke/build?token=tok")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET trigger status = %d", resp.StatusCode)
	}
}

func TestAPIMethodNotAllowedOnRoot(t *testing.T) {
	_, _, ts := apiServer(t)
	resp, _ := http.Post(ts.URL+"/api/json", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
		t.Fatalf("Allow = %q, want GET", allow)
	}
}

// TestAPIMethodNotAllowedOnReads: every read endpoint must reject mutating
// methods with 405 and name the allowed method, never silently treat a
// PUT/DELETE/POST as a read.
func TestAPIMethodNotAllowedOnReads(t *testing.T) {
	_, _, ts := apiServer(t)
	paths := []string{
		"/api/json",
		"/job/smoke/api/json",
		"/job/smoke/1/api/json",
	}
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		for _, path := range paths {
			req, err := http.NewRequest(method, ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status = %d, want 405", method, path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
				t.Fatalf("%s %s: Allow = %q, want GET", method, path, allow)
			}
		}
	}

	// The trigger endpoint allows POST only, and says so.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/job/smoke/build", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT build: status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("PUT build: Allow = %q, want POST", allow)
	}
}

// TestAPIUnencodableBodyAnswers500: a value that cannot be encoded must not
// go out as the handler's status with an empty body.
func TestAPIUnencodableBodyAnswers500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, BuildJSON{Job: "smoke", QueuedAtSec: math.NaN()})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "NaN") {
		t.Fatalf("NaN body answered %d %q, want 500 naming the value", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); strings.Contains(ct, "json") {
		t.Fatalf("error body sent as %q", ct)
	}
}

// TestAPIJobDetailIsOneSnapshot reads a matrix job's detail from several
// goroutines while its builds complete on the executor pool. Every response
// must be one instant of the server: last_build is the newest completed
// top-level build the listing shows, and a completed parent lists only
// completed cells. Run with -race.
func TestAPIJobDetailIsOneSnapshot(t *testing.T) {
	c := simclock.New(7)
	s := NewServer(c, Options{NumExecutors: 3})
	var n atomic.Int64 // cell durations differ, so cells finish at different instants
	err := s.CreateJob(&Job{Name: "envs", Retention: 40,
		Script: func(bc *BuildContext) Outcome {
			return Outcome{Result: Success, Duration: simclock.Time(1+n.Add(1)%5) * simclock.Minute}
		},
		Axes: []Axis{{Name: "image", Values: []string{"a", "b", "c"}}, {Name: "cluster", Values: []string{"x", "y"}}}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	const readers, minReads, minRounds = 4, 400, 40
	var reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/job/envs/api/json", nil))
				var d JobDetailJSON
				if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
					t.Errorf("status %d: %v", rec.Code, err)
					return
				}
				building := map[int]bool{}
				newestDone := 0
				for _, b := range d.Builds {
					building[b.Number] = b.Building
					if !b.Building && b.Parent == 0 {
						newestDone = b.Number
					}
				}
				if d.LastBuild != newestDone {
					t.Errorf("last_build = %d beside a listing whose newest completed build is %d", d.LastBuild, newestDone)
					return
				}
				for _, b := range d.Builds {
					for _, cell := range b.CellBuilds {
						if !b.Building && building[cell] {
							t.Errorf("parent %d reads completed beside cell %d still building", b.Number, cell)
							return
						}
					}
				}
				reads.Add(1)
			}
		}()
	}
	for round := 0; round < minRounds || reads.Load() < minReads; round++ {
		if _, err := s.Trigger("envs", "t"); err != nil {
			t.Fatal(err)
		}
		c.Run()
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
}
