package ci

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simclock"
)

// TestServerConcurrentStress hammers one Server from many OS goroutines —
// triggering builds, reading counters, listing jobs — then drains the
// whole backlog through the executor pool while pollers keep reading.
// Run with -race: this is the thread-safety contract of the server.
func TestServerConcurrentStress(t *testing.T) {
	c := simclock.New(99)
	s := NewServer(c, Options{NumExecutors: 8})
	const jobs = 16
	for i := 0; i < jobs; i++ {
		err := s.CreateJob(&Job{
			Name:   fmt.Sprintf("job-%d", i),
			Script: constScript(Success, 10*simclock.Minute),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.AddToken("tok", "stress")

	var triggered int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 64; k++ {
				name := fmt.Sprintf("job-%d", (g+k)%jobs)
				switch k % 4 {
				case 0:
					if _, err := s.Trigger(name, "stress"); err == nil {
						atomic.AddInt64(&triggered, 1)
					}
				case 1:
					_ = s.queued() + s.busy() + s.TotalBuilds()
				case 2:
					_ = s.Builds(name)
					if j := s.JobByName(name); j == nil {
						t.Error("job vanished")
						return
					}
				case 3:
					if _, err := s.TriggerToken(name, "tok"); err == nil {
						atomic.AddInt64(&triggered, 1)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Drain the backlog on the executor pool while outside goroutines keep
	// poking the server: one reads the mutex-guarded counters, one fetches
	// build JSON through the REST handler (snapshots of builds that may be
	// mid-flight), and one keeps triggering fresh builds mid-run.
	stop := make(chan struct{})
	var pokers sync.WaitGroup
	pokers.Add(2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	go func() {
		defer pokers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.queued() + s.busy() + s.TotalBuilds()
				resp, err := http.Get(ts.URL + "/job/job-0/api/json")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				runtime.Gosched()
			}
		}
	}()
	lateDone := make(chan struct{})
	go func() {
		defer pokers.Done()
		defer close(lateDone)
		for k := 0; k < 32; k++ {
			if _, err := s.Trigger(fmt.Sprintf("job-%d", k%jobs), "late"); err == nil {
				atomic.AddInt64(&triggered, 1)
			}
			runtime.Gosched()
		}
	}()
	// Keep running until the late triggers landed and everything drained.
	for {
		c.Run()
		select {
		case <-lateDone:
		default:
			runtime.Gosched()
			continue
		}
		if s.queued() == 0 && s.busy() == 0 && !c.Step() {
			break
		}
	}
	close(stop)
	pokers.Wait()

	if got := int64(s.TotalBuilds()); got != triggered {
		t.Fatalf("completed %d of %d triggered builds", got, triggered)
	}
	if s.queued() != 0 || s.busy() != 0 {
		t.Fatal("server not drained")
	}
}
