package main

import (
	"io"
	"math"
	"net/http"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	asc := seq(1000)
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {25, 250}} {
		got, err := percentile(asc, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..1000 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p99 of 1000 samples leaves exactly 10 beyond it; of 999, only 9.
	if _, err := percentile(seq(1000), 99); err != nil {
		t.Errorf("p99 of 1000 refused: %v", err)
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples accepted with 9 beyond it")
	}
	if _, err := percentile(seq(100), 90); err != nil {
		t.Errorf("p90 of 100 refused: %v", err)
	}
	if _, err := percentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("median of nothing accepted")
	}
	// The median is never refused for lack of a tail.
	if v, err := percentile(seq(3), 50); err != nil || v != 2 {
		t.Errorf("median of 3 = %v, %v", v, err)
	}
}

func TestTailFallsDownTheLadder(t *testing.T) {
	v, used := tail(seq(500), 99)
	if used != 95 || v != 475 {
		t.Errorf("tail(500 samples, p99) = %v at p%g; want 475 at p95", v, used)
	}
	v, used = tail(seq(5000), 99)
	if used != 99 || v != 4950 {
		t.Errorf("tail(5000 samples, p99) = %v at p%g", v, used)
	}
	if _, used = tail(seq(5), 99); used != 50 {
		t.Errorf("tail(5 samples) used p%g, want the median", used)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median = %v", m)
	}
	if median(nil) != 0 {
		t.Error("median of nothing is not 0")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 30, End: 60, Parent: 0},  // overlaps its sibling
		{Name: "child", Start: 90, End: 120, Parent: 0}, // runs past the parent
	}
	rows := selfTimes(spans)
	var parent spanTotals
	for _, r := range rows {
		if r.Name == "parent" {
			parent = r
		}
	}
	// Covered: [10,60] and [90,100] = 60 of 100 ns.
	if want := 40e-6; math.Abs(parent.SelfMs-want) > 1e-12 {
		t.Errorf("parent self time = %v ms, want %v", parent.SelfMs, want)
	}
}

// stallHandler answers at once, except that request number stallAt sleeps.
type stallHandler struct {
	n       int
	stallAt int
	stall   time.Duration
}

func (h *stallHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.n++
	if h.n == h.stallAt {
		time.Sleep(h.stall)
	}
	w.WriteHeader(http.StatusOK)
}

// TestOpenLoopChargesStallToDueRequests is the coordinated-omission test:
// when one answer stalls, every request that came due during the stall
// must still be sent, and must be charged the time it waited from its due
// instant, not from when the generator got round to sending it.
func TestOpenLoopChargesStallToDueRequests(t *testing.T) {
	const (
		n     = 20
		gap   = 5 * time.Millisecond
		stall = 60 * time.Millisecond
	)
	train := make([]arrival, n)
	for i := range train {
		train[i] = arrival{due: time.Duration(i) * gap, spec: reqSpec{path: "/x"}}
	}
	h := &stallHandler{stallAt: 3, stall: stall}
	c := newClient(h, nil, 1)
	start := time.Now().Add(2 * time.Millisecond)
	runOpenLoop(c, train, start, noSpan)

	if len(c.recs) != n || h.n != n {
		t.Fatalf("%d requests recorded, %d served; want %d: arrivals were skipped", len(c.recs), h.n, n)
	}
	if c.t.failed != 0 {
		t.Fatalf("failures: %v", c.t.msgs)
	}
	// Request 2 (0-based) stalls from t=10ms to t=70ms. Requests 3..13 came
	// due at 15..65 ms, inside the stall, and waited for it to end.
	for i := range c.recs {
		r := &c.recs[i]
		if r.lateNs < 0 {
			t.Errorf("request %d sent %v before it was due", i, time.Duration(-r.lateNs))
		}
		due := time.Duration(i) * gap
		stallEnd := 2*gap + stall
		switch {
		case i == 2:
			if time.Duration(r.latNs) < stall {
				t.Errorf("stalled request took %v, less than the stall", time.Duration(r.latNs))
			}
		case due > 2*gap && due < stallEnd-gap:
			wait := stallEnd - due
			if got := time.Duration(r.latNs); got < wait-time.Millisecond {
				t.Errorf("request %d, due %v into the run, charged %v; it waited at least %v for the stall", i, due, got, wait)
			}
			if !r.queued {
				t.Errorf("request %d came due while the client was busy but is not marked queued", i)
			}
		case i > 16:
			if got := time.Duration(r.latNs); got > 20*time.Millisecond {
				t.Errorf("request %d, due after the backlog drained, still took %v", i, got)
			}
		}
	}
}

func TestMetStepKeepsTheReadsDueDuringAStep(t *testing.T) {
	// Steps run over [0, 10) and [100, 120) ms of the run.
	d := &liveDriver{startMs: []float64{0, 100}, stepMs: []float64{10, 20}}
	var train []arrival
	var recs []reqRec
	for i, dueMs := range []float64{5, 50, 105, 119.9, 120, 130} {
		train = append(train, arrival{due: time.Duration(dueMs * float64(time.Millisecond))})
		recs = append(recs, reqRec{latNs: int64(i+1) * int64(time.Millisecond)})
	}
	got := d.metStep(train, recs)
	if want := []float64{1, 3, 4}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("metStep = %v, want %v: the reads due at 5, 105 and 119.9 ms", got, want)
	}
}

func TestCompareRefusesBreachesAndExactCounts(t *testing.T) {
	env := environment{GoVersion: "go1.24", GOMAXPROCS: 1, Seed: 1, Revision: "aaaa"}
	mk := func(rate, p50 float64) *report {
		return &report{Env: env, Results: []*result{{
			Workload: "campaign-mono", Attempted: 10,
			Metrics: map[string]metric{
				"setup_s":      {Value: 0.3, Unit: "s"},
				"peak_heap_mb": {Value: 100, Unit: "MB"},
				"work_per_s":   {Value: rate, Unit: "1/s"},
				"op_p50_ms":    {Value: p50, Unit: "ms"},
				"op_tail_x":    {Value: 12, Unit: "x"},
			},
		}}}
	}
	discard := io.Discard
	if code := compare(mk(400, 1.7), mk(390, 1.75), discard); code != 0 {
		t.Errorf("a 2.5%% slower rate breached: exit %d", code)
	}
	if code := compare(mk(400, 1.7), mk(280, 1.7), discard); code != 1 {
		t.Errorf("a 30%% slower rate passed: exit %d", code)
	}
	if code := compare(mk(400, 1.7), mk(400, 2.5), discard); code != 1 {
		t.Errorf("a 47%% slower median passed: exit %d", code)
	}
	// A better number is never a breach.
	if code := compare(mk(400, 1.7), mk(800, 0.5), discard); code != 0 {
		t.Errorf("an improvement breached: exit %d", code)
	}
	other := mk(400, 1.7)
	other.Env.NumCPU = 8
	if code := compare(mk(400, 1.7), other, discard); code != 2 {
		t.Errorf("reports from different environments compared: exit %d", code)
	}
	// Parent against change: the revisions differ, everything else matches.
	change := mk(400, 1.7)
	change.Env.Revision = "bbbb"
	if code := compare(mk(400, 1.7), change, discard); code != 0 {
		t.Errorf("reports from two revisions on one machine refused: exit %d", code)
	}
	// A baseline of zero gives no ratio to bound: a breach, not "ok".
	if code := compare(mk(0, 1.7), mk(400, 1.7), discard); code != 1 {
		t.Errorf("a zero baseline passed: exit %d", code)
	}
	// Traced reports: an exact count that differs at all is a breach.
	tr := func(events float64) *report {
		return &report{Env: env, Results: []*result{{
			Workload: "campaign-mono", Traced: true, Attempted: 10,
			Metrics: map[string]metric{"simclock.events_fired": {Value: events, Unit: "count"}},
		}}}
	}
	if code := compare(tr(1000), tr(1000), discard); code != 0 {
		t.Errorf("equal counts breached: exit %d", code)
	}
	if code := compare(tr(1000), tr(1001), discard); code != 1 {
		t.Errorf("an exact count off by one passed: exit %d", code)
	}
	failed := mk(400, 1.7)
	failed.Results[0].Failed = 1
	if code := compare(mk(400, 1.7), failed, discard); code != 1 {
		t.Errorf("a report with failed operations passed: exit %d", code)
	}
}
