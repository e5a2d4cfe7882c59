package gateway

// Admission-layer tests at the HTTP surface: unanchored submissions place,
// queue and shed through POST /oar/submit; a site outage fails queued
// reservations long before their deadline (wired through the federation's
// grid listener); and the duplicate-cluster-name regression routes
// deterministically to the lexicographically smallest live site.

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/inproc"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func TestAdmissionQueueUnderChaos(t *testing.T) {
	_, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)

	// A demand no site can ever start (larger than the whole grid) queues a
	// reservation instead of failing.
	resp, body := postJSON(t, c, "/oar/submit", `{"request":"nodes=999,walltime=1","user":"carol"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("oversized submit status = %d, want 202: %s", resp.StatusCode, body)
	}
	sub := decode[SubmitResponse](t, body)
	if sub.Admission != "queued" || sub.Reservation == nil {
		t.Fatalf("oversized submit = %+v", sub)
	}
	deadline := sub.Reservation.DeadlineSec

	resp, body = get(t, c, "/admit/queue")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/admit/queue status = %d", resp.StatusCode)
	}
	q := decode[admitQueueJSON](t, body)
	if q.Stats.Depth != 1 || len(q.Waiting) != 1 || q.Waiting[0].User != "carol" {
		t.Fatalf("queue = %+v", q)
	}

	// The admission counters ride along on /metrics.
	_, body = get(t, c, "/metrics")
	mets := decode[MetricsReport](t, body)
	if mets.Admission == nil || mets.Admission.Queued != 1 {
		t.Fatalf("/metrics admission = %+v", mets.Admission)
	}

	// Losing every site fails the reservation fast — the grid listener
	// pumps the queue on inject, long before the reservation's deadline.
	if resp, body := postJSON(t, c, "/chaos/inject", `{"kind":"outage","sites":["luxembourg","nantes"]}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("inject status = %d: %s", resp.StatusCode, body)
	}
	_, body = get(t, c, "/admit/queue")
	q = decode[admitQueueJSON](t, body)
	if q.Stats.Depth != 0 || q.Stats.Failed != 1 || len(q.Resolved) != 1 {
		t.Fatalf("queue after grid loss = %+v", q.Stats)
	}
	if r := q.Resolved[0]; r.Outcome != "failed" || r.AtSec >= deadline {
		t.Fatalf("resolved = %+v (deadline %g)", r, deadline)
	}
	for _, br := range q.Breakers {
		if br.State != "site-down" {
			t.Fatalf("breaker %s = %q, want site-down", br.Site, br.State)
		}
	}

	// Heal everything, then lose only one site: new arrivals re-route to
	// the survivor instead of queueing against the dead site.
	if resp, body := postJSON(t, c, "/chaos/heal", `{"all":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("heal status = %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, c, "/chaos/inject", `{"kind":"outage","sites":["luxembourg"]}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("inject status = %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, c, "/oar/submit", `{"request":"nodes=1,walltime=1","user":"carol"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-routed submit status = %d: %s", resp.StatusCode, body)
	}
	if sub := decode[SubmitResponse](t, body); sub.Site != "nantes" {
		t.Fatalf("re-routed submit landed on %q, want nantes", sub.Site)
	}
}

// newAdmissionGrid fronts the two-site federation, an hour into its
// campaign, with grid admission under the default peak policy. Nothing
// advances afterwards, so every placement holds its nodes and capacity only
// drains.
func newAdmissionGrid(t *testing.T, queueCap int, scatter func([]func())) (*federation.Federation, *Gateway) {
	t.Helper()
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	policy := sched.DefaultGridPolicy()
	gw.EnableAdmission(admit.Config{Now: fed.Now, Policy: &policy, QueueCap: queueCap, Scatter: scatter})
	return fed, gw
}

// TestAdmissionSerialParallelScatterOnTheWire: the same 140 submissions —
// small demands that place and drain capacity, oversized ones that queue —
// probed serially and through the gateway's goroutine fan-out leave the
// same status, verdict and site for every request and the same counters.
// Placement is a pure function of the gathered probe slots; the fan-out
// must not change a single routing.
func TestAdmissionSerialParallelScatterOnTheWire(t *testing.T) {
	trace := func(scatter func([]func())) ([]string, admit.StatsJSON) {
		_, gw := newAdmissionGrid(t, 0, scatter)
		c := inproc.Client(gw)
		var out []string
		for n := 0; n < 140; n++ {
			nodes := 1 + n%5
			if n%17 == 0 {
				nodes = 999 // startable nowhere: the queue path
			}
			resp, body := postJSON(t, c, "/oar/submit", fmt.Sprintf(`{"request":"nodes=%d,walltime=12","user":"e19"}`, nodes))
			sub := decode[SubmitResponse](t, body)
			out = append(out, fmt.Sprintf("%d:%s:%s", resp.StatusCode, sub.Admission, sub.Site))
		}
		return out, gw.Admission().Stats()
	}
	serialTrace, serialStats := trace(func(tasks []func()) {
		for _, task := range tasks {
			task()
		}
	})
	fanoutTrace, fanoutStats := trace(nil)
	for i := range serialTrace {
		if serialTrace[i] != fanoutTrace[i] {
			t.Fatalf("submission %d diverged: serial %s, fan-out %s", i, serialTrace[i], fanoutTrace[i])
		}
	}
	if serialStats != fanoutStats {
		t.Fatalf("admission counters diverged:\nserial:  %+v\nfan-out: %+v", serialStats, fanoutStats)
	}
	if serialStats.Placed == 0 || serialStats.Queued == 0 {
		t.Fatalf("the sequence must both place and queue: %+v", serialStats)
	}
}

// TestAdmissionShedsPastTheKnee is the overload contract as exact counts.
// Demand far past what the grid can hold is never an error: it places
// (201), then queues (202) up to the queue's capacity, then sheds (429) —
// the wire's 429s are the controller's Shed counter, every one carries
// Retry-After, and the queue never outgrows its cap. Demand for half the
// free capacity all places, with nothing queued or shed.
func TestAdmissionShedsPastTheKnee(t *testing.T) {
	const submit = `{"request":"nodes=4,walltime=12","user":"e19"}`
	_, gw := newAdmissionGrid(t, 16, nil)
	c := inproc.Client(gw)
	seen := map[int]int64{}
	for n := 0; n < 500; n++ {
		resp, body := postJSON(t, c, "/oar/submit", submit)
		seen[resp.StatusCode]++
		switch resp.StatusCode {
		case http.StatusCreated, http.StatusAccepted:
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("submission %d shed without Retry-After", n)
			}
		default:
			t.Fatalf("submission %d: status = %d, want 201, 202 or 429: %s", n, resp.StatusCode, body)
		}
	}
	st := gw.Admission().Stats()
	if st.Placed == 0 || st.Shed == 0 {
		t.Fatalf("knee not crossed: %+v", st)
	}
	if seen[http.StatusCreated] != st.Placed || seen[http.StatusAccepted] != st.Queued || seen[http.StatusTooManyRequests] != st.Shed {
		t.Fatalf("wire saw %v, controller counted %+v", seen, st)
	}
	if st.Capacity != 16 || st.MaxDepth > st.Capacity {
		t.Fatalf("queue grew to %d past its cap of %d (configured 16)", st.MaxDepth, st.Capacity)
	}

	fed, gw := newAdmissionGrid(t, 0, nil)
	c = inproc.Client(gw)
	free := 0
	for _, sh := range fed.Shards() {
		free += sh.F.TB.TotalNodes() - sh.F.OAR.BusyNodes()
	}
	half := int64(free / 2 / 4) // 4 nodes a request
	for n := int64(0); n < half; n++ {
		if resp, body := postJSON(t, c, "/oar/submit", submit); resp.StatusCode != http.StatusCreated {
			t.Fatalf("half-capacity submission %d of %d: status = %d, want 201: %s", n, half, resp.StatusCode, body)
		}
	}
	if st := gw.Admission().Stats(); half == 0 || st.Placed != half || st.Queued != 0 || st.Shed != 0 {
		t.Fatalf("half-capacity demand (%d requests) did not all place: %+v", half, st)
	}
}

// admitQueueJSON mirrors admit.QueueJSON for decoding in tests (the wire
// shape is the contract, not the Go type).
type admitQueueJSON struct {
	Stats struct {
		Depth    int   `json:"depth"`
		Capacity int   `json:"capacity"`
		MaxDepth int   `json:"max_depth"`
		Queued   int64 `json:"queued"`
		Shed     int64 `json:"shed"`
		Failed   int64 `json:"failed"`
	} `json:"stats"`
	Waiting []struct {
		ID          int     `json:"id"`
		User        string  `json:"user"`
		DeadlineSec float64 `json:"deadline_sec"`
	} `json:"waiting"`
	Resolved []struct {
		ID      int     `json:"id"`
		Outcome string  `json:"outcome"`
		Site    string  `json:"site"`
		AtSec   float64 `json:"at_sec"`
	} `json:"resolved"`
	Breakers []struct {
		Site  string `json:"site"`
		State string `json:"state"`
	} `json:"breakers"`
}

// dupClusterSpec builds two single-cluster sites sharing one cluster name —
// legal on the real grid, where cluster names are only site-unique.
func dupClusterSpec() []testbed.ClusterSpec {
	base := testbed.ClusterSpec{
		Name: "grisou", Vendor: "Dell", ModelYear: 2016, NodeCount: 4,
		Sockets: 2, CoresPerSocket: 8, CPUModel: "Intel Xeon E5-2630v3", FreqMHz: 2400, RAMGB: 128,
		DiskCount: 1, DiskGB: 600, NICRateGbps: 10, NICDriver: "ixgbe",
		BIOSVersion: "2.2", PowerProfile: "balanced",
	}
	a, b := base, base
	a.Site = "nancy"
	b.Site = "lille"
	return []testbed.ClusterSpec{a, b}
}

func TestDuplicateClusterRoutesToSmallestLiveSite(t *testing.T) {
	fed := federation.New(federation.Config{
		Seed: 8,
		Spec: dupClusterSpec(),
		Configure: func(site string, seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 0
			cfg.EnvMatrixPeriod = 0
			return cfg
		},
	})
	fed.Start()
	fed.Advance(simclock.Hour)
	gw := ForFederation(fed)
	c := inproc.Client(gw)

	// Both sites own a "grisou"; the anchor must route to the
	// lexicographically smallest live site, deterministically.
	resp, body := postJSON(t, c, "/oar/submit", `{"request":"cluster='grisou'/nodes=1,walltime=1","user":"dave"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("dup-cluster submit status = %d: %s", resp.StatusCode, body)
	}
	if sub := decode[SubmitResponse](t, body); sub.Site != "lille" {
		t.Fatalf("dup-cluster submit landed on %q, want lille", sub.Site)
	}

	// With the smallest owner down, the anchor routes to the surviving
	// owner instead of 503ing on the dead one.
	if resp, body := postJSON(t, c, "/chaos/inject", `{"kind":"outage","sites":["lille"]}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("inject status = %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, c, "/oar/submit", `{"request":"cluster='grisou'/nodes=1,walltime=1","user":"dave"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("failover submit status = %d: %s", resp.StatusCode, body)
	}
	if sub := decode[SubmitResponse](t, body); sub.Site != "nancy" {
		t.Fatalf("failover submit landed on %q, want nancy", sub.Site)
	}

	// The read-side cluster filter follows the same rule.
	resp, body = get(t, c, "/oar/resources?cluster=grisou")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster filter status = %d: %s", resp.StatusCode, body)
	}
	if got := decode[OARResourcesJSON](t, body); len(got.Nodes) != 4 {
		t.Fatalf("cluster filter = %d nodes, want 4", len(got.Nodes))
	}
}
