package gateway

// Admission-layer tests at the HTTP surface: unanchored submissions place,
// queue and shed through POST /oar/submit; the pumps after an inject, a
// heal and an advance fail, place and expire queued reservations; and the
// duplicate-cluster-name regression routes deterministically to the
// lexicographically smallest live site.

import (
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/inproc"
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

	// Losing every site fails the reservation fast — POST /chaos/inject
	// pumps the queue, long before the reservation's deadline.
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

	// With every site down a new arrival queues, and the heal's pump places
	// it.
	if resp, body := postJSON(t, c, "/chaos/inject", `{"kind":"outage","sites":["nantes"]}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("inject status = %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, c, "/oar/submit", `{"request":"nodes=1,walltime=1","user":"dave"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit on a dead grid status = %d, want 202: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, c, "/chaos/heal", `{"all":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("heal status = %d: %s", resp.StatusCode, body)
	}
	if st := gw.Admission().Stats(); st.Depth != 0 || st.QueuedPlaced != 1 {
		t.Fatalf("after heal: %+v, want depth 0 and queued_placed 1", st)
	}

	// An oversized arrival waits on a healthy grid, and the advance's pump
	// expires it once its 2 h deadline has passed.
	if resp, body := postJSON(t, c, "/oar/submit", `{"request":"nodes=999,walltime=1","user":"carol"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("oversized submit status = %d, want 202: %s", resp.StatusCode, body)
	}
	gw.Advance(3 * simclock.Hour)
	if st := gw.Admission().Stats(); st.Depth != 0 || st.Expired != 1 {
		t.Fatalf("after the deadline: %+v, want depth 0 and expired 1", st)
	}
}

// TestDryRunHonoursThePeakRule: an unanchored dry run answers what the
// submission itself would get. On Monday at 09:00 a whole-cluster demand
// falls under the grid-wide peak rule, so it queues (202) however free the
// grid is, and its dry run must not answer can_start_now. The campaign is
// never started, so every cluster stands idle.
func TestDryRunHonoursThePeakRule(t *testing.T) {
	fed := federation.New(federation.Config{Seed: 5, Spec: fedSpec("luxembourg", "nantes")})
	fed.Advance(9 * simclock.Hour)
	c := inproc.Client(ForFederation(fed))
	resp, body := postJSON(t, c, "/oar/submit", `{"request":"nodes=ALL,walltime=1","dry_run":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry run status = %d: %s", resp.StatusCode, body)
	}
	if sub := decode[SubmitResponse](t, body); sub.CanStartNow == nil || *sub.CanStartNow {
		t.Fatalf("dry run during peak = %s, want can_start_now false", body)
	}
	resp, body = postJSON(t, c, "/oar/submit", `{"request":"nodes=ALL,walltime=1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit during peak status = %d, want 202: %s", resp.StatusCode, body)
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
	_, gw := newFederatedCampaign(t, simclock.Hour)
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
	if st.MaxDepth != st.Capacity {
		t.Fatalf("queue reached %d, want exactly its cap of %d", st.MaxDepth, st.Capacity)
	}

	fed, gw := newFederatedCampaign(t, simclock.Hour)
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
		Profile: func() *core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 0
			cfg.EnvMatrixPeriod = 0
			return &cfg
		}(),
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
	// A cluster anchor resolves at the site an earlier anchor named: nancy
	// has a grisou of its own, so this request spans one site, not two.
	resp, body = postJSON(t, c, "/oar/submit", `{"request":"site='nancy'/nodes=1+cluster='grisou'/nodes=1,walltime=1","user":"dave"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("site-then-cluster submit status = %d: %s", resp.StatusCode, body)
	}
	if sub := decode[SubmitResponse](t, body); sub.Site != "nancy" {
		t.Fatalf("site-then-cluster submit landed on %q, want nancy", sub.Site)
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
