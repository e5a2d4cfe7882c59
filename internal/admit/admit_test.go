package admit

import (
	"fmt"
	"testing"

	"repro/internal/oar"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// fakeBackend is a minimal site: a slot pool where every segment node costs
// one slot and placement succeeds iff the request fits the free slots.
type fakeBackend struct {
	site      string
	available bool
	total     int
	busy      int
	placeErr  error
	placed    []string // request strings, in placement order
	nextJob   int
}

func (f *fakeBackend) Site() string         { return f.site }
func (f *fakeBackend) Available() bool      { return f.available }
func (f *fakeBackend) Capacity() (int, int) { return f.busy, f.total }
func (f *fakeBackend) CanPlace(r oar.Request) bool {
	return f.available && nodesOf(r, f.total) <= f.total-f.busy
}
func (f *fakeBackend) Place(r oar.Request, user string) (oar.JobInfo, error) {
	if f.placeErr != nil {
		return oar.JobInfo{}, f.placeErr
	}
	f.busy += nodesOf(r, f.total)
	f.nextJob++
	f.placed = append(f.placed, r.String())
	return oar.JobInfo{ID: f.nextJob, User: user, Request: r.String(), State: "Running"}, nil
}

func nodesOf(r oar.Request, poolTotal int) int {
	n := 0
	for _, seg := range r.Segments {
		if seg.Nodes == oar.AllNodes {
			n += poolTotal // "whole cluster": the entire fake pool
			continue
		}
		n += seg.Nodes
	}
	return n
}

func mustReq(t testing.TB, s string) oar.Request {
	t.Helper()
	r, err := oar.ParseRequest(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return r
}

// newTestController builds a controller over the given backends with a
// manually stepped simulated clock, at the epoch: Monday 00:00, off peak.
func newTestController(backends ...*fakeBackend) (*Controller, *simclock.Time) {
	now := new(simclock.Time)
	bs := make([]Backend, len(backends))
	for i, b := range backends {
		bs[i] = b
	}
	return New(func() simclock.Time { return *now }, bs), now
}

func TestAdmitRoutesToLeastLoadedSite(t *testing.T) {
	// nancy is busier (4/8) than rennes (1/8); grenoble is smaller but
	// idle (0/4). Ratios: nancy 0.5, rennes 0.125, grenoble 0 → grenoble.
	nancy := &fakeBackend{site: "nancy", available: true, total: 8, busy: 4}
	rennes := &fakeBackend{site: "rennes", available: true, total: 8, busy: 1}
	grenoble := &fakeBackend{site: "grenoble", available: true, total: 4}
	c, _ := newTestController(nancy, rennes, grenoble)

	out := c.Admit(mustReq(t, "nodes=2,walltime=1"), "alice")
	if out.Status != Placed || out.Site != "grenoble" {
		t.Fatalf("admit = %+v, want placed at grenoble", out)
	}
	if out.Job.ID == 0 || out.Job.User != "alice" {
		t.Fatalf("job = %+v", out.Job)
	}
	// grenoble is now 2/4 (0.5); rennes (0.125) wins the next one.
	if out := c.Admit(mustReq(t, "nodes=1,walltime=1"), "bob"); out.Site != "rennes" {
		t.Fatalf("second admit went to %q, want rennes", out.Site)
	}
}

func TestAdmitTiebreakIsLexicographic(t *testing.T) {
	// Equal load either way round: the smaller site name must win,
	// regardless of backend registration order.
	for _, order := range [][]string{{"nantes", "lyon"}, {"lyon", "nantes"}} {
		var backends []*fakeBackend
		for _, site := range order {
			backends = append(backends, &fakeBackend{site: site, available: true, total: 8, busy: 2})
		}
		c, _ := newTestController(backends...)
		out := c.Admit(mustReq(t, "nodes=1,walltime=1"), "u")
		if out.Status != Placed || out.Site != "lyon" {
			t.Fatalf("order %v: admit = %+v, want lyon", order, out)
		}
	}
}

func TestAdmitSkipsDownSites(t *testing.T) {
	down := &fakeBackend{site: "lyon", available: false, total: 8}
	up := &fakeBackend{site: "nancy", available: true, total: 8, busy: 7}
	c, _ := newTestController(down, up)
	out := c.Admit(mustReq(t, "nodes=1,walltime=1"), "u")
	if out.Status != Placed || out.Site != "nancy" {
		t.Fatalf("admit = %+v, want placed at nancy", out)
	}
}

func TestQueueBoundsAndShedding(t *testing.T) {
	full := &fakeBackend{site: "lyon", available: true, total: 2, busy: 2}
	c, _ := newTestController(full)

	req := mustReq(t, "nodes=1,walltime=1")
	for i := 0; i < queueCap; i++ {
		out := c.Admit(req, "u")
		if out.Status != Queued {
			t.Fatalf("admit %d = %+v, want queued", i, out)
		}
		if out.Reservation.Position != i {
			t.Fatalf("admit %d queued at position %d", i, out.Reservation.Position)
		}
	}
	out := c.Admit(req, "u")
	if out.Status != Shed || out.RetryAfterSec != retryAfterSec {
		t.Fatalf("overflow admit = %+v, want shed with Retry-After %d", out, retryAfterSec)
	}
	st := c.Stats()
	if st.Depth != queueCap || st.MaxDepth != queueCap || st.Shed != 1 || st.Queued != queueCap {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPumpPlacesFreedCapacity(t *testing.T) {
	lyon := &fakeBackend{site: "lyon", available: true, total: 2, busy: 2}
	c, _ := newTestController(lyon)
	req := mustReq(t, "nodes=2,walltime=1")
	if out := c.Admit(req, "u"); out.Status != Queued {
		t.Fatalf("admit = %+v, want queued", out)
	}
	c.Pump() // still full: nothing moves
	if st := c.Stats(); st.Depth != 1 || st.QueuedPlaced != 0 {
		t.Fatalf("stats after no-op pump = %+v", st)
	}
	lyon.busy = 0 // capacity frees
	c.Pump()
	st := c.Stats()
	if st.Depth != 0 || st.QueuedPlaced != 1 {
		t.Fatalf("stats after pump = %+v", st)
	}
	if len(lyon.placed) != 1 {
		t.Fatalf("lyon placed %d jobs, want 1", len(lyon.placed))
	}
	q := c.Queue()
	if len(q.Resolved) != 1 || q.Resolved[0].Outcome != "placed" || q.Resolved[0].Site != "lyon" {
		t.Fatalf("resolved ring = %+v", q.Resolved)
	}
}

// TestPumpFairness proves no starvation of small requests behind a large
// head-of-line request: the stuck whole-pool reservation stays queued while
// the one-node reservation behind it backfills into freed capacity.
func TestPumpFairness(t *testing.T) {
	lyon := &fakeBackend{site: "lyon", available: true, total: 4, busy: 4}
	c, _ := newTestController(lyon)
	big := c.Admit(mustReq(t, "nodes=4,walltime=1"), "big")
	small := c.Admit(mustReq(t, "nodes=1,walltime=1"), "small")
	if big.Status != Queued || small.Status != Queued {
		t.Fatalf("admits = %v, %v, want both queued", big.Status, small.Status)
	}

	lyon.busy = 3 // one node frees: enough for small, not for big
	c.Pump()
	st := c.Stats()
	if st.QueuedPlaced != 1 {
		t.Fatalf("pump placed %d, want the small request placed", st.QueuedPlaced)
	}
	if st.Depth != 1 {
		t.Fatalf("queue depth %d after pump, want the big request still waiting", st.Depth)
	}
	q := c.Queue()
	if len(q.Waiting) != 1 || q.Waiting[0].ID != big.Reservation.ID {
		t.Fatalf("waiting = %+v, want only the big reservation", q.Waiting)
	}
	if len(q.Resolved) != 1 || q.Resolved[0].ID != small.Reservation.ID {
		t.Fatalf("resolved = %+v, want the small reservation placed", q.Resolved)
	}

	lyon.busy = 0 // everything frees: the big request finally places
	c.Pump()
	if st := c.Stats(); st.Depth != 0 || st.QueuedPlaced != 2 {
		t.Fatalf("stats after final pump = %+v", st)
	}
}

func TestPumpExpiresPastDeadline(t *testing.T) {
	full := &fakeBackend{site: "lyon", available: true, total: 1, busy: 1}
	c, now := newTestController(full)
	out := c.Admit(mustReq(t, "nodes=1,walltime=1"), "u")
	if out.Status != Queued {
		t.Fatalf("admit = %+v", out)
	}
	if out.Reservation.DeadlineSec != deadline.Seconds() {
		t.Fatalf("deadline = %v, want %v", out.Reservation.DeadlineSec, deadline)
	}
	*now = deadline - simclock.Second
	c.Pump()
	if st := c.Stats(); st.Depth != 1 {
		t.Fatalf("stats = %+v, want the reservation waiting until its deadline", st)
	}
	*now = deadline // deadline reached
	c.Pump()
	st := c.Stats()
	if st.Depth != 0 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want the reservation expired", st)
	}
}

// TestPumpFailsFastWithNoLiveSites: a reservation against a grid with no
// live site must fail immediately, well before its deadline.
func TestPumpFailsFastWithNoLiveSites(t *testing.T) {
	lyon := &fakeBackend{site: "lyon", available: true, total: 1, busy: 1}
	c, _ := newTestController(lyon)
	if out := c.Admit(mustReq(t, "nodes=1,walltime=1"), "u"); out.Status != Queued {
		t.Fatalf("admit = %+v", out)
	}
	lyon.available = false // the only site goes down
	c.Pump()
	st := c.Stats()
	if st.Depth != 0 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want the reservation failed fast", st)
	}
	q := c.Queue()
	if len(q.Resolved) != 1 || q.Resolved[0].Outcome != "failed" {
		t.Fatalf("resolved = %+v", q.Resolved)
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	// lyon probes as startable but refuses every placement (down
	// mid-flight); nancy has no capacity. After breakerThreshold refusals,
	// lyon drops out of the candidate set until the cooldown passes.
	lyon := &fakeBackend{site: "lyon", available: true, total: 8, placeErr: fmt.Errorf("shard down")}
	nancy := &fakeBackend{site: "nancy", available: true, total: 1, busy: 1}
	c, now := newTestController(lyon, nancy)
	req := mustReq(t, "nodes=1,walltime=1")

	for i := 0; i < breakerThreshold; i++ {
		if out := c.Admit(req, "u"); out.Status != Queued {
			t.Fatalf("admit %d = %+v, want queued after refusal", i, out)
		}
	}
	q := c.Queue()
	if q.Breakers[0].Site != "lyon" || q.Breakers[0].State != "open" {
		t.Fatalf("breakers = %+v, want lyon open", q.Breakers)
	}
	// Tripped: lyon is not even probed; arrivals queue without touching it.
	before := len(lyon.placed)
	if out := c.Admit(req, "u"); out.Status != Queued {
		t.Fatalf("admit while open = %+v", out)
	}
	if len(lyon.placed) != before {
		t.Fatal("placement reached a tripped site")
	}

	// Cooldown over and the site actually healed: the half-open trial
	// places, which closes the breaker.
	*now = breakerCooldown
	lyon.placeErr = nil
	if out := c.Admit(req, "u"); out.Status != Placed || out.Site != "lyon" {
		t.Fatalf("half-open admit = %+v, want placed at lyon", out)
	}
	q = c.Queue()
	if q.Breakers[0].State != "closed" {
		t.Fatalf("breakers after recovery = %+v, want lyon closed", q.Breakers)
	}
}

func TestPeakPolicyDefersWholeClusterRequests(t *testing.T) {
	idle := &fakeBackend{site: "lyon", available: true, total: 8}
	c, now := newTestController(idle)

	// Monday 17:00 (the simulated epoch is a Monday at 00:00).
	*now = 17 * simclock.Hour
	if !sched.InPeak(*now) {
		t.Fatal("Monday 17:00 should be peak")
	}
	whole := mustReq(t, "nodes=ALL,walltime=1")
	if _, ok := c.Probe(whole); ok {
		t.Fatal("dry run of a whole-cluster request during peak answered placeable")
	}
	out := c.Admit(whole, "u")
	if out.Status != Queued {
		t.Fatalf("whole-cluster admit during peak = %+v, want queued", out)
	}
	if st := c.Stats(); st.DeferredPeak != 1 {
		t.Fatalf("stats = %+v, want deferred_peak 1", st)
	}
	// Small requests place freely during peak.
	if out := c.Admit(mustReq(t, "nodes=1,walltime=1"), "u"); out.Status != Placed {
		t.Fatalf("small admit during peak = %+v, want placed", out)
	}
	// Off-peak, before its deadline, and with the pool drained, the queued
	// whole-cluster request pumps through.
	*now = 18 * simclock.Hour
	idle.busy = 0
	c.Pump()
	if st := c.Stats(); st.Depth != 0 || st.QueuedPlaced != 1 {
		t.Fatalf("stats after off-peak pump = %+v", st)
	}
}
