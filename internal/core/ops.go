package core

// The operations model: everything that happens *around* the testing
// framework on a live testbed — users, entropy, and operators reacting to
// bug reports. This is what turns the framework into the paper's
// evaluation: bug counts (slide 22) and the reliability trend (slide 23).

import (
	"fmt"
	"strings"

	"repro/internal/bugs"
	"repro/internal/ci"
	"repro/internal/oar"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// ---- build observation ---------------------------------------------------

// onBuildComplete runs for every finished build (cells and parents).
func (f *Framework) onBuildComplete(b *ci.Build) {
	// Matrix parents: retry failed cells (Matrix Reloaded), but do not
	// count them — their cells are counted individually.
	if len(b.CellBuilds) > 0 || (b.Cell == nil && b.Job == "environments") {
		f.maybeRetryEnvMatrix(b)
		return
	}

	// Weekly statistics: counters update in place, so WeeklyReport and
	// Summary never rescan anything.
	week := int(b.EndedAt / simclock.Week)
	for week >= len(f.weekly) {
		f.weekly = append(f.weekly, WeekCounts{Week: len(f.weekly)})
	}
	wc := &f.weekly[week]
	switch b.Result {
	case ci.Success:
		wc.Success++
	case ci.Failure, ci.Aborted:
		wc.Failure++
	case ci.Unstable:
		wc.Unstable++
	}

	// Bug filing from the build's signatures (slide 11: the framework is
	// the bug reporter of record; dedup keeps nightly re-detections from
	// opening duplicate tickets).
	family := b.Job
	if i := strings.IndexByte(family, '/'); i > 0 {
		family = family[:i]
	}
	target := b.Job
	if b.Cell != nil {
		target = b.Cell["cluster"]
	}
	for _, sig := range b.BugSignatures {
		// Render the operator-facing title only when the signature is new —
		// nightly re-detections of a known bug skip the formatting.
		var title string
		if f.Bugs.BySignature(sig) == nil {
			title = titleForSignature(sig)
		}
		f.Bugs.File(sig, title, family, target)
		// The framework quarantines hardware that eats deployments, like
		// kadeploy suspecting nodes on a real testbed.
		if node, ok := strings.CutPrefix(sig, "random-reboots:"); ok {
			f.OAR.SetNodeState(node, testbed.Suspected) //nolint:errcheck
		}
	}
}

// titleForSignature renders an operator-friendly bug title.
func titleForSignature(sig string) string {
	kind, rest, _ := strings.Cut(sig, ":")
	return fmt.Sprintf("%s: %s", strings.ReplaceAll(kind, "-", " "), rest)
}

// ---- fault process --------------------------------------------------------

func (f *Framework) startFaultProcess() {
	for i := 0; i < f.Cfg.InitialFaults; i++ {
		f.Faults.InjectRandom()
	}
	if f.Cfg.FaultMeanInterval > 0 {
		f.arrivals(f.Cfg.FaultMeanInterval, func() { f.Faults.InjectRandom() })
	}
}

// arrivals runs fn at exponentially distributed gaps of the given mean.
func (f *Framework) arrivals(mean simclock.Time, fn func()) {
	var arrive func(any)
	arrive = func(any) {
		fn()
		f.Clock.Schedule(simclock.Exponential(f.Clock.Rand(), mean), arrive, nil)
	}
	f.Clock.Schedule(simclock.Exponential(f.Clock.Rand(), mean), arrive, nil)
}

// ---- operator model --------------------------------------------------------

func (f *Framework) startOperatorProcess() {
	if f.Cfg.OperatorInterval <= 0 {
		return
	}
	f.Clock.Every(f.Cfg.OperatorInterval, f.operatorPass)
}

// operatorPass fixes up to FixesPerPass of the oldest sufficiently aged
// open bugs: resolve the root cause (remove the fault / heal the node),
// then close the ticket. Candidates are collected first (into a reused
// buffer, walking the tracker's open index without copying it), because
// fixing mutates the index mid-walk.
func (f *Framework) operatorPass() {
	if f.Cfg.FixesPerPass <= 0 {
		return
	}
	now := f.Clock.Now()
	todo := f.fixScratch[:0]
	f.Bugs.EachOpen(func(b *bugs.Bug) bool {
		if now-b.FiledAt >= f.Cfg.OperatorMinAge {
			todo = append(todo, b)
		}
		return len(todo) < f.Cfg.FixesPerPass
	})
	f.fixScratch = todo[:0]
	for _, b := range todo {
		f.resolveRootCause(b.Signature)
		f.Bugs.Fix(b.ID) //nolint:errcheck // open by construction
	}
}

// resolveRootCause undoes whatever the bug signature points at. Signatures
// produced by the test suites share the fault injector's namespace, so the
// common case is a direct lookup.
func (f *Framework) resolveRootCause(sig string) {
	f.Faults.FixBySignature(sig)

	switch {
	case strings.HasPrefix(sig, "oarstate-degraded:"):
		site := strings.TrimPrefix(sig, "oarstate-degraded:")
		if s := f.TB.Site(site); s != nil {
			for _, n := range s.Nodes() {
				if n.State != testbed.Alive {
					f.OAR.SetNodeState(n.Name, testbed.Alive) //nolint:errcheck
				}
			}
		}
	default:
		// Node-scoped signatures: return the node to production after the
		// repair (operators re-run oarnodesetting).
		if _, rest, ok := strings.Cut(sig, ":"); ok {
			for _, node := range strings.Split(rest, "+") {
				if f.TB.Node(node) != nil {
					f.OAR.SetNodeState(node, testbed.Alive) //nolint:errcheck
				}
			}
		}
	}
}

// ---- user workload ---------------------------------------------------------

func (f *Framework) startUserLoad() {
	if f.Cfg.UserJobInterval <= 0 {
		return
	}
	// Every request the load can draw, built once: userReqs[i][n] asks for
	// n nodes of cluster i, userReqs[i][0] for all of them. A draw copies one
	// and sets its walltime; the segments are shared and never written.
	maxN := f.Cfg.UserMaxNodes
	if maxN <= 0 {
		maxN = 10
	}
	clusters := f.TB.Clusters()
	f.userReqs = make([][]oar.Request, len(clusters))
	for i, cl := range clusters {
		all := oar.ClusterRequest(cl.Name, oar.AllNodes, 0).Segments[0]
		segs := make([]oar.Segment, min(maxN, len(cl.Nodes))+1)
		f.userReqs[i] = make([]oar.Request, len(segs))
		for n := range segs {
			segs[n] = all
			if n > 0 {
				segs[n].Nodes = n
			}
			f.userReqs[i][n].Segments = segs[n : n+1 : n+1]
		}
	}
	f.arrivals(f.Cfg.UserJobInterval, f.submitUserJob)
}

func (f *Framework) submitUserJob() {
	rng := f.Clock.Rand()
	reqs := simclock.Pick(rng, f.userReqs)
	wall := simclock.Exponential(rng, f.Cfg.UserMeanWalltime)
	if wall < 10*simclock.Minute {
		wall = 10 * simclock.Minute
	}
	n := 0 // the whole cluster
	if !simclock.Bernoulli(rng, f.Cfg.WholeClusterFrac) {
		n = 1 + rng.Intn(len(reqs)-1)
	}
	req := reqs[n]
	req.Walltime = (wall/simclock.Hour + 1) * simclock.Hour
	j := f.OAR.SubmitReq(req, oar.SubmitOptions{User: "user"})
	// Users abandon jobs stuck in the queue for a day, so unsatisfiable
	// whole-cluster requests (e.g. a suspected node) don't clog the queue
	// forever.
	f.Clock.Schedule(simclock.Day, f.abandon, j)
}

// abandonQueued withdraws a user job (the argument) that is still waiting.
func (f *Framework) abandonQueued(job any) {
	if j := job.(*oar.Job); j.State == oar.Waiting {
		f.OAR.Cancel(j.ID) //nolint:errcheck
	}
}

// ---- environments matrix cron ----------------------------------------------

func (f *Framework) startEnvMatrixCron() {
	if f.Cfg.EnvMatrixPeriod <= 0 {
		return
	}
	fire := func() {
		if b, err := f.CI.Trigger("environments", "cron"); err == nil {
			f.envRetries[b.Number] = 0
		}
	}
	// First full run shortly after start, then periodically.
	f.Clock.After(simclock.Hour, fire)
	f.Clock.Every(f.Cfg.EnvMatrixPeriod, fire)
}

// maybeRetryEnvMatrix implements the Matrix Reloaded flow: when an
// environments parent completes with non-success cells, retry only those
// cells a couple of hours later, a bounded number of times.
func (f *Framework) maybeRetryEnvMatrix(parent *ci.Build) {
	if parent.Job != "environments" || !parent.Completed() {
		return
	}
	gen, tracked := f.envRetries[parent.Number]
	if !tracked {
		return
	}
	delete(f.envRetries, parent.Number)
	if parent.Result == ci.Success || gen >= f.Cfg.EnvMatrixRetries {
		return
	}
	parentNum := parent.Number
	f.Clock.After(2*simclock.Hour, func() {
		b, err := f.CI.RetryFailedCells("environments", parentNum, "matrix-reloaded")
		if err == nil {
			f.envRetries[b.Number] = gen + 1
		}
	})
}

// ---- reporting ---------------------------------------------------------------

// WeeklyReport returns per-week build statistics in week order. The
// counters are already aggregated (onBuildComplete updates them in place),
// so this is a straight copy — weeks in which nothing completed are
// skipped, matching the sparse report of the previous implementation.
func (f *Framework) WeeklyReport() []WeekCounts {
	out := make([]WeekCounts, 0, len(f.weekly))
	for _, w := range f.weekly {
		if w.Success == 0 && w.Failure == 0 && w.Unstable == 0 {
			continue
		}
		out = append(out, w)
	}
	return out
}

// CampaignSummary condenses a whole run.
type CampaignSummary struct {
	Duration     simclock.Time
	Builds       int
	BugsFiled    int
	BugsFixed    int
	BugsOpen     int
	ActiveFaults int
	FirstWeek    WeekCounts
	LastWeek     WeekCounts
}

func (s CampaignSummary) String() string {
	return fmt.Sprintf(
		"after %v: %d builds, %d bugs filed (inc. %d already fixed), success %0.f%% → %0.f%%",
		s.Duration, s.Builds, s.BugsFiled, s.BugsFixed,
		100*s.FirstWeek.Rate(), 100*s.LastWeek.Rate())
}

// TrendWeeks selects the first and last weeks with meaningful build volume
// (≥ 20 verdicts) from a weekly report — the endpoints of the paper's
// slide-23 trend. Exported because federated campaigns re-apply the same
// rule to a cross-site merged report (internal/federation).
func TrendWeeks(weekly []WeekCounts) (first, last WeekCounts) {
	for _, w := range weekly {
		if w.Total() >= 20 {
			first = w
			break
		}
	}
	for i := len(weekly) - 1; i >= 0; i-- {
		if weekly[i].Total() >= 20 {
			last = weekly[i]
			break
		}
	}
	return first, last
}

// Summary reports the campaign state so far.
func (f *Framework) Summary() CampaignSummary {
	st := f.Bugs.Stats()
	out := CampaignSummary{
		Duration:     f.Clock.Now(),
		Builds:       f.CI.TotalBuilds(),
		BugsFiled:    st.Filed,
		BugsFixed:    st.Fixed,
		BugsOpen:     st.Open,
		ActiveFaults: f.Faults.ActiveCount(),
	}
	out.FirstWeek, out.LastWeek = TrendWeeks(f.WeeklyReport())
	return out
}
