package federation

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// subSpec narrows the default specification to a few sites, keeping tests
// fast while still exercising multi-shard behaviour.
func subSpec(sites ...string) []testbed.ClusterSpec {
	want := map[string]bool{}
	for _, s := range sites {
		want[s] = true
	}
	var out []testbed.ClusterSpec
	for _, cs := range testbed.DefaultSpec {
		if want[cs.Site] {
			out = append(out, cs)
		}
	}
	return out
}

func TestShardLayout(t *testing.T) {
	fed := New(Config{Seed: 1})
	if got := len(fed.Shards()); got != 32 {
		t.Fatalf("default federation has %d micro-shards, want 32 (one per cluster)", got)
	}
	if got, want := fed.Sites(), []string{"grenoble", "lille", "luxembourg", "lyon", "nancy", "nantes", "rennes", "sophia"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("default federation's sites = %v, want %v (first-appearance order)", got, want)
	}
	seeds := map[int64]string{}
	for _, sh := range fed.Shards() {
		st := sh.F.TB.Stats()
		if st.Sites != 1 || st.Clusters != 1 {
			t.Fatalf("micro-shard %s/%s spans %d sites, %d clusters", sh.Site, sh.Cluster, st.Sites, st.Clusters)
		}
		if names := sh.F.TB.SiteNames(); len(names) != 1 || names[0] != sh.Site {
			t.Fatalf("micro-shard %s/%s testbed claims sites %v", sh.Site, sh.Cluster, names)
		}
		if prev, dup := seeds[sh.Seed]; dup {
			t.Fatalf("micro-shards %q and %s/%s derived the same seed %d", prev, sh.Site, sh.Cluster, sh.Seed)
		}
		seeds[sh.Seed] = sh.Site + "/" + sh.Cluster
		if sh.Seed != ShardSeed(1, sh.Site, sh.Cluster) {
			t.Fatalf("micro-shard %s/%s seed %d is not ShardSeed(1, site, cluster)", sh.Site, sh.Cluster, sh.Seed)
		}
		if st.Nodes != sh.Nodes {
			t.Fatalf("micro-shard %s/%s cost label %d, testbed has %d nodes", sh.Site, sh.Cluster, sh.Nodes, st.Nodes)
		}
	}
	// The micro-shard union covers the whole paper-scale testbed.
	var nodes, cores int
	for _, sh := range fed.Shards() {
		st := sh.F.TB.Stats()
		nodes += st.Nodes
		cores += st.Cores
	}
	if nodes != 894 || cores != 8490 {
		t.Fatalf("micro-shard union = %d nodes, %d cores; want 894, 8490", nodes, cores)
	}
	if fed.Shard("nancy") == nil || fed.Shard("atlantis") != nil {
		t.Fatal("Shard lookup broken")
	}
	// Shard returns the site's coordinator: its first cluster in spec order.
	if sh := fed.Shard("nancy"); sh.Cluster != "graphene" {
		t.Fatalf("nancy coordinator cluster = %q, want graphene", sh.Cluster)
	}
	if got := len(fed.SiteShards("nancy")); got != 7 {
		t.Fatalf("nancy has %d micro-shards, want 7", got)
	}
	if fed.SiteShards("atlantis") != nil {
		t.Fatal("SiteShards invented an unknown site")
	}
}

func TestShardSeedIsPure(t *testing.T) {
	if ShardSeed(42, "nancy", "graphene") != ShardSeed(42, "nancy", "graphene") {
		t.Fatal("ShardSeed not deterministic")
	}
	if ShardSeed(42, "nancy", "graphene") == ShardSeed(42, "lyon", "graphene") {
		t.Fatal("ShardSeed does not separate sites")
	}
	if ShardSeed(42, "nancy", "graphene") == ShardSeed(42, "nancy", "graoully") {
		t.Fatal("ShardSeed does not separate clusters")
	}
	if ShardSeed(42, "nancy", "graphene") == ShardSeed(43, "nancy", "graphene") {
		t.Fatal("ShardSeed does not separate campaign seeds")
	}
	// The site/cluster boundary is unambiguous: shifting bytes across it
	// must change the stream.
	if ShardSeed(42, "a", "b") == ShardSeed(42, "ab", "") {
		t.Fatal("ShardSeed aliases across the site/cluster boundary")
	}
}

// runFederated simulates a federated campaign at the given worker count
// and returns its outcome.
func runFederated(t *testing.T, workers int) campaignOutcome {
	t.Helper()
	fed := New(Config{
		Seed:    77,
		Spec:    subSpec("luxembourg", "nantes", "lyon", "sophia"),
		Workers: workers,
		Configure: func(site string, seed int64) core.Config {
			cfg := core.DefaultConfig()
			cfg.InitialFaults = 10
			return cfg
		},
	})
	fed.Start()
	fed.Advance(2 * simclock.Week)
	if fed.Now() != 2*simclock.Week {
		t.Fatalf("federated clock = %v, want 2 weeks", fed.Now())
	}
	for _, sh := range fed.Shards() {
		if sh.F.Clock.Now() != 2*simclock.Week {
			t.Fatalf("shard %q clock = %v, out of lockstep", sh.Site, sh.F.Clock.Now())
		}
	}
	return campaignOutcome{fed.Summary(), fed.WeeklyReport()}
}

var updateSummaryGolden = flag.Bool("update-summary-golden", false,
	"re-record testdata/summary_golden.json from the serial run (only when the campaign itself is meant to change)")

const summaryGoldenFile = "testdata/summary_golden.json"

// campaignOutcome is what the determinism gate compares: the per-site and
// merged summaries plus the merged weekly report.
type campaignOutcome struct {
	Summary Summary
	Weekly  []core.WeekCounts
}

// summaryGolden returns the recorded outcome of runFederated, re-recording
// it from the given serial outcome first under -update-summary-golden.
func summaryGolden(t *testing.T, serial campaignOutcome) campaignOutcome {
	t.Helper()
	if *updateSummaryGolden {
		body, err := json.MarshalIndent(serial, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(summaryGoldenFile, append(body, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	body, err := os.ReadFile(summaryGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var golden campaignOutcome
	if err := json.Unmarshal(body, &golden); err != nil {
		t.Fatalf("%s: %v", summaryGoldenFile, err)
	}
	return golden
}

// TestFederationSerialParallelDeterminism is the load-bearing property of
// the whole layer: stepping the micro-shards serially or across 4
// work-stealing workers must produce bit-identical campaign summaries, per
// site and merged — the ones recorded in testdata/summary_golden.json,
// which the whole-site-per-worker schedule also produced before it was
// deleted (the recording was made, and held equal to all three, at the
// commit before). CI also runs this under -race (make race).
func TestFederationSerialParallelDeterminism(t *testing.T) {
	serial := runFederated(t, 1)
	golden := summaryGolden(t, serial)

	for _, alt := range []struct {
		name string
		got  campaignOutcome
	}{{"serial", serial}, {"work-stealing", runFederated(t, 4)}} {
		got := alt.got
		// Name the first site that moved before printing everything.
		for i := range golden.Summary.Sites {
			if i < len(got.Summary.Sites) && golden.Summary.Sites[i] != got.Summary.Sites[i] {
				t.Fatalf("site %s diverged between the recorded campaign and %s stepping:\nrecorded: %+v\n%s: %+v",
					golden.Summary.Sites[i].Site, alt.name, golden.Summary.Sites[i].Summary, alt.name, got.Summary.Sites[i].Summary)
			}
		}
		if !reflect.DeepEqual(golden, got) {
			t.Fatalf("outcomes diverged:\nrecorded: %+v\n%s: %+v", golden, alt.name, got)
		}
	}
	// Sanity: the campaign actually did something on every site.
	if serial.Summary.Merged.Builds == 0 {
		t.Fatal("federated campaign completed no builds")
	}
	for _, s := range serial.Summary.Sites {
		if s.Summary.Builds == 0 {
			t.Fatalf("site %s completed no builds", s.Site)
		}
	}
}

// TestFederationScaledWorkStealingDeterminism holds the same property at
// twice the paper grid (testbed.ScaledSpec(2): 64 micro-shards, eight per
// worker) under 8 work-stealing workers: which worker pulls which shard
// must not move a single RNG draw. Two 64-shard campaign weeks, so skipped
// under -short.
func TestFederationScaledWorkStealingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two 64-shard campaign weeks")
	}
	run := func(workers int) campaignOutcome {
		fed := New(Config{
			Seed: 21, Workers: workers, Spec: testbed.ScaledSpec(2),
			Configure: func(site string, seed int64) core.Config {
				cfg := core.DefaultConfig()
				cfg.InitialFaults = 4
				cfg.EnvMatrixPeriod = 0
				return cfg
			},
		})
		fed.Start()
		fed.Advance(simclock.Week)
		return campaignOutcome{fed.Summary(), fed.WeeklyReport()}
	}
	serial, stolen := run(1), run(8)
	for i, s := range serial.Summary.Sites {
		if s != stolen.Summary.Sites[i] {
			t.Fatalf("site %s diverged between serial and work-stealing stepping:\nserial:     %+v\nwork-steal: %+v",
				s.Site, s.Summary, stolen.Summary.Sites[i].Summary)
		}
	}
	if !reflect.DeepEqual(serial, stolen) {
		t.Fatalf("outcomes diverged:\nserial:     %+v\nwork-steal: %+v", serial, stolen)
	}
	if m := serial.Summary.Merged; m.Builds == 0 || m.BugsFiled == 0 {
		t.Fatalf("2x campaign shape off: %+v", m)
	}
}

func TestMergeWeekly(t *testing.T) {
	a := []core.WeekCounts{{Week: 0, Success: 10, Failure: 2}, {Week: 2, Success: 5, Unstable: 1}}
	b := []core.WeekCounts{{Week: 0, Success: 3, Failure: 1}, {Week: 1, Success: 7}}
	got := MergeWeekly(a, b)
	want := []core.WeekCounts{
		{Week: 0, Success: 13, Failure: 3},
		{Week: 1, Success: 7},
		{Week: 2, Success: 5, Unstable: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeWeekly = %+v, want %+v", got, want)
	}
	if out := MergeWeekly(); len(out) != 0 {
		t.Fatalf("MergeWeekly() = %+v, want empty", out)
	}
}
