package checks

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/refapi"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func setup() (*simclock.Clock, *testbed.Testbed, *faults.Injector, *Checker) {
	c := simclock.New(31)
	tb := testbed.Default()
	ref := refapi.NewStore(tb, c.Now())
	inj := faults.NewInjector(c, tb)
	return c, tb, inj, NewChecker(c, tb, ref)
}

func TestHealthyNodePasses(t *testing.T) {
	_, _, _, ch := setup()
	r, err := ch.CheckNode("griffon-42.nancy")
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatalf("healthy node failed check: %v", r.Mismatches)
	}
	if r.Summary() != "griffon-42.nancy: OK" {
		t.Fatalf("summary = %q", r.Summary())
	}
}

func TestFaultedNodeFails(t *testing.T) {
	_, _, inj, ch := setup()
	node := "suno-7.sophia"
	inj.InjectNode(faults.DiskFirmwareDrift, node)
	inj.InjectNode(faults.CStatesOn, node)
	r, err := ch.CheckNode(node)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK {
		t.Fatal("drifted node passed check")
	}
	if len(r.Mismatches) != 2 {
		t.Fatalf("mismatches = %v", r.Mismatches)
	}
	if !strings.Contains(r.Summary(), "2 mismatch(es)") {
		t.Fatalf("summary = %q", r.Summary())
	}
}

func TestBehaviouralFaultInvisibleToChecks(t *testing.T) {
	_, _, inj, ch := setup()
	node := "suno-8.sophia"
	inj.InjectNode(faults.DiskDying, node)
	inj.InjectNode(faults.RandomReboots, node)
	r, _ := ch.CheckNode(node)
	if !r.OK {
		t.Fatalf("behavioural faults visible in description diff: %v", r.Mismatches)
	}
}

func TestCheckAfterFixPasses(t *testing.T) {
	_, _, inj, ch := setup()
	node := "edel-9.grenoble"
	f, _ := inj.InjectNode(faults.RAMLoss, node)
	if r, _ := ch.CheckNode(node); r.OK {
		t.Fatal("RAM loss not detected")
	}
	inj.Fix(f.ID)
	if r, _ := ch.CheckNode(node); !r.OK {
		t.Fatal("node still failing after fix")
	}
}

func TestCheckUnknownNode(t *testing.T) {
	_, _, _, ch := setup()
	if _, err := ch.CheckNode("ghost-1.limbo"); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestCheckCluster(t *testing.T) {
	_, tb, inj, ch := setup()
	inj.InjectNode(faults.TurboFlip, "helios-3.sophia")
	inj.InjectNode(faults.WrongKernel, "helios-17.sophia")
	reports, failing, err := ch.CheckCluster("helios")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(tb.Cluster("helios").Nodes) {
		t.Fatalf("reports = %d", len(reports))
	}
	if len(failing) != 2 || failing[0] != "helios-17.sophia" || failing[1] != "helios-3.sophia" {
		t.Fatalf("failing = %v", failing)
	}
	if _, _, err := ch.CheckCluster("nimbus"); err == nil {
		t.Fatal("unknown cluster accepted")
	}
	if ch.Runs() != len(reports)+0 {
		t.Fatalf("runs = %d", ch.Runs())
	}
}

// CheckNodeInto must reuse the caller's report: sweeping clean nodes with
// one report performs zero allocations.
func TestCheckNodeIntoZeroAlloc(t *testing.T) {
	_, _, _, ch := setup()
	rep := &Report{}
	if err := ch.CheckNodeInto("taurus-1.lyon", rep); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ch.CheckNodeInto("taurus-1.lyon", rep); err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("healthy node failed: %v", rep.Mismatches)
		}
	})
	if allocs != 0 {
		t.Fatalf("clean-node check allocates %v times per run, want 0", allocs)
	}
}

// CheckNodeInto truncates stale mismatches from a reused report.
func TestCheckNodeIntoReusedReportResets(t *testing.T) {
	_, _, inj, ch := setup()
	inj.InjectNode(faults.RAMLoss, "sol-2.sophia")
	rep := &Report{}
	if err := ch.CheckNodeInto("sol-2.sophia", rep); err != nil {
		t.Fatal(err)
	}
	if rep.OK || len(rep.Mismatches) != 1 {
		t.Fatalf("rep = %+v", rep)
	}
	if err := ch.CheckNodeInto("sol-3.sophia", rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK || len(rep.Mismatches) != 0 || rep.Node != "sol-3.sophia" {
		t.Fatalf("reused report kept stale state: %+v", rep)
	}
}

// CheckClusterInto must produce exactly CheckCluster's answer, over a new
// slab and over one handed back in.
func TestCheckClusterIntoMatchesCheckCluster(t *testing.T) {
	_, _, inj, ch := setup()
	inj.InjectNode(faults.TurboFlip, "helios-3.sophia")
	inj.InjectNode(faults.WrongKernel, "helios-17.sophia")
	want, _, err := ch.CheckCluster("helios")
	if err != nil {
		t.Fatal(err)
	}
	var buf []Report
	for round := 0; round < 2; round++ {
		if buf, err = ch.CheckClusterInto("helios", buf); err != nil {
			t.Fatal(err)
		}
		if len(buf) != len(want) {
			t.Fatalf("round %d: %d reports, want %d", round, len(buf), len(want))
		}
		for i := range buf {
			if buf[i].Node != want[i].Node || buf[i].OK != want[i].OK || len(buf[i].Mismatches) != len(want[i].Mismatches) {
				t.Fatalf("round %d: report %d = %+v, want %+v", round, i, buf[i], *want[i])
			}
		}
	}
	if _, err := ch.CheckClusterInto("nimbus", buf); err == nil {
		t.Fatal("unknown cluster accepted")
	}
}

// TestCheckClusterIntoReportsInNameOrder: a cluster sweep reports in node
// name order, where "-10" comes before "-2", not in the cluster's index
// order, over two sweeps sharing one slab with a fault added between them.
func TestCheckClusterIntoReportsInNameOrder(t *testing.T) {
	_, tb, inj, ch := setup()
	const cluster = "helios"
	if n := len(tb.Cluster(cluster).Nodes); n < 10 {
		t.Fatalf("%s has %d nodes; the test needs at least 10", cluster, n)
	}
	var buf []Report
	for round, faulty := range []string{"", "helios-10.sophia"} {
		if faulty != "" {
			inj.InjectNode(faults.WrongKernel, faulty)
		}
		var err error
		if buf, err = ch.CheckClusterInto(cluster, buf); err != nil {
			t.Fatal(err)
		}
		if len(buf) != len(tb.Cluster(cluster).Nodes) {
			t.Fatalf("round %d: %d reports", round, len(buf))
		}
		if buf[0].Node != "helios-1.sophia" || buf[1].Node != "helios-10.sophia" {
			t.Fatalf("round %d: the sweep starts %s, %s; want helios-1, helios-10", round, buf[0].Node, buf[1].Node)
		}
		for i := 1; i < len(buf); i++ {
			if buf[i-1].Node >= buf[i].Node {
				t.Fatalf("round %d: reports out of node-name order at %d: %s, %s", round, i, buf[i-1].Node, buf[i].Node)
			}
		}
		for _, r := range buf {
			if r.OK != (r.Node != faulty) {
				t.Fatalf("round %d: %s OK = %v with %q faulty", round, r.Node, r.OK, faulty)
			}
		}
	}
}

// With a per-check simulated cost, a k-worker sweep's makespan shrinks by
// ~k: the workers' event chains genuinely overlap in simulated time.
func TestParallelSweepOverlapsSimulatedTime(t *testing.T) {
	makespan := func(workers int) simclock.Time {
		clock, _, _, ch := setup()
		var reports []Report
		var err error
		calls := 0
		ch.CheckTestbedParallel(workers, 30*simclock.Second, func(r []Report, e error) {
			reports, err, calls = r, e, calls+1
		})
		clock.Run()
		if err != nil || calls != 1 {
			t.Fatalf("done called %d times, error %v", calls, err)
		}
		if len(reports) != 894 {
			t.Fatalf("swept %d nodes, want 894", len(reports))
		}
		for i := 1; i < len(reports); i++ {
			if reports[i-1].Node >= reports[i].Node {
				t.Fatalf("reports out of node-name order at %d: %s, %s", i, reports[i-1].Node, reports[i].Node)
			}
		}
		return clock.Now()
	}
	m1, m4 := makespan(1), makespan(4)
	if m1 != 894*30*simclock.Second {
		t.Fatalf("1-worker makespan = %v", m1)
	}
	// 894 nodes over 4 strided workers: largest shard is 224 checks.
	if m4 != 224*30*simclock.Second {
		t.Fatalf("4-worker makespan = %v, want %v", m4, 224*30*simclock.Second)
	}
}

func TestHomogeneityReport(t *testing.T) {
	_, _, inj, ch := setup()
	inj.InjectNode(faults.DiskFirmwareDrift, "paradent-5.rennes")
	byValue, err := ch.HomogeneityReport("paradent", func(inv testbed.Inventory) string {
		return inv.Disks[0].Firmware
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(byValue) != 2 {
		t.Fatalf("distinct firmware values = %d, want 2", len(byValue))
	}
	if nodes := byValue["GM3OA52A-alt"]; len(nodes) != 1 || nodes[0] != "paradent-5.rennes" {
		t.Fatalf("drifted set = %v", nodes)
	}
	if _, err := ch.HomogeneityReport("nimbus", nil); err == nil {
		t.Fatal("unknown cluster accepted")
	}
}

func TestHomogeneityCleanCluster(t *testing.T) {
	_, _, _, ch := setup()
	byValue, _ := ch.HomogeneityReport("taurus", func(inv testbed.Inventory) string {
		return inv.BIOS.Version
	})
	if len(byValue) != 1 {
		t.Fatalf("clean cluster has %d BIOS versions", len(byValue))
	}
}

// raceDetector is set by race_test.go; allocation guards skip under it.
var raceDetector bool

// TestSweepAllocationsDoNotGrowWithTheCluster: a sweep handed its last
// result back allocates nothing whatever the number of nodes — no report,
// no slab — and returns what CheckCluster does.
func TestSweepAllocationsDoNotGrowWithTheCluster(t *testing.T) {
	if raceDetector {
		t.Skip("allocation guards run without the race detector")
	}
	_, tb, inj, ch := setup()
	inj.InjectNode(faults.TurboFlip, "griffon-3.nancy")
	perSweep := func(cluster string) float64 {
		var buf []Report
		sweep := func() {
			var err error
			if buf, err = ch.CheckClusterInto(cluster, buf); err != nil {
				t.Error(err)
			}
		}
		sweep()
		allocs := testing.AllocsPerRun(50, sweep)
		want, _, _ := ch.CheckCluster(cluster)
		if len(buf) != len(tb.Cluster(cluster).Nodes) || len(want) != len(buf) {
			t.Fatalf("%s: %d reports in the slab, %d from CheckCluster", cluster, len(buf), len(want))
		}
		for i := range buf {
			if buf[i].Node != want[i].Node || buf[i].OK != want[i].OK || len(buf[i].Mismatches) != len(want[i].Mismatches) {
				t.Fatalf("%s: report %d = %+v, want %+v", cluster, i, buf[i], *want[i])
			}
		}
		return allocs
	}
	small, large := perSweep("chirloute"), perSweep("griffon")
	if ns, nl := len(tb.Cluster("chirloute").Nodes), len(tb.Cluster("griffon").Nodes); nl < 10*ns {
		t.Fatalf("clusters of %d and %d nodes do not tell O(1) from O(n)", ns, nl)
	}
	if small != 0 || large != 0 {
		t.Errorf("a sweep allocates %v times on the small cluster and %v on the large one; want none", small, large)
	}
}
