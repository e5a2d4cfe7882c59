package checks

import (
	"strings"
	"sync"
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

func TestAcquireDoesNotAlias(t *testing.T) {
	_, tb, _, ch := setup()
	inv, err := ch.Acquire("sol-1.sophia")
	if err != nil {
		t.Fatal(err)
	}
	inv.Disks[0].Firmware = "HACKED"
	if tb.Node("sol-1.sophia").Inv.Disks[0].Firmware == "HACKED" {
		t.Fatal("Acquire aliases live state")
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

// The runs counter must be safe under real concurrency: checkers are
// reachable from CI executor goroutines. Run with -race.
func TestRunsCounterConcurrent(t *testing.T) {
	_, tb, _, ch := setup()
	nodes := tb.Cluster("griffon").Nodes
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := ch.CheckNode(nodes[(g*perG+i)%len(nodes)].Name); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := ch.Runs(); got != goroutines*perG {
		t.Fatalf("runs = %d, want %d", got, goroutines*perG)
	}
}

// CheckClusterParallel must produce exactly CheckCluster's answer, for any
// worker count, from a simulation goroutine.
func TestCheckClusterParallelMatchesSequential(t *testing.T) {
	clock, _, inj, ch := setup()
	inj.InjectNode(faults.TurboFlip, "helios-3.sophia")
	inj.InjectNode(faults.WrongKernel, "helios-17.sophia")
	seqReports, seqFailing, err := ch.CheckCluster("helios")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 4, 100} {
		var reports []*Report
		var failing []string
		var perr error
		clock.Go(func() { reports, failing, perr = ch.CheckClusterParallel("helios", workers) })
		clock.Run()
		if perr != nil {
			t.Fatal(perr)
		}
		if len(reports) != len(seqReports) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(reports), len(seqReports))
		}
		for i := range reports {
			if reports[i].Node != seqReports[i].Node || reports[i].OK != seqReports[i].OK {
				t.Fatalf("workers=%d: report %d = %+v, want %+v", workers, i, reports[i], seqReports[i])
			}
		}
		if len(failing) != len(seqFailing) || failing[0] != seqFailing[0] || failing[1] != seqFailing[1] {
			t.Fatalf("workers=%d: failing = %v, want %v", workers, failing, seqFailing)
		}
	}
	if _, _, err := ch.CheckCluster("nimbus"); err == nil {
		t.Fatal("unknown cluster accepted")
	}
	var perr error
	clock.Go(func() { _, _, perr = ch.CheckClusterParallel("nimbus", 2) })
	clock.Run()
	if perr == nil {
		t.Fatal("parallel sweep accepted unknown cluster")
	}
}

// With a per-check simulated cost, a k-worker sweep's makespan shrinks by
// ~k: the workers genuinely overlap in simulated time.
func TestParallelSweepOverlapsSimulatedTime(t *testing.T) {
	makespan := func(workers int) simclock.Time {
		clock, _, _, ch := setup()
		ch.CheckCost = 30 * simclock.Second
		var reports []*Report
		var err error
		clock.Go(func() { reports, _, err = ch.CheckTestbedParallel(workers) })
		clock.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 894 {
			t.Fatalf("swept %d nodes, want 894", len(reports))
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
// result back allocates a fixed handful of objects (the latch, the workers'
// function and error slots) whatever the number of nodes — no report, no
// wake channel, no goroutine — and returns what CheckClusterParallel does.
func TestSweepAllocationsDoNotGrowWithTheCluster(t *testing.T) {
	if raceDetector {
		t.Skip("allocation guards run without the race detector")
	}
	clock, tb, inj, ch := setup()
	inj.InjectNode(faults.TurboFlip, "griffon-3.nancy")
	perSweep := func(cluster string) float64 {
		var buf []Report
		sweep := func() {
			clock.Go(func() {
				var err error
				if buf, err = ch.CheckClusterParallelInto(cluster, 4, buf); err != nil {
					t.Error(err)
				}
			})
			clock.Run()
		}
		sweep()
		allocs := testing.AllocsPerRun(50, sweep)
		var want []*Report
		clock.Go(func() { want, _, _ = ch.CheckClusterParallel(cluster, 4) })
		clock.Run()
		if len(buf) != len(tb.Cluster(cluster).Nodes) || len(want) != len(buf) {
			t.Fatalf("%s: %d reports in the slab, %d from CheckClusterParallel", cluster, len(buf), len(want))
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
	if small != large || large > 8 {
		t.Errorf("a sweep allocates %v times on the small cluster and %v on the large one; want the same handful", small, large)
	}
}
