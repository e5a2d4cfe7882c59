package kadeploy

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func setup(seed int64) (*simclock.Clock, *testbed.Testbed, *faults.Injector, *Deployer) {
	c := simclock.New(seed)
	tb := testbed.Default()
	inj := faults.NewInjector(c, tb)
	return c, tb, inj, NewDeployer(c, inj)
}

func TestRegistryHas14Environments(t *testing.T) {
	if len(Registry) != 14 {
		t.Fatalf("registry has %d environments, want 14 (paper's matrix axis)", len(Registry))
	}
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.Name] {
			t.Fatalf("duplicate environment %s", e.Name)
		}
		seen[e.Name] = true
		if e.SizeMB <= 0 || e.Kernel == "" {
			t.Fatalf("degenerate environment %+v", e)
		}
	}
}

func TestEnvByName(t *testing.T) {
	e, err := EnvByName("jessie-x64-std")
	if err != nil {
		t.Fatal(err)
	}
	if e.SizeMB != 1500 {
		t.Fatalf("size = %d", e.SizeMB)
	}
	if _, err := EnvByName("windows-311"); err == nil {
		t.Fatal("unknown env accepted")
	}
}

func TestDeploy200NodesInAbout5Minutes(t *testing.T) {
	_, tb, _, d := setup(1)
	// 200 nodes across several nancy clusters (same site).
	var nodes []*testbed.Node
	for _, cl := range []string{"griffon", "graphene", "graoully", "grisou"} {
		nodes = append(nodes, tb.Cluster(cl).Nodes...)
	}
	nodes = nodes[:200]
	res, err := d.Deploy(nodes, StdEnv)
	if err != nil {
		t.Fatal(err)
	}
	mins := res.Duration.Duration().Minutes()
	if mins < 3.5 || mins > 6.5 {
		t.Fatalf("200-node deployment took %.1f min, want ≈5", mins)
	}
	if res.OK < 190 {
		t.Fatalf("only %d/200 deployed on a healthy testbed", res.OK)
	}
	if res.OK+res.Failed != 200 {
		t.Fatalf("OK+Failed = %d", res.OK+res.Failed)
	}
}

func TestDeployEmptyAndCrossSiteRejected(t *testing.T) {
	_, tb, _, d := setup(2)
	if _, err := d.Deploy(nil, StdEnv); err == nil {
		t.Fatal("empty deploy accepted")
	}
	mixed := []*testbed.Node{tb.Node("sol-1.sophia"), tb.Node("taurus-1.lyon")}
	if _, err := d.Deploy(mixed, StdEnv); err == nil {
		t.Fatal("cross-site deploy accepted")
	}
}

func TestDeployIncrementsBootCount(t *testing.T) {
	_, tb, _, d := setup(3)
	n := tb.Node("graphite-1.nancy")
	before := n.BootCount
	res, err := d.Deploy([]*testbed.Node{n}, StdEnv)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 1 && n.BootCount != before+2 {
		t.Fatalf("boot count = %d, want +2", n.BootCount)
	}
}

func TestBootDelayFaultSlowsDeployment(t *testing.T) {
	_, tb, inj, d := setup(4)
	n := tb.Node("uvb-1.sophia")
	res, err := d.Deploy([]*testbed.Node{n}, StdEnv)
	if err != nil || res.OK != 1 {
		t.Fatalf("healthy deploy failed: %v %+v", err, res)
	}
	base := *res // the deployer's next Deploy overwrites its Result
	inj.InjectNode(faults.BootDelay, n.Name)
	slow, err := d.Deploy([]*testbed.Node{n}, StdEnv)
	if err != nil || slow.OK != 1 {
		t.Fatalf("delayed deploy failed: %v", err)
	}
	// Two boots, 2.5 minutes extra each.
	if slow.Duration < base.Duration+4*simclock.Minute {
		t.Fatalf("boot-delay fault added only %v", slow.Duration-base.Duration)
	}
}

func TestDiskCacheFaultSlowsImageWrite(t *testing.T) {
	_, tb, inj, d := setup(5)
	n := tb.Node("econome-1.nantes")
	res, _ := d.Deploy([]*testbed.Node{n}, StdEnv)
	base := *res // the deployer's next Deploy overwrites its Result
	inj.InjectNode(faults.DiskCacheOff, n.Name)
	slow, _ := d.Deploy([]*testbed.Node{n}, StdEnv)
	if base.OK != 1 || slow.OK != 1 {
		t.Skip("random baseline failure hit; seed-dependent")
	}
	// Write time goes from 1500/55≈27s to 1500/(55*0.35)≈78s.
	if slow.Duration < base.Duration+30*simclock.Second {
		t.Fatalf("cache-off added only %v", slow.Duration-base.Duration)
	}
}

func TestRandomRebootsFaultFailsNodes(t *testing.T) {
	_, tb, inj, d := setup(6)
	cl := tb.Cluster("suno")
	for _, n := range cl.Nodes {
		inj.InjectNode(faults.RandomReboots, n.Name)
	}
	res, err := d.Deploy(cl.Nodes, StdEnv)
	if err != nil {
		t.Fatal(err)
	}
	// P(node survives two reboots) = 0.65² ≈ 0.42, so over 30 nodes some
	// failures are essentially certain.
	if res.Failed == 0 {
		t.Fatal("no failures despite random-reboot fault on every node")
	}
	for _, nr := range res.PerNode {
		if !nr.OK && !strings.Contains(nr.Reason, "reboot") {
			t.Fatalf("unexpected failure reason %q", nr.Reason)
		}
	}
	if got := len(res.FailedNodes()); got != res.Failed {
		t.Fatalf("FailedNodes() = %d, Failed = %d", got, res.Failed)
	}
}

func TestKadeployServiceFaultFailsWholeDeployment(t *testing.T) {
	_, tb, inj, d := setup(7)
	inj.InjectService("lyon", "kadeploy", 1.0)
	_, err := d.Deploy(tb.Cluster("taurus").Nodes, StdEnv)
	if err == nil {
		t.Fatal("deployment succeeded with dead kadeploy service")
	}
	// Other sites unaffected.
	if _, err := d.Deploy(tb.Cluster("sol").Nodes, StdEnv); err != nil {
		t.Fatalf("healthy site affected: %v", err)
	}
}

// hugeEnv is large enough that a node writing it with its disk cache off
// and its boots delayed outlives the deployment timeout, while a healthy
// node finishes well inside it.
var hugeEnv = Environment{Name: "huge", SizeMB: 9000, Kernel: testbed.StdKernel}

// slowDown makes a node a straggler on hugeEnv: +5 min across two boots,
// a third of the write throughput.
func slowDown(inj *faults.Injector, node string) {
	inj.InjectNode(faults.BootDelay, node)
	inj.InjectNode(faults.DiskCacheOff, node)
}

func TestStragglerDropped(t *testing.T) {
	_, tb, inj, d := setup(8)
	n := tb.Node("helios-1.sophia")
	slowDown(inj, n.Name)
	res, err := d.Deploy([]*testbed.Node{n, tb.Node("helios-2.sophia")}, hugeEnv)
	if err != nil {
		t.Fatal(err)
	}
	var straggler *NodeResult
	for i := range res.PerNode {
		if res.PerNode[i].Node == n.Name {
			straggler = &res.PerNode[i]
		}
	}
	if straggler == nil || straggler.OK {
		t.Fatalf("straggler not dropped: %+v", res.PerNode)
	}
	if !strings.Contains(straggler.Reason, "timeout") {
		t.Fatalf("reason = %q", straggler.Reason)
	}
	// The deployment as a whole completes within the healthy node's time.
	if res.OK != 1 || res.Duration >= nodeTimeout {
		t.Fatalf("deployment = %d ok in %v, want the healthy node inside the timeout", res.OK, res.Duration)
	}
}

func TestTotalFailureCostsTimeout(t *testing.T) {
	_, tb, inj, d := setup(9)
	n := tb.Node("sol-3.sophia")
	slowDown(inj, n.Name)
	res, err := d.Deploy([]*testbed.Node{n}, hugeEnv)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 0 {
		t.Fatalf("straggler deployed in %v", res.Duration)
	}
	if res.Duration != nodeTimeout {
		t.Fatalf("total-failure duration = %v, want timeout", res.Duration)
	}
}

func TestBiggerImageTakesLonger(t *testing.T) {
	_, tb, _, d := setup(10)
	n := []*testbed.Node{tb.Node("paravance-1.rennes")}
	small, _ := d.Deploy(n, Environment{Name: "min", SizeMB: 400, Kernel: "k"})
	big, _ := d.Deploy(n, Environment{Name: "big", SizeMB: 2400, Kernel: "k"})
	if small.OK != 1 || big.OK != 1 {
		t.Skip("baseline failure hit")
	}
	// 2000 MB difference at 55 MB/s ≈ 36s, minus boot jitter ±40s; run a
	// few trials to smooth jitter out.
	var smallSum, bigSum simclock.Time
	for i := 0; i < 10; i++ {
		s, _ := d.Deploy(n, Environment{Name: "min", SizeMB: 400, Kernel: "k"})
		if s.OK == 1 {
			smallSum += s.Duration
		}
		b, _ := d.Deploy(n, Environment{Name: "big", SizeMB: 2400, Kernel: "k"})
		if b.OK == 1 {
			bigSum += b.Duration
		}
	}
	if bigSum <= smallSum {
		t.Fatalf("bigger image not slower: %v vs %v", bigSum, smallSum)
	}
}

func TestReboot(t *testing.T) {
	_, tb, inj, d := setup(11)
	n := tb.Node("grisou-1.nancy")
	before := n.BootCount
	dur, err := d.Reboot(n)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("zero-duration reboot")
	}
	if n.BootCount != before+1 {
		t.Fatalf("boot count = %d", n.BootCount)
	}
	// A node with random reboots eventually fails a reboot.
	bad := tb.Node("grisou-2.nancy")
	inj.InjectNode(faults.RandomReboots, bad.Name)
	failed := false
	for i := 0; i < 50; i++ {
		if _, err := d.Reboot(bad); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("random-reboot node never failed in 50 reboots")
	}
}
