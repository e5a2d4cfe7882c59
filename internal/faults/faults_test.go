package faults

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/refapi"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func setup() (*simclock.Clock, *testbed.Testbed, *Injector) {
	c := simclock.New(11)
	tb := testbed.Default()
	return c, tb, NewInjector(c, tb)
}

func TestInjectAndFixRestoresState(t *testing.T) {
	_, tb, in := setup()
	node := "griffon-10.nancy"
	before := tb.Node(node).Inv.Clone()

	kinds := []Kind{DiskFirmwareDrift, DiskCacheOff, CStatesOn, HyperThreadFlip,
		TurboFlip, RAMLoss, WrongKernel}
	var ids []int
	for _, k := range kinds {
		f, err := in.InjectNode(k, node)
		if err != nil {
			t.Fatalf("inject %s: %v", k, err)
		}
		ids = append(ids, f.ID)
	}
	if diffs := refapi.AppendDiff(nil, node, before, tb.Node(node).Inv); len(diffs) == 0 {
		t.Fatal("description faults caused no drift")
	}
	for _, id := range ids {
		if err := in.Fix(id); err != nil {
			t.Fatal(err)
		}
	}
	if diffs := refapi.AppendDiff(nil, node, before, tb.Node(node).Inv); len(diffs) != 0 {
		t.Fatalf("fixing did not restore state: %v", diffs)
	}
	if in.ActiveCount() != 0 {
		t.Fatalf("active = %d after fixing all", in.ActiveCount())
	}
}

func TestDoubleInjectRejected(t *testing.T) {
	_, _, in := setup()
	if _, err := in.InjectNode(RAMLoss, "sol-1.sophia"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.InjectNode(RAMLoss, "sol-1.sophia"); err == nil {
		t.Fatal("duplicate inject succeeded")
	}
}

func TestDoubleFixRejected(t *testing.T) {
	_, _, in := setup()
	f, _ := in.InjectNode(TurboFlip, "sol-1.sophia")
	if err := in.Fix(f.ID); err != nil {
		t.Fatal(err)
	}
	if err := in.Fix(f.ID); err == nil {
		t.Fatal("double fix succeeded")
	}
}

func TestInjectUnknownTargets(t *testing.T) {
	_, _, in := setup()
	if _, err := in.InjectNode(RAMLoss, "ghost-1.limbo"); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := in.InjectNode(ServiceFlaky, "sol-1.sophia"); err == nil {
		t.Fatal("service fault accepted as node fault")
	}
	if _, err := in.InjectNode(CablingSwap, "sol-1.sophia"); err == nil {
		t.Fatal("cabling fault accepted as node fault")
	}
	if _, err := in.InjectService("limbo", "api", 0.5); err == nil {
		t.Fatal("unknown site accepted")
	}
	if _, err := in.InjectService("lyon", "teleport", 0.5); err == nil {
		t.Fatal("unknown service accepted")
	}
	if _, err := in.InjectService("lyon", "api", 1.5); err == nil {
		t.Fatal("error rate >1 accepted")
	}
}

func TestCablingSwapSwapsSwitchPorts(t *testing.T) {
	_, tb, in := setup()
	a, b := tb.Node("taurus-1.lyon"), tb.Node("taurus-2.lyon")
	pa, pb := a.Inv.NICs[0].SwitchPort, b.Inv.NICs[0].SwitchPort

	f, err := in.InjectCablingSwap(a.Name, b.Name)
	if err != nil {
		t.Fatal(err)
	}
	if a.Inv.NICs[0].SwitchPort != pb || b.Inv.NICs[0].SwitchPort != pa {
		t.Fatal("ports not swapped")
	}
	if !in.HasFault(a.Name, CablingSwap) || !in.HasFault(b.Name, CablingSwap) {
		t.Fatal("fault not visible on both nodes")
	}
	if err := in.Fix(f.ID); err != nil {
		t.Fatal(err)
	}
	if a.Inv.NICs[0].SwitchPort != pa || b.Inv.NICs[0].SwitchPort != pb {
		t.Fatal("fix did not unswap ports")
	}
}

func TestCablingSwapSelfRejected(t *testing.T) {
	_, _, in := setup()
	if _, err := in.InjectCablingSwap("sol-1.sophia", "sol-1.sophia"); err == nil {
		t.Fatal("self swap accepted")
	}
}

func TestServiceFaultBehaviour(t *testing.T) {
	_, _, in := setup()
	if in.ServiceFails("nancy", "api") {
		t.Fatal("healthy service failed")
	}
	f, err := in.InjectService("nancy", "api", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !in.ServiceFails("nancy", "api") {
		t.Fatal("rate-1.0 service did not fail")
	}
	if in.serviceErr["nancy/api"] != 1.0 {
		t.Fatal("wrong error rate")
	}
	if in.ServiceFails("lyon", "api") {
		t.Fatal("fault leaked to another site")
	}
	in.Fix(f.ID)
	if in.ServiceFails("nancy", "api") {
		t.Fatal("fixed service still failing")
	}
}

func TestBehaviourQueriesHealthyDefaults(t *testing.T) {
	_, _, in := setup()
	n := "paravance-1.rennes"
	if d := in.BootDelayFor(n); d != 0 {
		t.Errorf("healthy boot delay = %v", d)
	}
	if p := in.RebootFailProb(n); p != 0.01 {
		t.Errorf("healthy reboot fail prob = %v", p)
	}
	if f := in.DiskReadFactor(n); f != 1.0 {
		t.Errorf("healthy read factor = %v", f)
	}
	if f := in.DiskWriteFactor(n); f != 1.0 {
		t.Errorf("healthy write factor = %v", f)
	}
	if j := in.CPUJitter(n); j != 0.01 {
		t.Errorf("healthy jitter = %v", j)
	}
	if in.OFEDStartFails(n) {
		t.Error("healthy OFED failed")
	}
	if !in.ConsoleWorks(n) {
		t.Error("healthy console broken")
	}
}

func TestBehaviourQueriesUnderFaults(t *testing.T) {
	_, _, in := setup()
	n := "helios-3.sophia"
	in.InjectNode(BootDelay, n)
	in.InjectNode(RandomReboots, n)
	in.InjectNode(DiskCacheOff, n)
	in.InjectNode(DiskDying, n)
	in.InjectNode(CStatesOn, n)
	in.InjectNode(ConsoleBroken, n)

	if d := in.BootDelayFor(n); d != 150*simclock.Second {
		t.Errorf("boot delay = %v", d)
	}
	if p := in.RebootFailProb(n); p != 0.5 {
		t.Errorf("reboot fail prob = %v", p)
	}
	if f := in.DiskWriteFactor(n); f >= 0.35*0.25+0.001 {
		t.Errorf("write factor = %v, want ≤ 0.0875", f)
	}
	if f := in.DiskReadFactor(n); f != 0.25 {
		t.Errorf("read factor = %v", f)
	}
	if j := in.CPUJitter(n); j != 0.08 {
		t.Errorf("jitter = %v", j)
	}
	if in.ConsoleWorks(n) {
		t.Error("broken console works")
	}
}

func TestOFEDFlakyIsIntermittent(t *testing.T) {
	_, _, in := setup()
	n := "graphene-1.nancy"
	in.InjectNode(OFEDFlaky, n)
	fails, runs := 0, 200
	for i := 0; i < runs; i++ {
		if in.OFEDStartFails(n) {
			fails++
		}
	}
	if fails == 0 || fails == runs {
		t.Fatalf("OFED fault not intermittent: %d/%d", fails, runs)
	}
}

func TestSignatures(t *testing.T) {
	_, _, in := setup()
	f1, _ := in.InjectNode(RAMLoss, "sol-2.sophia")
	if got := f1.Signature(); got != "ram-loss:sol-2.sophia" {
		t.Errorf("sig = %q", got)
	}
	f2, _ := in.InjectService("lyon", "kwapi", 0.4)
	if got := f2.Signature(); got != "service-flaky:lyon/kwapi" {
		t.Errorf("sig = %q", got)
	}
	f3, _ := in.InjectCablingSwap("sol-3.sophia", "sol-4.sophia")
	if got := f3.Signature(); got != "cabling-swap:sol-3.sophia+sol-4.sophia" {
		t.Errorf("sig = %q", got)
	}
	if in.BySignature("ram-loss:sol-2.sophia") != f1 {
		t.Error("BySignature lookup failed")
	}
	if !in.FixBySignature("ram-loss:sol-2.sophia") {
		t.Error("FixBySignature failed")
	}
	if in.FixBySignature("ram-loss:sol-2.sophia") {
		t.Error("FixBySignature fixed twice")
	}
}

func TestInjectRandomAlwaysPlacesFault(t *testing.T) {
	_, _, in := setup()
	for i := 0; i < 300; i++ {
		if f := in.InjectRandom(); f == nil {
			t.Fatalf("InjectRandom returned nil at iteration %d", i)
		}
	}
	if in.ActiveCount() != 300 {
		t.Fatalf("active = %d, want 300", in.ActiveCount())
	}
	if in.nextID != 300 {
		t.Fatalf("injected = %d, want 300", in.nextID)
	}
}

func TestInjectRandomCoversAllKinds(t *testing.T) {
	_, _, in := setup()
	seen := map[Kind]bool{}
	for i := 0; i < 600; i++ {
		if f := in.InjectRandom(); f != nil {
			seen[f.Kind] = true
		}
	}
	for _, k := range AllKinds {
		if !seen[k] {
			t.Errorf("kind %s never drawn in 600 injections", k)
		}
	}
}

func TestNodeFaults(t *testing.T) {
	_, _, in := setup()
	n := "uvb-7.sophia"
	in.InjectNode(RAMLoss, n)
	in.InjectNode(CStatesOn, n)
	if !in.HasFault(n, RAMLoss) || !in.HasFault(n, CStatesOn) || in.HasFault(n, WrongKernel) {
		t.Fatalf("%s: want exactly RAMLoss and CStatesOn among these", n)
	}
}

// Property: weightedKind is total — every u in [0,1) maps to a valid kind.
func TestWeightedKindTotalProperty(t *testing.T) {
	valid := map[Kind]bool{}
	for _, k := range AllKinds {
		valid[k] = true
	}
	f := func(u float64) bool {
		if u < 0 {
			u = -u
		}
		for u >= 1 {
			u /= 2
		}
		return valid[weightedKind(u)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: inject+fix is an identity on the node inventory for every
// description-drift fault kind.
func TestInjectFixIdentityProperty(t *testing.T) {
	_, tb, in := setup()
	nodes := tb.Nodes()
	driftKinds := []Kind{DiskFirmwareDrift, DiskCacheOff, CStatesOn,
		HyperThreadFlip, TurboFlip, RAMLoss, WrongKernel}
	f := func(nodeIdx uint16, kindIdx uint8) bool {
		n := nodes[int(nodeIdx)%len(nodes)]
		k := driftKinds[int(kindIdx)%len(driftKinds)]
		before := n.Inv.Clone()
		flt, err := in.InjectNode(k, n.Name)
		if err != nil {
			return true // duplicate or inapplicable: state must be unchanged
		}
		if err := in.Fix(flt.ID); err != nil {
			return false
		}
		return len(refapi.AppendDiff(nil, n.Name, before, n.Inv)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// hasFaultScan recomputes HasFault the pre-index way: a linear scan over
// the active set. The O(1) index must always agree with it.
func hasFaultScan(in *Injector, node string, k Kind) bool {
	for _, f := range in.activeSorted() {
		if f.Kind == k && (f.Node == node || f.PeerNode == node) {
			return true
		}
	}
	return false
}

// Property: the per-node fault index stays consistent with the active set
// through arbitrary inject/fix churn, including cabling swaps that index
// under two nodes.
func TestHasFaultIndexConsistentProperty(t *testing.T) {
	clock, tb, in := setup()
	nodes := tb.Cluster("griffon").Nodes
	rng := clock.Rand()
	for step := 0; step < 2000; step++ {
		switch rng.Intn(3) {
		case 0:
			k := AllKinds[rng.Intn(len(AllKinds))]
			n := nodes[rng.Intn(len(nodes))]
			switch k {
			case ServiceFlaky:
				in.InjectService("nancy", "api", 0.5) //nolint:errcheck // dup ok
			case CablingSwap:
				in.InjectCablingSwap(n.Name, nodes[(rng.Intn(len(nodes)-1)+1)].Name) //nolint:errcheck // dup/self ok
			default:
				in.InjectNode(k, n.Name) //nolint:errcheck // dup ok
			}
		case 1:
			if act := in.activeSorted(); len(act) > 0 {
				in.Fix(act[rng.Intn(len(act))].ID) //nolint:errcheck
			}
		case 2:
			n := nodes[rng.Intn(len(nodes))]
			k := AllKinds[rng.Intn(len(AllKinds))]
			if got, want := in.HasFault(n.Name, k), hasFaultScan(in, n.Name, k); got != want {
				t.Fatalf("step %d: HasFault(%s, %s) = %v, scan says %v", step, n.Name, k, got, want)
			}
		}
	}
	// Drain everything and verify the index is empty-equivalent.
	for _, f := range in.activeSorted() {
		if err := in.Fix(f.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		for _, k := range AllKinds {
			if in.HasFault(n.Name, k) {
				t.Fatalf("index leaks %s on %s after full fix", k, n.Name)
			}
		}
	}
}

// activeSorted returns the active (unfixed) faults sorted by ID.
func (in *Injector) activeSorted() []*Fault {
	out := make([]*Fault, 0, len(in.active))
	for _, f := range in.active {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
