package kavlan

import (
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func setup() (*testbed.Testbed, *faults.Injector, *Manager) {
	c := simclock.New(21)
	tb := testbed.Default()
	inj := faults.NewInjector(c, tb)
	return tb, inj, NewManager(tb, inj)
}

func TestPoolLayout(t *testing.T) {
	_, _, m := setup()
	counts := map[Kind]int{}
	for _, v := range m.VLANs() {
		counts[v.Kind]++
	}
	if counts[Default] != 1 {
		t.Errorf("default VLANs = %d", counts[Default])
	}
	if counts[Local] != 24 || counts[Routed] != 24 {
		t.Errorf("local/routed = %d/%d, want 24/24 (3 per site)", counts[Local], counts[Routed])
	}
	if counts[Global] != 8 {
		t.Errorf("global = %d, want 8 (1 per site)", counts[Global])
	}
}

func TestAllNodesStartInDefault(t *testing.T) {
	tb, _, m := setup()
	for _, n := range tb.Nodes() {
		v, err := m.VLANOf(n.Name)
		if err != nil {
			t.Fatal(err)
		}
		if v.ID != DefaultID {
			t.Fatalf("%s starts in %v", n.Name, v)
		}
	}
	if _, err := m.VLANOf("ghost-1.limbo"); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestDefaultCrossSiteRouting(t *testing.T) {
	_, _, m := setup()
	ok, err := m.Reachable("sol-1.sophia", "griffon-1.nancy")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("default VLAN nodes should reach each other across sites")
	}
}

func TestLocalVLANIsolation(t *testing.T) {
	_, _, m := setup()
	local := m.FindVLAN(Local, "lyon")
	if local == nil {
		t.Fatal("no local VLAN at lyon")
	}
	if _, err := m.SetNodes(local.ID, []string{"taurus-1.lyon", "taurus-2.lyon"}); err != nil {
		t.Fatal(err)
	}
	// Inside the VLAN: reachable.
	if ok, _ := m.Reachable("taurus-1.lyon", "taurus-2.lyon"); !ok {
		t.Fatal("members of a local VLAN should reach each other")
	}
	// From the default VLAN: not reachable, either direction.
	if ok, _ := m.Reachable("taurus-3.lyon", "taurus-1.lyon"); ok {
		t.Fatal("local VLAN reachable from default")
	}
	if ok, _ := m.Reachable("taurus-1.lyon", "taurus-3.lyon"); ok {
		t.Fatal("local VLAN can escape to default")
	}
}

func TestRoutedVLANReachableViaRouting(t *testing.T) {
	_, _, m := setup()
	routed := m.FindVLAN(Routed, "nancy")
	if _, err := m.SetNodes(routed.ID, []string{"griffon-1.nancy"}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := m.Reachable("griffon-1.nancy", "griffon-2.nancy"); !ok {
		t.Fatal("routed VLAN should reach default via routing")
	}
	if ok, _ := m.Reachable("sol-1.sophia", "griffon-1.nancy"); !ok {
		t.Fatal("default should reach routed VLAN via routing")
	}
}

func TestGlobalVLANSpansSites(t *testing.T) {
	_, _, m := setup()
	g := m.FindVLAN(Global, "")
	if g == nil {
		t.Fatal("no global VLAN")
	}
	if _, err := m.SetNodes(g.ID, []string{"sol-1.sophia", "griffon-1.nancy"}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := m.Reachable("sol-1.sophia", "griffon-1.nancy"); !ok {
		t.Fatal("global VLAN members should be L2-adjacent across sites")
	}
	if ok, _ := m.Reachable("sol-1.sophia", "sol-2.sophia"); ok {
		t.Fatal("global VLAN should not route to default")
	}
}

func TestLocalVLANRejectsForeignNodes(t *testing.T) {
	_, _, m := setup()
	local := m.FindVLAN(Local, "lyon")
	if _, err := m.SetNodes(local.ID, []string{"sol-1.sophia"}); err == nil {
		t.Fatal("foreign node accepted into site-local VLAN")
	}
	if _, err := m.SetNodes(99999, []string{"sol-1.sophia"}); err == nil {
		t.Fatal("unknown VLAN accepted")
	}
	if _, err := m.SetNodes(local.ID, []string{"ghost-1.limbo"}); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestServiceFaultBlocksReconfiguration(t *testing.T) {
	_, inj, m := setup()
	inj.InjectService("lyon", "kavlan", 1.0)
	local := m.FindVLAN(Local, "lyon")
	if _, err := m.SetNodes(local.ID, []string{"taurus-1.lyon"}); err == nil {
		t.Fatal("reconfiguration succeeded with dead kavlan service")
	}
	// Membership unchanged on failure.
	v, _ := m.VLANOf("taurus-1.lyon")
	if v.ID != DefaultID {
		t.Fatal("failed reconfiguration mutated membership")
	}
}

func TestSetNodesMovesMembers(t *testing.T) {
	_, _, m := setup()
	local := m.FindVLAN(Local, "sophia")
	d, err := m.SetNodes(local.ID, []string{"sol-2.sophia", "sol-1.sophia"})
	if err != nil {
		t.Fatal(err)
	}
	if d != ReconfigTime {
		t.Fatalf("duration = %v", d)
	}
	for _, n := range []string{"sol-1.sophia", "sol-2.sophia"} {
		if v, _ := m.VLANOf(n); v.ID != local.ID {
			t.Fatalf("%s in VLAN %d, want %d", n, v.ID, local.ID)
		}
	}
	if v, _ := m.VLANOf("sol-3.sophia"); v.ID != DefaultID {
		t.Fatalf("sol-3.sophia moved to VLAN %d", v.ID)
	}
}

// Property: Reachable is symmetric for every pair of nodes under arbitrary
// membership of our VLAN kinds.
func TestReachabilitySymmetryProperty(t *testing.T) {
	tb, _, m := setup()
	nodes := tb.Site("lyon").Nodes()
	vlanChoices := []*VLAN{
		m.vlans[DefaultID],
		m.FindVLAN(Local, "lyon"),
		m.FindVLAN(Routed, "lyon"),
		m.FindVLAN(Global, ""),
	}
	f := func(ai, bi uint8, va, vb uint8) bool {
		a := nodes[int(ai)%len(nodes)].Name
		b := nodes[int(bi)%len(nodes)].Name
		m.membership[a] = vlanChoices[int(va)%len(vlanChoices)].ID
		m.membership[b] = vlanChoices[int(vb)%len(vlanChoices)].ID
		ab, err1 := m.Reachable(a, b)
		ba, err2 := m.Reachable(b, a)
		return err1 == nil && err2 == nil && ab == ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Default: "default", Local: "local", Routed: "routed", Global: "global"} {
		if k.String() != want {
			t.Errorf("%d = %q", int(k), k.String())
		}
	}
	if Kind(7).String() != "Kind(7)" {
		t.Error("unknown kind formatting")
	}
	v := &VLAN{ID: 3, Kind: Local, Site: "lyon"}
	if v.String() != "vlan-3 (local@lyon)" {
		t.Errorf("VLAN.String() = %q", v.String())
	}
}
