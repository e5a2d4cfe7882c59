package testbed

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestDefaultMatchesPaperScale(t *testing.T) {
	tb := Default()
	st := tb.Stats()
	if st.Sites != 8 {
		t.Errorf("sites = %d, want 8", st.Sites)
	}
	if st.Clusters != 32 {
		t.Errorf("clusters = %d, want 32", st.Clusters)
	}
	if st.Nodes != 894 {
		t.Errorf("nodes = %d, want 894", st.Nodes)
	}
	if st.Cores != 8490 {
		t.Errorf("cores = %d, want 8490", st.Cores)
	}
	if got := st.String(); got != "8 sites, 32 clusters, 894 nodes, 8490 cores" {
		t.Errorf("Stats.String() = %q", got)
	}
}

// The suites package derives its 751 test configurations from these counts;
// pin them here so a spec edit cannot silently change the coverage table.
func TestSpecFamilyCounts(t *testing.T) {
	tb := Default()
	dellRecent, ib, hdd, gpu, tenG := 0, 0, 0, 0, 0
	for _, c := range tb.Clusters() {
		n := c.Nodes[0]
		if c.Vendor == "Dell" && c.ModelYear >= 2013 {
			dellRecent++
		}
		if n.Inv.HasIB() {
			ib++
		}
		if n.Inv.HasHDD() {
			hdd++
		}
		if n.Inv.HasGPU() {
			gpu++
		}
		if n.Inv.Has10G() {
			tenG++
		}
	}
	if dellRecent != 9 {
		t.Errorf("recent Dell clusters = %d, want 9", dellRecent)
	}
	if ib != 6 {
		t.Errorf("InfiniBand clusters = %d, want 6", ib)
	}
	if hdd != 24 {
		t.Errorf("HDD clusters = %d, want 24", hdd)
	}
	if gpu != 2 {
		t.Errorf("GPU clusters = %d, want 2", gpu)
	}
	if tenG != 9 {
		t.Errorf("10G clusters = %d, want 9", tenG)
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a, b := Default(), Default()
	ja, err := json.Marshal(snapshotForTest(a))
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(snapshotForTest(b))
	if string(ja) != string(jb) {
		t.Fatal("two generations differ")
	}
}

func snapshotForTest(tb *Testbed) map[string]Inventory {
	out := map[string]Inventory{}
	for _, n := range tb.Nodes() {
		out[n.Name] = n.Inv
	}
	return out
}

func TestNodeNaming(t *testing.T) {
	tb := Default()
	n := tb.Node("graphene-12.nancy")
	if n == nil {
		t.Fatal("graphene-12.nancy not found")
	}
	if n.Cluster != "graphene" || n.Site != "nancy" || n.Index != 12 {
		t.Fatalf("bad identity: %+v", n)
	}
	if tb.Node("nonexistent-1.nowhere") != nil {
		t.Fatal("lookup of bogus node succeeded")
	}
}

func TestLookupsConsistent(t *testing.T) {
	tb := Default()
	for _, s := range tb.SiteNames() {
		if tb.Site(s) == nil {
			t.Fatalf("site %q not found by name", s)
		}
	}
	for _, c := range tb.ClusterNames() {
		cl := tb.Cluster(c)
		if cl == nil {
			t.Fatalf("cluster %q not found by name", c)
		}
		for _, n := range cl.Nodes {
			if tb.Node(n.Name) != n {
				t.Fatalf("node %q index mismatch", n.Name)
			}
		}
	}
}

func TestClusterHomogeneity(t *testing.T) {
	tb := Default()
	for _, c := range tb.Clusters() {
		ref, _ := json.Marshal(c.Nodes[0].Inv.CPU)
		for _, n := range c.Nodes[1:] {
			got, _ := json.Marshal(n.Inv.CPU)
			if string(got) != string(ref) {
				t.Fatalf("cluster %s heterogeneous CPUs out of the generator", c.Name)
			}
		}
	}
}

func TestMACUniqueness(t *testing.T) {
	tb := Default()
	seen := map[string]string{}
	for _, n := range tb.Nodes() {
		for _, nic := range n.Inv.NICs {
			if prev, dup := seen[nic.MAC]; dup {
				t.Fatalf("duplicate MAC %s on %s and %s", nic.MAC, prev, n.Name)
			}
			seen[nic.MAC] = n.Name
		}
	}
}

func TestSwitchPortUniqueness(t *testing.T) {
	tb := Default()
	seen := map[string]bool{}
	for _, n := range tb.Nodes() {
		for _, nic := range n.Inv.NICs {
			if seen[nic.SwitchPort] {
				t.Fatalf("duplicate switch port %s", nic.SwitchPort)
			}
			seen[nic.SwitchPort] = true
		}
	}
}

func TestInventoryCloneIsDeep(t *testing.T) {
	tb := Default()
	n := tb.Node("griffon-1.nancy")
	cp := n.Inv.Clone()
	cp.Disks[0].Firmware = "HACKED"
	cp.NICs[0].SwitchPort = "HACKED"
	if n.Inv.Disks[0].Firmware == "HACKED" {
		t.Fatal("Clone shares disk slice")
	}
	if n.Inv.NICs[0].SwitchPort == "HACKED" {
		t.Fatal("Clone shares NIC slice")
	}
}

func TestNodeStateString(t *testing.T) {
	cases := map[NodeState]string{
		Alive: "alive", Absent: "absent", Suspected: "suspected", Dead: "dead",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if NodeState(42).String() != "NodeState(42)" {
		t.Error("unknown state formatting")
	}
}

func TestInventoryPredicates(t *testing.T) {
	tb := Default()
	if !tb.Node("adonis-1.grenoble").Inv.HasGPU() {
		t.Error("adonis should have GPUs")
	}
	if tb.Node("sol-1.sophia").Inv.HasGPU() {
		t.Error("sol should not have GPUs")
	}
	if !tb.Node("taurus-1.lyon").Inv.HasIB() {
		t.Error("taurus should have InfiniBand")
	}
	if !tb.Node("paravance-1.rennes").Inv.Has10G() {
		t.Error("paravance should have 10G")
	}
	if tb.Node("sagittaire-1.lyon").Inv.Has10G() {
		t.Error("sagittaire should not have 10G")
	}
	if !tb.Node("helios-1.sophia").Inv.HasHDD() {
		t.Error("helios should have HDDs")
	}
	if tb.Node("grisou-1.nancy").Inv.HasHDD() {
		t.Error("grisou is SSD-only")
	}
}

func TestCPUCores(t *testing.T) {
	if c := (CPU{Sockets: 2, CoresPerSocket: 7}).Cores(); c != 14 {
		t.Fatalf("cores = %d, want 14", c)
	}
}

func TestClusterCores(t *testing.T) {
	tb := Default()
	if got := tb.Cluster("paravance").Cores(); got != 64*16 {
		t.Fatalf("paravance cores = %d, want %d", got, 64*16)
	}
	if got := tb.Cluster("dahu").Cores(); got != 13*14 {
		t.Fatalf("dahu cores = %d, want %d", got, 13*14)
	}
}

// Property: every generated MAC address parses as 6 hex octets and is
// locally administered (02: prefix), for any cluster-name/index combination.
func TestMACFormatProperty(t *testing.T) {
	f := func(name string, idx uint8, nic uint8) bool {
		m := mac(name, int(idx), int(nic))
		if len(m) != 17 || m[:3] != "02:" {
			return false
		}
		for i, ch := range m {
			if (i+1)%3 == 0 {
				if ch != ':' {
					return false
				}
			} else if !((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSiteNodes(t *testing.T) {
	tb := Default()
	lux := tb.Site("luxembourg")
	if got := len(lux.Nodes()); got != 38 {
		t.Fatalf("luxembourg nodes = %d, want 38", got)
	}
}

func TestScaledOneIsDefault(t *testing.T) {
	if got, want := Generate(ScaledSpec(1)).Stats(), Default().Stats(); got != want {
		t.Fatalf("Generate(ScaledSpec(1)) = %v, want %v", got, want)
	}
	if got := Generate(ScaledSpec(0)).Stats(); got != Default().Stats() {
		t.Fatalf("Generate(ScaledSpec(0)) = %v, want default", got)
	}
}

func TestScaledMultipliesEverythingButSites(t *testing.T) {
	base := Default().Stats()
	for _, k := range []int{2, 4} {
		st := Generate(ScaledSpec(k)).Stats()
		if st.Sites != base.Sites {
			t.Fatalf("Generate(ScaledSpec(%d)) sites = %d, want %d", k, st.Sites, base.Sites)
		}
		if st.Clusters != k*base.Clusters || st.Nodes != k*base.Nodes || st.Cores != k*base.Cores {
			t.Fatalf("Generate(ScaledSpec(%d)) = %v, want %d x %v", k, st, k, base)
		}
	}
}

func TestScaledDeterministicAndDistinct(t *testing.T) {
	a, b := Generate(ScaledSpec(3)), Generate(ScaledSpec(3))
	na, nb := a.Nodes(), b.Nodes()
	if len(na) != len(nb) {
		t.Fatalf("node counts differ: %d vs %d", len(na), len(nb))
	}
	seen := map[string]bool{}
	for i := range na {
		if na[i].Name != nb[i].Name {
			t.Fatalf("node %d: %q vs %q", i, na[i].Name, nb[i].Name)
		}
		if na[i].Inv.NICs[0].MAC != nb[i].Inv.NICs[0].MAC {
			t.Fatalf("node %s: MACs differ across generations", na[i].Name)
		}
		if seen[na[i].Name] {
			t.Fatalf("duplicate node name %q", na[i].Name)
		}
		seen[na[i].Name] = true
	}
	// Replicas are real, distinct clusters.
	if a.Cluster("edel") == nil || a.Cluster("edel-r2") == nil || a.Cluster("edel-r3") == nil {
		t.Fatal("scaled replicas missing")
	}
	if a.Cluster("edel-r4") != nil {
		t.Fatal("unexpected replica beyond scale factor")
	}
	if a.Node("edel-r2-1.grenoble") == nil {
		t.Fatal("replica node name not derived deterministically")
	}
}
