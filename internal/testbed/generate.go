package testbed

import "fmt"

// StdKernel is the kernel version of the standard environment that the
// reference description advertises for every node.
const StdKernel = "3.16.0-4-amd64"

// Generate builds a testbed from a cluster specification. Every node of a
// cluster receives an identical inventory (that homogeneity is itself a
// testable property — see the refapi and dellbios test families); MACs and
// switch ports are derived deterministically from the node identity so two
// calls with the same spec produce byte-identical testbeds.
func Generate(spec []ClusterSpec) *Testbed {
	tb := &Testbed{}
	siteIndex := map[string]*Site{}
	siteNo := 0
	for _, cs := range spec {
		site := siteIndex[cs.Site]
		if site == nil {
			site = &Site{Name: cs.Site}
			siteIndex[cs.Site] = site
			tb.Sites = append(tb.Sites, site)
			siteNo++
		}
		cl := &Cluster{
			Name:      cs.Name,
			Site:      cs.Site,
			Vendor:    cs.Vendor,
			ModelYear: cs.ModelYear,
		}
		for i := 1; i <= cs.NodeCount; i++ {
			cl.Nodes = append(cl.Nodes, newNode(cs, i))
		}
		site.Clusters = append(site.Clusters, cl)
	}
	tb.index()
	return tb
}

// Default generates the paper-scale testbed from DefaultSpec.
func Default() *Testbed { return Generate(DefaultSpec) }

// ScaledSpec returns the default specification replicated k times: every
// cluster of DefaultSpec appears k times per site, replicas after the
// first renamed with a deterministic "-rN" suffix ("edel-r2", "edel-r3",
// ...). Node names follow ("edel-r2-5.grenoble"), so two calls with the
// same k produce byte-identical testbeds. k below 1 is treated as 1.
func ScaledSpec(k int) []ClusterSpec {
	if k <= 1 {
		return DefaultSpec
	}
	out := make([]ClusterSpec, 0, len(DefaultSpec)*k)
	out = append(out, DefaultSpec...)
	for rep := 2; rep <= k; rep++ {
		for _, cs := range DefaultSpec {
			cs.Name = fmt.Sprintf("%s-r%d", cs.Name, rep)
			out = append(out, cs)
		}
	}
	return out
}

func newNode(cs ClusterSpec, idx int) *Node {
	name := fmt.Sprintf("%s-%d.%s", cs.Name, idx, cs.Site)
	inv := Inventory{
		CPU: CPU{
			Model:          cs.CPUModel,
			Sockets:        cs.Sockets,
			CoresPerSocket: cs.CoresPerSocket,
			FreqMHz:        cs.FreqMHz,
			Microcode:      fmt.Sprintf("0x%x", 0x700+cs.ModelYear%100),
		},
		RAMGB: cs.RAMGB,
		BIOS: BIOS{
			Version:        cs.BIOSVersion,
			HyperThreading: cs.HyperThread,
			TurboBoost:     cs.TurboBoost,
			CStates:        false, // reference config: C-states disabled for stable performance
			PowerProfile:   cs.PowerProfile,
		},
		GPUModel:   cs.GPUModel,
		Infiniband: cs.Infiniband,
		OSKernel:   StdKernel,
	}
	for d := 0; d < cs.DiskCount; d++ {
		inv.Disks = append(inv.Disks, Disk{
			Device:     fmt.Sprintf("sd%c", 'a'+d),
			Vendor:     cs.DiskVendor,
			Model:      cs.DiskModel,
			Firmware:   cs.DiskFW,
			CapacityGB: cs.DiskGB,
			RPM:        cs.DiskRPM,
			WriteCache: true, // reference config: write cache enabled
		})
	}
	inv.NICs = []NIC{
		{
			Name:       "eth0",
			RateGbps:   cs.NICRateGbps,
			Driver:     cs.NICDriver,
			MAC:        mac(cs.Name, idx, 0),
			SwitchPort: fmt.Sprintf("sw-%s-%s:%d", cs.Site, cs.Name, idx),
		},
		{
			Name:       "bmc0",
			RateGbps:   1,
			Driver:     "bmc",
			MAC:        mac(cs.Name, idx, 1),
			SwitchPort: fmt.Sprintf("sw-adm-%s-%s:%d", cs.Site, cs.Name, idx),
			Management: true,
		},
	}
	return &Node{
		Name:    name,
		Cluster: cs.Name,
		Site:    cs.Site,
		Index:   idx,
		State:   Alive,
		Inv:     inv,
	}
}

// mac derives a deterministic, unique MAC address from the node identity.
func mac(cluster string, idx, nic int) string {
	h := uint32(2166136261)
	for _, b := range []byte(cluster) {
		h = (h ^ uint32(b)) * 16777619
	}
	return fmt.Sprintf("02:%02x:%02x:%02x:%02x:%02x",
		byte(h>>16), byte(h>>8), byte(h), byte(idx), byte(nic))
}
