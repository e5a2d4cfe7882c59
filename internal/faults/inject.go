package faults

import (
	"fmt"

	"repro/internal/simclock"
)

// InjectNode injects a node-scoped fault of the given kind on the named
// node. It returns an error if the node is unknown, the kind is
// site-scoped, or an identical fault is already active on the node
// (injecting the same problem twice is meaningless).
func (in *Injector) InjectNode(kind Kind, nodeName string) (*Fault, error) {
	n := in.tb.Node(nodeName)
	if n == nil {
		return nil, fmt.Errorf("faults: unknown node %q", nodeName)
	}
	if kind == ServiceFlaky {
		return nil, fmt.Errorf("faults: %s is site-scoped, use InjectService", kind)
	}
	if kind == CablingSwap {
		return nil, fmt.Errorf("faults: %s needs two nodes, use InjectCablingSwap", kind)
	}
	if in.HasFault(nodeName, kind) {
		return nil, fmt.Errorf("faults: %s already active on %s", kind, nodeName)
	}

	f := &Fault{Kind: kind, Node: nodeName}
	switch kind {
	case DiskFirmwareDrift:
		if len(n.Inv.Disks) == 0 {
			return nil, fmt.Errorf("faults: %s has no disks", nodeName)
		}
		old := n.Inv.Disks[0].Firmware
		n.Inv.Disks[0].Firmware = old + "-alt"
		f.undo = func() { n.Inv.Disks[0].Firmware = old }
	case DiskCacheOff:
		if len(n.Inv.Disks) == 0 {
			return nil, fmt.Errorf("faults: %s has no disks", nodeName)
		}
		old := n.Inv.Disks[0].WriteCache
		if !old {
			return nil, fmt.Errorf("faults: write cache already off on %s", nodeName)
		}
		n.Inv.Disks[0].WriteCache = false
		f.undo = func() { n.Inv.Disks[0].WriteCache = true }
	case DiskDying:
		if len(n.Inv.Disks) == 0 {
			return nil, fmt.Errorf("faults: %s has no disks", nodeName)
		}
		// Purely behavioural: the description still matches, only measured
		// performance collapses (the disk test family exists for this).
		f.undo = func() {}
	case CStatesOn:
		old := n.Inv.BIOS.CStates
		n.Inv.BIOS.CStates = true
		f.undo = func() { n.Inv.BIOS.CStates = old }
	case HyperThreadFlip:
		n.Inv.BIOS.HyperThreading = !n.Inv.BIOS.HyperThreading
		f.undo = func() { n.Inv.BIOS.HyperThreading = !n.Inv.BIOS.HyperThreading }
	case TurboFlip:
		n.Inv.BIOS.TurboBoost = !n.Inv.BIOS.TurboBoost
		f.undo = func() { n.Inv.BIOS.TurboBoost = !n.Inv.BIOS.TurboBoost }
	case RAMLoss:
		old := n.Inv.RAMGB
		n.Inv.RAMGB = old / 2
		f.undo = func() { n.Inv.RAMGB = old }
	case WrongKernel:
		old := n.Inv.OSKernel
		n.Inv.OSKernel = "3.14.2-custom"
		f.undo = func() { n.Inv.OSKernel = old }
	case RandomReboots, BootDelay, OFEDFlaky, ConsoleBroken:
		// Behavioural knobs; queried through the Behaviour methods below.
		f.undo = func() {}
	default:
		return nil, fmt.Errorf("faults: unknown kind %q", kind)
	}
	return in.register(f), nil
}

// InjectCablingSwap exchanges the experiment-NIC switch ports of two nodes,
// reproducing the paper's "cabling issue → wrong measurements by testbed
// monitoring service": the monitoring wiring is keyed by switch port, so
// each node's power/network samples get attributed to the other node.
func (in *Injector) InjectCablingSwap(nodeA, nodeB string) (*Fault, error) {
	a, b := in.tb.Node(nodeA), in.tb.Node(nodeB)
	if a == nil || b == nil {
		return nil, fmt.Errorf("faults: unknown node in swap %q/%q", nodeA, nodeB)
	}
	if nodeA == nodeB {
		return nil, fmt.Errorf("faults: cannot swap %q with itself", nodeA)
	}
	if in.HasFault(nodeA, CablingSwap) || in.HasFault(nodeB, CablingSwap) {
		return nil, fmt.Errorf("faults: cabling already swapped on %s or %s", nodeA, nodeB)
	}
	pa, pb := &a.Inv.NICs[0], &b.Inv.NICs[0]
	pa.SwitchPort, pb.SwitchPort = pb.SwitchPort, pa.SwitchPort
	f := &Fault{Kind: CablingSwap, Node: nodeA, PeerNode: nodeB}
	f.undo = func() { pa.SwitchPort, pb.SwitchPort = pb.SwitchPort, pa.SwitchPort }
	return in.register(f), nil
}

// InjectService makes one service at one site flaky, failing requests with
// the given probability.
func (in *Injector) InjectService(site, service string, errRate float64) (*Fault, error) {
	if in.tb.Site(site) == nil {
		return nil, fmt.Errorf("faults: unknown site %q", site)
	}
	valid := false
	for _, s := range Services {
		if s == service {
			valid = true
			break
		}
	}
	if !valid {
		return nil, fmt.Errorf("faults: unknown service %q", service)
	}
	key := site + "/" + service
	if _, dup := in.serviceErr[key]; dup {
		return nil, fmt.Errorf("faults: %s already flaky", key)
	}
	if errRate <= 0 || errRate > 1 {
		return nil, fmt.Errorf("faults: error rate %v out of (0,1]", errRate)
	}
	in.serviceErr[key] = errRate
	f := &Fault{Kind: ServiceFlaky, Site: site, Service: service}
	f.undo = func() { delete(in.serviceErr, key) }
	return in.register(f), nil
}

// InjectRandom draws a fault kind and target from the clock's RNG, weighted
// roughly by how often each class shows up in the paper's bug list
// (hardware-setting drift dominates). It retries a few times when the draw
// lands on an already-faulted target, and returns nil if it cannot place a
// fault (extremely unlikely on a healthy testbed).
func (in *Injector) InjectRandom() *Fault {
	rng := in.clock.Rand()
	nodes := in.nodes
	for attempt := 0; attempt < 10; attempt++ {
		k := weightedKind(rng.Float64())
		switch k {
		case ServiceFlaky:
			site := simclock.Pick(rng, in.siteNames)
			svc := simclock.Pick(rng, Services)
			rate := 0.2 + 0.6*rng.Float64()
			if f, err := in.InjectService(site, svc, rate); err == nil {
				return f
			}
		case CablingSwap:
			// Swap two neighbouring nodes of the same cluster — the
			// realistic datacenter mistake.
			c := simclock.Pick(rng, in.tb.Clusters())
			if len(c.Nodes) < 2 {
				continue
			}
			i := rng.Intn(len(c.Nodes) - 1)
			if f, err := in.InjectCablingSwap(c.Nodes[i].Name, c.Nodes[i+1].Name); err == nil {
				return f
			}
		default:
			n := simclock.Pick(rng, nodes)
			if f, err := in.InjectNode(k, n.Name); err == nil {
				return f
			}
		}
	}
	return nil
}

// kindShares is each kind's share of random injections, index-aligned with
// AllKinds. The shares reflect the paper's bug statistics: settings/firmware
// drift is the common case, dramatic failures (random reboots) are rare.
var kindShares = [len(AllKinds)]float64{
	0.14, 0.12, 0.06, 0.13, 0.07,
	0.07, 0.06, 0.06, 0.07, 0.04, 0.05,
	0.05, 0.04, 0.04,
}

// weightedKind maps a uniform draw to a fault kind by kindShares.
func weightedKind(u float64) Kind {
	acc := 0.0
	for i, w := range kindShares {
		acc += w
		if u < acc {
			return AllKinds[i]
		}
	}
	return AllKinds[len(AllKinds)-1]
}

// ---- Behaviour queries -------------------------------------------------
//
// Other subsystems consult the injector instead of hard-coding healthy
// behaviour. All queries are cheap.

// BootDelayFor returns the extra boot latency a node suffers (zero when
// healthy; several minutes under the kernel-race fault the paper mentions).
func (in *Injector) BootDelayFor(node string) simclock.Time {
	if in.HasFault(node, BootDelay) {
		return 150 * simclock.Second
	}
	return 0
}

// RebootFailProb returns the probability that a reboot/deployment of the
// node fails outright (random-reboot hardware).
func (in *Injector) RebootFailProb(node string) float64 {
	if in.HasFault(node, RandomReboots) {
		return 0.5
	}
	return 0.01 // baseline flakiness of large fleets: ~1% of reboots fail
}

// DiskReadFactor returns the multiplier on disk read throughput (1.0 when
// healthy). Firmware drift changes performance moderately — the paper's
// "different disk performance due to different firmware versions" — while a
// dying disk collapses it.
func (in *Injector) DiskReadFactor(node string) float64 {
	f := 1.0
	if in.HasFault(node, DiskFirmwareDrift) {
		f *= 0.72
	}
	if in.HasFault(node, DiskDying) {
		f *= 0.25
	}
	return f
}

// DiskWriteFactor returns the multiplier on disk write throughput. Disabling
// the write cache is the big one (slide 22's "disk drives configuration
// (R/W caching)").
func (in *Injector) DiskWriteFactor(node string) float64 {
	f := 1.0
	if in.HasFault(node, DiskCacheOff) {
		f *= 0.35
	}
	if in.HasFault(node, DiskDying) {
		f *= 0.25
	}
	if in.HasFault(node, DiskFirmwareDrift) {
		f *= 0.85
	}
	return f
}

// CPUJitter returns the relative run-to-run variance of CPU benchmarks on
// the node. C-states re-enabled → latency jitter (slide 22: "CPU settings
// (C-states)").
func (in *Injector) CPUJitter(node string) float64 {
	if in.HasFault(node, CStatesOn) {
		return 0.08
	}
	return 0.01
}

// OFEDStartFails reports whether launching an InfiniBand application on the
// node fails this time (drawn from the clock's RNG when the OFED fault is
// active — the paper quotes the racy init script verbatim).
func (in *Injector) OFEDStartFails(node string) bool {
	if !in.HasFault(node, OFEDFlaky) {
		return false
	}
	return simclock.Bernoulli(in.clock.Rand(), 0.5)
}

// ConsoleWorks reports whether the serial console of the node responds.
func (in *Injector) ConsoleWorks(node string) bool {
	return !in.HasFault(node, ConsoleBroken)
}

// ServiceFails reports whether one request to the site's service fails.
func (in *Injector) ServiceFails(site, service string) bool {
	rate := in.serviceErr[site+"/"+service]
	if rate == 0 {
		return false
	}
	return simclock.Bernoulli(in.clock.Rand(), rate)
}
