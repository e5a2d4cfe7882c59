// Package testbed models the physical infrastructure of a Grid'5000-like
// testbed: sites, clusters, nodes and their hardware inventories.
//
// This is the substrate that the paper's testing framework exercises. The
// default generated testbed matches the scale reported on slide 6 of the
// paper: 8 sites, 32 clusters, 894 nodes and 8490 cores, with hardware of
// different ages and vendors (slide 12), which is what makes throughout
// testing necessary in the first place.
//
// A node carries a *live* Inventory: the hardware state as it actually is
// right now. The fault injector (internal/faults) mutates live inventories
// without touching the reference description (internal/refapi); detecting
// that drift is the job of internal/checks, our g5k-checks equivalent.
package testbed

import (
	"fmt"
	"sort"
	"sync"
)

// NodeState is the availability state of a node, mirroring OAR's node
// states.
type NodeState int

const (
	// Alive means the node is healthy and schedulable.
	Alive NodeState = iota
	// Absent means the node is administratively removed (maintenance).
	Absent
	// Suspected means a health check failed and the node is quarantined.
	Suspected
	// Dead means the node is out of service.
	Dead
)

// String returns the OAR-style lowercase state name.
func (s NodeState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Absent:
		return "absent"
	case Suspected:
		return "suspected"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("NodeState(%d)", int(s))
}

// CPU describes a node's processor configuration.
type CPU struct {
	Model          string `json:"model"`
	Sockets        int    `json:"sockets"`
	CoresPerSocket int    `json:"cores_per_socket"`
	FreqMHz        int    `json:"freq_mhz"`
	Microcode      string `json:"microcode"`
}

// Cores returns the total number of cores.
func (c CPU) Cores() int { return c.Sockets * c.CoresPerSocket }

// BIOS captures firmware-level settings. The paper's example bugs (slide 13)
// are mostly here: power management, hyper-threading and turbo boost must be
// homogeneous across a cluster for experiments to be comparable.
type BIOS struct {
	Version        string `json:"version"`
	HyperThreading bool   `json:"hyperthreading"`
	TurboBoost     bool   `json:"turbo_boost"`
	CStates        bool   `json:"c_states"`
	PowerProfile   string `json:"power_profile"`
}

// Disk describes one storage device. Firmware version and write-cache
// setting are first-class because both caused real bugs found by the
// framework (slides 13 and 22).
type Disk struct {
	Device     string `json:"device"` // e.g. "sda"
	Vendor     string `json:"vendor"`
	Model      string `json:"model"`
	Firmware   string `json:"firmware"`
	CapacityGB int    `json:"capacity_gb"`
	RPM        int    `json:"rpm"` // 0 for SSDs
	WriteCache bool   `json:"write_cache"`
}

// SSD reports whether the disk is a solid-state device.
func (d Disk) SSD() bool { return d.RPM == 0 }

// NIC describes one network interface. SwitchPort records the cable's far
// end; cabling mistakes (slide 13: "cabling issue → wrong measurements by
// testbed monitoring service") are modelled by swapping SwitchPort values
// between nodes.
type NIC struct {
	Name       string `json:"name"` // e.g. "eth0"
	RateGbps   int    `json:"rate_gbps"`
	Driver     string `json:"driver"`
	MAC        string `json:"mac"`
	SwitchPort string `json:"switch_port"`
	Management bool   `json:"management"` // BMC-style interface, not for experiments
}

// Inventory is the complete hardware description of one node. The same
// struct serves as both the live state (on Node) and the reference
// description (in refapi), so comparing them is a field-by-field diff.
type Inventory struct {
	CPU        CPU    `json:"cpu"`
	RAMGB      int    `json:"ram_gb"`
	BIOS       BIOS   `json:"bios"`
	Disks      []Disk `json:"disks"`
	NICs       []NIC  `json:"nics"`
	GPUModel   string `json:"gpu_model,omitempty"`  // empty when no GPU
	Infiniband string `json:"infiniband,omitempty"` // e.g. "QDR", empty when none
	OSKernel   string `json:"os_kernel"`            // standard environment kernel
	PTPOffset  int    `json:"ptp_offset_us"`        // clock offset, µs
}

// Clone returns a deep copy of the inventory. Faults mutate clones-in-place
// on the node; refapi snapshots must never alias live state.
func (inv Inventory) Clone() Inventory {
	out := inv
	out.Disks = append([]Disk(nil), inv.Disks...)
	out.NICs = append([]NIC(nil), inv.NICs...)
	return out
}

// HasGPU reports whether the node carries an accelerator.
func (inv Inventory) HasGPU() bool { return inv.GPUModel != "" }

// HasIB reports whether the node has an InfiniBand HCA.
func (inv Inventory) HasIB() bool { return inv.Infiniband != "" }

// Has10G reports whether any experiment NIC runs at ≥10 Gbps.
func (inv Inventory) Has10G() bool {
	for _, n := range inv.NICs {
		if !n.Management && n.RateGbps >= 10 {
			return true
		}
	}
	return false
}

// HasHDD reports whether the node has at least one spinning disk.
func (inv Inventory) HasHDD() bool {
	for _, d := range inv.Disks {
		if !d.SSD() {
			return true
		}
	}
	return false
}

// Node is one machine of the testbed, carrying its live hardware state.
type Node struct {
	Name    string // fully qualified, e.g. "graphene-12.nancy"
	Cluster string
	Site    string
	Index   int // 1-based index within the cluster

	State NodeState
	Inv   Inventory // live inventory, mutated by faults

	// BootCount tracks reboots; multireboot tests use it to verify that a
	// requested reboot actually happened.
	BootCount int
}

// Cores returns the node's total core count.
func (n *Node) Cores() int { return n.Inv.CPU.Cores() }

// Cluster is a named group of (nominally) identical nodes at one site.
type Cluster struct {
	Name      string
	Site      string
	Vendor    string // chassis vendor: Dell, HP, Bull, ...
	ModelYear int    // purchase year; testbeds accumulate hardware of many ages
	Nodes     []*Node
}

// Cores returns the total core count of the cluster.
func (c *Cluster) Cores() int {
	t := 0
	for _, n := range c.Nodes {
		t += n.Cores()
	}
	return t
}

// Site is one geographical location of the testbed.
type Site struct {
	Name     string
	Clusters []*Cluster

	nodes []*Node // every cluster's nodes in order, set by Testbed.index
}

// Nodes returns all nodes of the site, in cluster order. The slice is the
// site's own (the topology never changes after generation): do not mutate
// it.
func (s *Site) Nodes() []*Node { return s.nodes }

// Testbed is the whole infrastructure.
//
// Concurrency model: the topology (sites, clusters, node identities,
// lookup maps) is immutable after generation and safe to read from any
// goroutine. Mutable node state (State, Inv, BootCount) is owned by the
// simulation's run token — event callbacks and simulation goroutines
// mutate it one at a time (see simclock's concurrency notes). The mutex
// below additionally serializes the node-state flips that arrive from
// subsystem APIs (OAR's oarnodesetting equivalent), so administrative
// state changes are safe against each other even from outside goroutines.
type Testbed struct {
	Sites []*Site

	mu             sync.Mutex
	nodes          []*Node // every site's nodes in order, set by index
	nodesByName    map[string]*Node
	clustersByName map[string]*Cluster
	sitesByName    map[string]*Site
}

// SetNodeState flips a node's availability state under the testbed mutex.
// It reports whether the node exists.
func (tb *Testbed) SetNodeState(name string, st NodeState) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	n := tb.nodesByName[name]
	if n == nil {
		return false
	}
	n.State = st
	return true
}

// NodeState reads a node's availability state under the testbed mutex.
func (tb *Testbed) NodeState(name string) (NodeState, bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	n := tb.nodesByName[name]
	if n == nil {
		return Alive, false
	}
	return n.State, true
}

// index (re)builds the lookup maps. Called by the generator.
func (tb *Testbed) index() {
	tb.nodesByName = make(map[string]*Node)
	tb.clustersByName = make(map[string]*Cluster)
	tb.sitesByName = make(map[string]*Site)
	tb.nodes = nil
	for _, s := range tb.Sites {
		tb.sitesByName[s.Name] = s
		s.nodes = nil
		for _, c := range s.Clusters {
			tb.clustersByName[c.Name] = c
			s.nodes = append(s.nodes, c.Nodes...)
			for _, n := range c.Nodes {
				tb.nodesByName[n.Name] = n
			}
		}
		tb.nodes = append(tb.nodes, s.nodes...)
	}
}

// Node returns the node with the given fully qualified name, or nil.
func (tb *Testbed) Node(name string) *Node { return tb.nodesByName[name] }

// Cluster returns the named cluster, or nil.
func (tb *Testbed) Cluster(name string) *Cluster { return tb.clustersByName[name] }

// Site returns the named site, or nil.
func (tb *Testbed) Site(name string) *Site { return tb.sitesByName[name] }

// Nodes returns every node of the testbed in deterministic (site, cluster,
// index) order. The slice is the testbed's own: do not mutate it.
func (tb *Testbed) Nodes() []*Node { return tb.nodes }

// Clusters returns every cluster in deterministic order.
func (tb *Testbed) Clusters() []*Cluster {
	var out []*Cluster
	for _, s := range tb.Sites {
		out = append(out, s.Clusters...)
	}
	return out
}

// ClusterNames returns the sorted list of cluster names.
func (tb *Testbed) ClusterNames() []string {
	names := make([]string, 0, len(tb.clustersByName))
	for n := range tb.clustersByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SiteNames returns the sorted list of site names.
func (tb *Testbed) SiteNames() []string {
	names := make([]string, 0, len(tb.sitesByName))
	for n := range tb.sitesByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalNodes returns the node count.
func (tb *Testbed) TotalNodes() int { return len(tb.nodesByName) }

// TotalCores returns the core count across the testbed.
func (tb *Testbed) TotalCores() int {
	t := 0
	for _, n := range tb.nodesByName {
		t += n.Cores()
	}
	return t
}

// Stats is a compact summary of the testbed scale, matching the numbers the
// paper advertises on slide 6.
type Stats struct {
	Sites    int
	Clusters int
	Nodes    int
	Cores    int
}

// Stats computes the scale summary.
func (tb *Testbed) Stats() Stats {
	return Stats{
		Sites:    len(tb.Sites),
		Clusters: len(tb.clustersByName),
		Nodes:    tb.TotalNodes(),
		Cores:    tb.TotalCores(),
	}
}

// String formats the stats like the paper's slide: "8 sites, 32 clusters,
// 894 nodes, 8490 cores".
func (s Stats) String() string {
	return fmt.Sprintf("%d sites, %d clusters, %d nodes, %d cores",
		s.Sites, s.Clusters, s.Nodes, s.Cores)
}
