// Package faults implements the fault model: everything that can silently go
// wrong on a testbed and that the paper's framework exists to catch.
//
// The catalogue is taken directly from the paper's list of real bugs
// (slides 13 and 22):
//
//   - different CPU settings: power management (C-states), hyper-threading,
//     turbo boost;
//   - different disk firmware versions, disk cache settings;
//   - cabling issues → wrong measurements by the monitoring service;
//   - broken hardware (RAM);
//   - random reboots (a cluster was decommissioned for this);
//   - a race condition in the Linux kernel causing boot delays;
//   - a bug in the OFED stack causing random failures to start IB apps;
//   - unreliable software services.
//
// A Fault mutates *live* state (node inventories or behaviour knobs) without
// updating the Reference API — exactly the drift that g5k-checks-style
// verification detects. Every fault is undoable so that the operator model
// in internal/core can "fix bugs".
package faults

import (
	"fmt"
	"sort"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

// Kind identifies a fault class.
type Kind string

// The fault catalogue.
const (
	DiskFirmwareDrift Kind = "disk-firmware-drift" // disk flashed with a different firmware
	DiskCacheOff      Kind = "disk-cache-off"      // write cache disabled → slow writes
	DiskDying         Kind = "disk-dying"          // media failing → slow reads, no desc change
	CStatesOn         Kind = "cstates-on"          // power mgmt re-enabled → perf jitter
	HyperThreadFlip   Kind = "hyperthread-flip"    // HT toggled from reference setting
	TurboFlip         Kind = "turbo-flip"          // turbo boost toggled
	RAMLoss           Kind = "ram-loss"            // a DIMM died → less memory
	WrongKernel       Kind = "wrong-kernel"        // std env booted an unexpected kernel
	CablingSwap       Kind = "cabling-swap"        // two nodes' cables exchanged on the switch
	RandomReboots     Kind = "random-reboots"      // node spontaneously reboots
	BootDelay         Kind = "boot-delay"          // kernel race → very slow boots
	OFEDFlaky         Kind = "ofed-flaky"          // IB stack randomly fails to start apps
	ServiceFlaky      Kind = "service-flaky"       // a site service returns errors
	ConsoleBroken     Kind = "console-broken"      // serial console unusable on a node
)

// AllKinds lists every fault kind, in a deterministic order.
var AllKinds = []Kind{
	DiskFirmwareDrift, DiskCacheOff, DiskDying, CStatesOn, HyperThreadFlip,
	TurboFlip, RAMLoss, WrongKernel, CablingSwap, RandomReboots, BootDelay,
	OFEDFlaky, ServiceFlaky, ConsoleBroken,
}

// Services that ServiceFlaky can degrade, mirroring the paper's software
// test families (cmdline, sidapi, console, kavlan, kwapi, deployment).
var Services = []string{"api", "oar", "kadeploy", "kavlan", "kwapi", "console"}

// Fault is one injected problem.
type Fault struct {
	ID         int
	Kind       Kind
	Node       string // primary node, "" for site-scoped faults
	PeerNode   string // second node for CablingSwap
	Site       string // for service faults
	Service    string // for service faults
	InjectedAt simclock.Time
	Fixed      bool
	FixedAt    simclock.Time

	sig  string // Signature, fixed when the injector registers the fault
	undo func()
}

// Signature is a stable identity used for bug deduplication: the same
// signature re-detected must not open a second bug report.
func (f *Fault) Signature() string { return f.sig }

// signature spells the signature out from the fault's fields.
func (f *Fault) signature() string {
	switch {
	case f.Service != "":
		return fmt.Sprintf("%s:%s/%s", f.Kind, f.Site, f.Service)
	case f.PeerNode != "":
		return fmt.Sprintf("%s:%s+%s", f.Kind, f.Node, f.PeerNode)
	default:
		return fmt.Sprintf("%s:%s", f.Kind, f.Node)
	}
}

func (f *Fault) String() string {
	return fmt.Sprintf("fault #%d %s (injected %s)", f.ID, f.Signature(), f.InjectedAt)
}

// DescriptionDrift reports whether this fault kind is visible as a
// divergence between the live inventory and the Reference API (detected by
// internal/checks), as opposed to purely behavioural faults that only
// functional tests can catch.
func (k Kind) DescriptionDrift() bool {
	switch k {
	case DiskFirmwareDrift, DiskCacheOff, CStatesOn, HyperThreadFlip,
		TurboFlip, RAMLoss, WrongKernel, CablingSwap:
		return true
	}
	return false
}

// nodeKind keys the per-node fault index.
type nodeKind struct {
	node string
	kind Kind
}

// Injector owns all active faults and answers behaviour queries from the
// other subsystems (deployment, monitoring, test scripts).
type Injector struct {
	clock *simclock.Clock
	tb    *testbed.Testbed

	// nodes/siteNames cache the (immutable) topology so the random
	// injection loop does not rebuild them on every arrival.
	nodes     []*testbed.Node
	siteNames []string

	nextID  int
	active  map[int]*Fault
	history []*Fault

	// byNode indexes active node-scoped faults by (node, kind), so the
	// behaviour queries every subsystem issues per node — reboot
	// probability at each deployment, boot delay, disk factors at every
	// monitoring sample — are O(1) lookups instead of scans over all
	// active faults. Values are counts (CablingSwap registers under both
	// of its nodes).
	byNode map[nodeKind]int

	// serviceErr caches site/service → error probability for fast lookup.
	serviceErr map[string]float64
}

// NewInjector returns an injector with no active faults.
func NewInjector(clock *simclock.Clock, tb *testbed.Testbed) *Injector {
	return &Injector{
		clock:      clock,
		tb:         tb,
		nodes:      tb.Nodes(),
		siteNames:  tb.SiteNames(),
		active:     map[int]*Fault{},
		byNode:     map[nodeKind]int{},
		serviceErr: map[string]float64{},
	}
}

// Active returns the active (unfixed) faults sorted by ID.
func (in *Injector) Active() []*Fault {
	out := make([]*Fault, 0, len(in.active))
	for _, f := range in.active {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// History returns every fault ever injected, fixed or not, in injection
// order.
func (in *Injector) History() []*Fault { return append([]*Fault(nil), in.history...) }

// ActiveCount returns the number of unfixed faults.
func (in *Injector) ActiveCount() int { return len(in.active) }

// BySignature returns the active fault with the given signature, or nil.
func (in *Injector) BySignature(sig string) *Fault {
	for _, f := range in.active {
		if f.sig == sig {
			return f
		}
	}
	return nil
}

// NodeFaults returns active fault kinds on the named node.
func (in *Injector) NodeFaults(node string) []Kind {
	var out []Kind
	for _, f := range in.Active() {
		if f.Node == node || f.PeerNode == node {
			out = append(out, f.Kind)
		}
	}
	return out
}

// HasFault reports whether the node currently suffers from the given kind.
// This is the hot behaviour query: an indexed O(1) lookup.
func (in *Injector) HasFault(node string, k Kind) bool {
	return in.byNode[nodeKind{node, k}] > 0
}

// Fix undoes a fault by ID. Fixing twice is an error, matching bug-tracker
// semantics (a closed bug cannot be closed again).
func (in *Injector) Fix(id int) error {
	f, ok := in.active[id]
	if !ok {
		return fmt.Errorf("faults: no active fault #%d", id)
	}
	if f.undo != nil {
		f.undo()
	}
	f.Fixed = true
	f.FixedAt = in.clock.Now()
	delete(in.active, id)
	in.unindex(f)
	return nil
}

// FixBySignature fixes the active fault carrying the signature, if any, and
// reports whether one was found.
func (in *Injector) FixBySignature(sig string) bool {
	f := in.BySignature(sig)
	if f == nil {
		return false
	}
	return in.Fix(f.ID) == nil
}

func (in *Injector) register(f *Fault) *Fault {
	in.nextID++
	f.ID = in.nextID
	f.InjectedAt = in.clock.Now()
	f.sig = f.signature()
	in.active[f.ID] = f
	in.history = append(in.history, f)
	if f.Node != "" {
		in.byNode[nodeKind{f.Node, f.Kind}]++
	}
	if f.PeerNode != "" {
		in.byNode[nodeKind{f.PeerNode, f.Kind}]++
	}
	return f
}

// unindex removes a fixed fault from the per-node index.
func (in *Injector) unindex(f *Fault) {
	for _, node := range []string{f.Node, f.PeerNode} {
		if node == "" {
			continue
		}
		k := nodeKind{node, f.Kind}
		if in.byNode[k]--; in.byNode[k] <= 0 {
			delete(in.byNode, k)
		}
	}
}
