// Package monitor simulates the testbed's experiment monitoring stack
// (slide 9): system-level probes plus infrastructure-level probes (power,
// network) captured at ≈1 Hz, exposed through a query API with long-term
// storage semantics.
//
// The crucial fidelity point is *attribution*: power meters and switch
// counters measure a PORT, and a wiring database maps ports to nodes. When
// a cabling fault swaps two nodes' cables, each node's consumption is
// attributed to the other node — the paper's "cabling issue → wrong
// measurements by testbed monitoring service". The kwapi test family
// detects exactly this by loading a node and watching its own power series.
//
// Implementation note: rather than firing 894 events per simulated second
// for weeks (billions of events), the collector records each node's load
// *changes* and materialises 1 Hz samples lazily at query time. Noise is a
// deterministic hash of (port, second), so queries are reproducible and the
// simulation stays O(load changes).
package monitor

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// Metric names understood by Query.
const (
	MetricPowerW  = "power_w"
	MetricCPULoad = "cpu_load"
	MetricNetMbps = "net_mbps"
)

// Sample is one measurement.
type Sample struct {
	T simclock.Time `json:"t"`
	V float64       `json:"v"`
}

// SamplePeriod is the probe frequency (slide 9: "captured at high frequency
// (≈1 Hz)").
const SamplePeriod = simclock.Second

type loadChange struct {
	at      simclock.Time
	cpu     float64 // 0..1
	netMbps float64
}

// Collector is the monitoring service. Experiment scripts on CI executor
// goroutines record load changes and query series; the simulation's run
// token serializes them against the event loop, and the collector's own
// measurement store additionally sits behind a read-write mutex (wiring
// is immutable after construction but shares the lock for simplicity).
// Note that the power/net attribution path also reads live testbed NIC
// state owned by the run token, so queries must come from simulation
// context — not from arbitrary outside goroutines while the clock runs.
type Collector struct {
	clock  *simclock.Clock
	tb     *testbed.Testbed
	faults *faults.Injector

	mu sync.RWMutex

	// wiring is the monitoring database: switch port → node name, recorded
	// at install time. Cabling faults change live NIC ports, NOT this map —
	// that divergence is the bug. portOf is the inverse (node name → its
	// recorded port); both are immutable after construction.
	wiring map[string]string
	portOf map[string]string

	// nodes caches the testbed's node list: attribution scans it on cable
	// mismatches, and rebuilding the slice per query dominated campaign
	// allocations before it was hoisted here.
	nodes []*testbed.Node

	// history of load changes per node (actual physical activity). The
	// campaign records none, so its nodes idle; tests load them.
	history map[string][]loadChange
}

// NewCollector wires up the monitoring service from the testbed's current
// (healthy) cabling.
func NewCollector(clock *simclock.Clock, tb *testbed.Testbed, inj *faults.Injector) *Collector {
	c := &Collector{
		clock:   clock,
		tb:      tb,
		faults:  inj,
		wiring:  map[string]string{},
		portOf:  map[string]string{},
		nodes:   tb.Nodes(),
		history: map[string][]loadChange{},
	}
	for _, n := range c.nodes {
		c.wiring[n.Inv.NICs[0].SwitchPort] = n.Name
		c.portOf[n.Name] = n.Inv.NICs[0].SwitchPort
	}
	return c
}

// loadAt returns the physical load of a node at time t. The caller holds
// the collector mutex (read side suffices).
func (c *Collector) loadAt(node string, t simclock.Time) loadChange {
	hist := c.history[node]
	// Binary search for the last change ≤ t.
	i := sort.Search(len(hist), func(i int) bool { return hist[i].at > t }) - 1
	if i < 0 {
		return loadChange{}
	}
	return hist[i]
}

// attributedNode resolves which node's physical activity lands in the
// series named after `target`: monitoring believes wiring[port]=target, so
// it reads the port, and the node *actually* plugged into that port is
// whoever's live NIC carries it. The caller holds the collector mutex.
func (c *Collector) attributedNode(target string) string {
	n := c.tb.Node(target)
	if n == nil {
		return ""
	}
	// The port that the wiring DB says belongs to target.
	port := c.portOf[target]
	if port == "" {
		return ""
	}
	// Fast path: on a healthy cabling the target itself still carries its
	// recorded port — no scan needed.
	if n.Inv.NICs[0].SwitchPort == port {
		return target
	}
	// A cable moved: find who is physically plugged into the port now.
	for _, other := range c.nodes {
		if other.Inv.NICs[0].SwitchPort == port {
			return other.Name
		}
	}
	return ""
}

// Attribution returns the name of the node whose physical activity actually
// feeds the series published under target's name. On a healthy testbed this
// is target itself; under a cabling swap it is the peer node. The kwapi test
// family compares Attribution(n) with n to detect miswiring.
func (c *Collector) Attribution(target string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.attributedNode(target)
}

// idlePowerW estimates a node's idle draw from its hardware (bigger, older
// boxes burn more).
func idlePowerW(n *testbed.Node) float64 {
	return 70 + 6*float64(n.Cores()) + 0.2*float64(n.Inv.RAMGB)
}

// peakExtraW is the additional draw at full load.
func peakExtraW(n *testbed.Node) float64 {
	return 9 * float64(n.Cores())
}

// noiseSeed is the FNV-1a prefix of the noise hash: it depends only on the
// target name, so Query hoists it out of the per-sample loop instead of
// re-hashing the string once per 1 Hz sample.
func noiseSeed(target string) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(target) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// noiseAt finishes the hash for one second, yielding a deterministic ±1 W
// wiggle that keeps query results reproducible without consuming RNG state.
func noiseAt(seed uint64, sec int64) float64 {
	h := seed ^ uint64(sec)
	h *= 1099511628211
	return float64(h%2000)/1000 - 1
}

// noise derives the wiggle from (target, second) in one call.
func noise(target string, sec int64) float64 {
	return noiseAt(noiseSeed(target), sec)
}

// Query returns the 1 Hz samples of a metric for a node over [from, to].
// It fails when the node's site has a flaky kwapi service (each query rolls
// the service's error rate once, like one REST call).
func (c *Collector) Query(metric, node string, from, to simclock.Time) ([]Sample, error) {
	n := c.tb.Node(node)
	if n == nil {
		return nil, fmt.Errorf("monitor: unknown node %q", node)
	}
	if c.faults != nil && c.faults.ServiceFails(n.Site, "kwapi") {
		return nil, fmt.Errorf("monitor: kwapi service error at %s", n.Site)
	}
	if to < from {
		return nil, fmt.Errorf("monitor: inverted time range")
	}
	if now := c.clock.Now(); to > now {
		to = now
	}

	c.mu.RLock()
	defer c.mu.RUnlock()

	// Infrastructure metrics (power, net) go through the wiring database;
	// system metrics (cpu) come from an agent on the node itself and are
	// immune to cabling mistakes.
	source := node
	if metric == MetricPowerW || metric == MetricNetMbps {
		source = c.attributedNode(node)
		if source == "" {
			return nil, fmt.Errorf("monitor: no probe wired for %q", node)
		}
	}
	srcNode := c.tb.Node(source)

	start := from / SamplePeriod
	end := to / SamplePeriod
	if end < start { // range entirely in the future (to was clamped to now)
		return nil, nil
	}
	out := make([]Sample, 0, int(end-start)+1)
	seed := noiseSeed(node)
	idle, peak := 0.0, 0.0
	if metric == MetricPowerW {
		idle, peak = idlePowerW(srcNode), peakExtraW(srcNode)
	}
	for s := start; s <= end; s++ {
		t := s * SamplePeriod
		load := c.loadAt(source, t)
		var v float64
		switch metric {
		case MetricPowerW:
			v = idle + load.cpu*peak + noiseAt(seed, int64(s))
		case MetricCPULoad:
			v = load.cpu
		case MetricNetMbps:
			v = load.netMbps
		default:
			return nil, fmt.Errorf("monitor: unknown metric %q", metric)
		}
		out = append(out, Sample{T: t, V: v})
	}
	return out, nil
}

// Mean averages a sample slice (0 for empty input).
func Mean(ss []Sample) float64 {
	if len(ss) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ss {
		sum += s.V
	}
	return sum / float64(len(ss))
}

// CheckRate verifies that samples are spaced exactly one SamplePeriod apart
// over the queried window — the probe-liveness check of the kwapi test
// family.
func CheckRate(ss []Sample) error {
	if len(ss) < 2 {
		return fmt.Errorf("monitor: too few samples (%d)", len(ss))
	}
	for i := 1; i < len(ss); i++ {
		if ss[i].T-ss[i-1].T != SamplePeriod {
			return fmt.Errorf("monitor: gap of %v between samples %d and %d",
				ss[i].T-ss[i-1].T, i-1, i)
		}
	}
	return nil
}
