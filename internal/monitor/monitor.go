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
// detects exactly this by checking whose activity feeds each node's series
// (Attribution).
//
// Implementation note: rather than firing 894 events per simulated second
// for weeks (billions of events), the collector materialises 1 Hz samples
// lazily at query time. The campaign never loads a node, so every node
// draws its idle power and reads zero CPU and network load; noise is a
// deterministic hash of (target, second), so queries are reproducible and
// the simulation records nothing. A query draws nothing either: it never
// touches the campaign's RNG, so reading a series cannot change what the
// campaign does next. The kwapi test family rolls the service's flakiness
// itself, as one REST call of the campaign.
package monitor

import (
	"fmt"

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

// Collector is the monitoring service. Experiment scripts, which run in CI
// builds' clock events, query series; the event loop serializes them. The
// collector's own state is immutable after construction, but the
// power/net attribution path reads live testbed NIC state owned by the
// event loop, so queries come from clock events or from a caller holding
// the lock the clock steps under (the gateway's shard gate).
type Collector struct {
	clock *simclock.Clock
	tb    *testbed.Testbed

	// portOf is the monitoring database: node name → the switch port it
	// was cabled to at install time. Cabling faults change live NIC ports,
	// NOT this map — that divergence is the bug. It is immutable after
	// construction.
	portOf map[string]string

	// nodes caches the testbed's node list: attribution scans it on cable
	// mismatches, and rebuilding the slice per query dominated campaign
	// allocations before it was hoisted here.
	nodes []*testbed.Node
}

// NewCollector wires up the monitoring service from the testbed's current
// (healthy) cabling.
func NewCollector(clock *simclock.Clock, tb *testbed.Testbed) *Collector {
	c := &Collector{
		clock:  clock,
		tb:     tb,
		portOf: map[string]string{},
		nodes:  tb.Nodes(),
	}
	for _, n := range c.nodes {
		c.portOf[n.Name] = n.Inv.NICs[0].SwitchPort
	}
	return c
}

// Attribution returns the name of the node whose physical activity actually
// feeds the series published under target's name. On a healthy testbed this
// is target itself; under a cabling swap it is the peer node. The kwapi test
// family compares Attribution(n) with n to detect miswiring.
//
// Monitoring believes portOf[target] is target's port, so it reads that
// port, and the node *actually* plugged into it is whoever's live NIC
// carries it.
func (c *Collector) Attribution(target string) string {
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

// idlePowerW estimates a node's idle draw from its hardware (bigger, older
// boxes burn more).
func idlePowerW(n *testbed.Node) float64 {
	return 70 + 6*float64(n.Cores()) + 0.2*float64(n.Inv.RAMGB)
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

// Query returns the 1 Hz samples of a metric for a node over [from, to].
func (c *Collector) Query(metric, node string, from, to simclock.Time) ([]Sample, error) {
	if c.tb.Node(node) == nil {
		return nil, fmt.Errorf("monitor: unknown node %q", node)
	}
	if to < from {
		return nil, fmt.Errorf("monitor: inverted time range")
	}
	if now := c.clock.Now(); to > now {
		to = now
	}

	// Infrastructure metrics (power, net) go through the wiring database;
	// system metrics (cpu) come from an agent on the node itself and are
	// immune to cabling mistakes.
	source := node
	if metric == MetricPowerW || metric == MetricNetMbps {
		source = c.Attribution(node)
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
	idle := 0.0
	if metric == MetricPowerW {
		idle = idlePowerW(srcNode)
	}
	for s := start; s <= end; s++ {
		var v float64
		switch metric {
		case MetricPowerW:
			v = idle + noiseAt(seed, int64(s))
		case MetricCPULoad, MetricNetMbps:
		default:
			return nil, fmt.Errorf("monitor: unknown metric %q", metric)
		}
		out = append(out, Sample{T: s * SamplePeriod, V: v})
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
