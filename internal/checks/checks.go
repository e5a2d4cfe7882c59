// Package checks implements the g5k-checks equivalent (slide 7): a per-node
// verification tool that acquires the node's actual hardware inventory (the
// real tool shells out to OHAI, ethtool, dmidecode...) and compares it with
// the Reference API description. Mismatches mean either broken hardware or
// a stale description — both harm experiment reproducibility.
//
// Like the real tool, it runs at node boot (wired into deployment flows by
// internal/core) or manually (the refapi test family runs it across whole
// clusters).
//
// The verification hot path is allocation-free: CheckNodeInto borrows the
// node's live inventory (no clone — clock events run one at a time, so no
// fault mutates it mid-check) and diffs it field-by-field into a reused
// report buffer; strings are only built for fields that diverge. A cluster
// sweep (CheckClusterInto) checks its nodes one after the other, at one
// instant, in node-name order: the order is fixed once, at NewChecker, so a
// sweep sorts nothing. The whole-testbed sweep (CheckTestbedParallel)
// shards the nodes over chains of clock events, each check costing
// simulated time, and sorts its reports at the end. A Checker has no lock:
// it belongs to the goroutine stepping its clock.
package checks

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/refapi"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// Report is the outcome of checking one node.
type Report struct {
	Node       string
	At         simclock.Time
	OK         bool
	Mismatches []refapi.Difference
}

// Summary renders a one-line, operator-friendly verdict.
func (r *Report) Summary() string {
	if r.OK {
		return r.Node + ": OK"
	}
	var b strings.Builder
	b.Grow(len(r.Node) + 24 + 16*len(r.Mismatches))
	b.WriteString(r.Node)
	b.WriteString(": ")
	b.WriteString(strconv.Itoa(len(r.Mismatches)))
	b.WriteString(" mismatch(es): ")
	for i, m := range r.Mismatches {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(m.Field)
	}
	return b.String()
}

// Checker verifies nodes against a reference store.
type Checker struct {
	clock *simclock.Clock
	tb    *testbed.Testbed
	ref   *refapi.Store
	// sweeps holds each cluster's node names in name order, the order a
	// cluster sweep reports in.
	sweeps map[string][]string

	runs int
}

// NewChecker returns a checker bound to the testbed and reference store.
func NewChecker(clock *simclock.Clock, tb *testbed.Testbed, ref *refapi.Store) *Checker {
	clusters := tb.Clusters()
	sweeps := make(map[string][]string, len(clusters))
	for _, cl := range clusters {
		names := make([]string, len(cl.Nodes))
		for i, n := range cl.Nodes {
			names[i] = n.Name
		}
		slices.Sort(names)
		sweeps[cl.Name] = names
	}
	return &Checker{clock: clock, tb: tb, ref: ref, sweeps: sweeps}
}

// Runs returns how many node checks have been performed.
func (c *Checker) Runs() int { return c.runs }

// CheckNode verifies one node against the current reference description.
func (c *Checker) CheckNode(node string) (*Report, error) {
	rep := &Report{}
	if err := c.CheckNodeInto(node, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// CheckNodeInto verifies one node, writing the outcome into rep. The
// report's Mismatches slice is reused (truncated and appended to), so a
// caller sweeping many nodes with one report performs zero allocations per
// clean node. The live inventory is borrowed for the comparison, not
// cloned: the diff only reads it, and the event loop (plus the testbed's
// ownership rules) serializes reads against fault mutations.
func (c *Checker) CheckNodeInto(node string, rep *Report) error {
	c.runs++
	n := c.tb.Node(node)
	if n == nil {
		return fmt.Errorf("checks: unknown node %q", node)
	}
	ref, err := c.ref.Describe(node)
	if err != nil {
		return err
	}
	rep.Node = node
	rep.At = c.clock.Now()
	rep.Mismatches = refapi.AppendDiff(rep.Mismatches[:0], node, ref.Inv, n.Inv)
	rep.OK = len(rep.Mismatches) == 0
	return nil
}

// CheckCluster verifies every node of a cluster, returning reports sorted
// by node name and the list of failing nodes.
func (c *Checker) CheckCluster(cluster string) ([]*Report, []string, error) {
	slab, err := c.CheckClusterInto(cluster, nil)
	if err != nil {
		return nil, nil, err
	}
	reports := make([]*Report, len(slab))
	var failing []string
	for i := range slab {
		reports[i] = &slab[i]
		if !slab[i].OK {
			failing = append(failing, slab[i].Node)
		}
	}
	return reports, failing, nil
}

// CheckClusterInto verifies every node of a cluster, writing the reports
// over buf (or a new slab when buf is short) in node-name order: a caller
// whose sweeps never overlap hands its last result back in and allocates
// none.
func (c *Checker) CheckClusterInto(cluster string, buf []Report) ([]Report, error) {
	names, ok := c.sweeps[cluster]
	if !ok {
		return nil, fmt.Errorf("checks: unknown cluster %q", cluster)
	}
	if cap(buf) < len(names) {
		buf = make([]Report, len(names))
	}
	buf = buf[:len(names)]
	for i, name := range names {
		if err := c.CheckNodeInto(name, &buf[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func byNode(a, b Report) int { return strings.Compare(a.Node, b.Node) }

// CheckTestbedParallel verifies every node of the testbed in a sweep
// sharded over `workers` — the deterministic analogue of fanning g5k-checks
// out over the management network. Worker w checks nodes w, w+workers, ...
// as one chain of clock events: each check occupies cost of simulated time
// before the next, so the sweep takes ⌈nodes/workers⌉ × cost. A worker
// stops at its first error. Once every chain has ended, done receives the
// reports in node-name order, or the first error met.
func (c *Checker) CheckTestbedParallel(workers int, cost simclock.Time, done func([]Report, error)) {
	nodes := c.tb.Nodes()
	workers = min(max(workers, 1), len(nodes))
	slab := make([]Report, len(nodes))
	if workers == 0 {
		done(slab, nil)
		return
	}
	var first error
	left := workers
	for w := range workers {
		i := w
		var check func()
		check = func() {
			if i < len(nodes) {
				err := c.CheckNodeInto(nodes[i].Name, &slab[i])
				if i += workers; err == nil {
					c.clock.After(cost, check)
					return
				}
				first = cmp.Or(first, err)
			}
			if left--; left > 0 {
				return
			}
			if first != nil {
				done(nil, first)
				return
			}
			slices.SortFunc(slab, byNode)
			done(slab, nil)
		}
		check()
	}
}

// HomogeneityReport lists, for a field extractor, the distinct values seen
// across a cluster's live inventories. Clusters are supposed to be uniform;
// more than one value means some nodes drifted (e.g. the paper's "different
// disk firmware versions" bug) even if the reference description itself is
// stale.
func (c *Checker) HomogeneityReport(cluster string, field func(testbed.Inventory) string) (map[string][]string, error) {
	cl := c.tb.Cluster(cluster)
	if cl == nil {
		return nil, fmt.Errorf("checks: unknown cluster %q", cluster)
	}
	byValue := map[string][]string{}
	for _, n := range cl.Nodes {
		v := field(n.Inv)
		byValue[v] = append(byValue[v], n.Name)
	}
	for _, nodes := range byValue {
		sort.Strings(nodes)
	}
	return byValue, nil
}
