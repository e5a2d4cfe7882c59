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
// node's live inventory (no clone — the simulation's run token serializes
// it against fault mutations) and diffs it field-by-field into a reused
// report buffer; strings are only built for fields that diverge. Cluster
// and whole-testbed sweeps shard the nodes across simulation goroutines
// (CheckClusterParallel / CheckTestbedParallel), the same run-token
// concurrency the CI executor pool uses.
package checks

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

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

	// CheckCost is the simulated time one node check occupies during
	// parallel sweeps (the real g5k-checks takes tens of seconds per boot).
	// Zero — the default — keeps sweeps instantaneous in simulated time,
	// preserving the timing of campaigns that predate parallel sweeps. Set
	// it before starting sweeps, not concurrently with one.
	CheckCost simclock.Time

	runs atomic.Int64
}

// NewChecker returns a checker bound to the testbed and reference store.
func NewChecker(clock *simclock.Clock, tb *testbed.Testbed, ref *refapi.Store) *Checker {
	return &Checker{clock: clock, tb: tb, ref: ref}
}

// Runs returns how many node checks have been performed. Safe to call
// concurrently with checks running on executor goroutines.
func (c *Checker) Runs() int { return int(c.runs.Load()) }

// Acquire reads the node's live inventory, as OHAI/ethtool would. It is a
// deep copy: callers can compare or store it without aliasing live state.
func (c *Checker) Acquire(node string) (testbed.Inventory, error) {
	n := c.tb.Node(node)
	if n == nil {
		return testbed.Inventory{}, fmt.Errorf("checks: unknown node %q", node)
	}
	return n.Inv.Clone(), nil
}

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
// cloned: the diff only reads it, and the simulation's run token (plus the
// testbed's ownership rules) serializes reads against fault mutations.
func (c *Checker) CheckNodeInto(node string, rep *Report) error {
	c.runs.Add(1)
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
	cl := c.tb.Cluster(cluster)
	if cl == nil {
		return nil, nil, fmt.Errorf("checks: unknown cluster %q", cluster)
	}
	var reports []*Report
	var failing []string
	for _, n := range cl.Nodes {
		r, err := c.CheckNode(n.Name)
		if err != nil {
			return nil, nil, err
		}
		reports = append(reports, r)
		if !r.OK {
			failing = append(failing, n.Name)
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Node < reports[j].Node })
	sort.Strings(failing)
	return reports, failing, nil
}

// CheckClusterParallel verifies every node of a cluster by sharding the
// checks across `workers` simulation goroutines, each check occupying
// CheckCost of simulated time on its worker — the deterministic analogue
// of fanning g5k-checks out over the management network. Results match
// CheckCluster: reports sorted by node name plus the failing list.
//
// Like the CI executor pool it mirrors, the sweep runs on run-token
// goroutines: call it from a simulation goroutine (a CI build script, or a
// function handed to Clock.Go), never from the driver.
func (c *Checker) CheckClusterParallel(cluster string, workers int) ([]*Report, []string, error) {
	return results(c.CheckClusterParallelInto(cluster, workers, nil))
}

// CheckClusterParallelInto is CheckClusterParallel writing its reports over
// buf (or a new slab when buf is short), returned in node-name order: a test,
// whose runs never overlap, hands its last result back in and allocates none.
func (c *Checker) CheckClusterParallelInto(cluster string, workers int, buf []Report) ([]Report, error) {
	cl := c.tb.Cluster(cluster)
	if cl == nil {
		return nil, fmt.Errorf("checks: unknown cluster %q", cluster)
	}
	return c.sweep(cl.Nodes, workers, buf)
}

// CheckTestbedParallel verifies every node of the testbed with a sharded
// sweep — the whole-campaign version of CheckClusterParallel, with the
// same calling convention.
func (c *Checker) CheckTestbedParallel(workers int) ([]*Report, []string, error) {
	return results(c.sweep(c.tb.Nodes(), workers, nil))
}

// results is a sweep's slab as one pointer per report plus the failing
// nodes' names.
func results(slab []Report, err error) (reports []*Report, failing []string, _ error) {
	if err == nil {
		reports = make([]*Report, len(slab))
	}
	for i := range slab {
		reports[i] = &slab[i]
		if !slab[i].OK {
			failing = append(failing, slab[i].Node)
		}
	}
	return reports, failing, err
}

// sweep fans the node list out over `workers` simulation goroutines in a
// strided shard (worker w checks nodes w, w+workers, ...), joins on a
// latch, and sorts. Workers write disjoint slots of the slab, so the shards
// never contend.
func (c *Checker) sweep(nodes []*testbed.Node, workers int, slab []Report) ([]Report, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(nodes) {
		workers = len(nodes)
	}
	if cap(slab) < len(nodes) {
		slab = make([]Report, len(nodes))
	}
	slab = slab[:len(nodes)]
	errs := make([]error, workers)
	latch := c.clock.NewLatch(workers)
	// One function for all workers: each takes the next shard as it starts.
	started := 0
	work := func() {
		defer latch.Done()
		w := started
		started++
		for i := w; i < len(nodes); i += workers {
			if err := c.CheckNodeInto(nodes[i].Name, &slab[i]); err != nil {
				errs[w] = err
				return
			}
			if c.CheckCost > 0 {
				c.clock.Sleep(c.CheckCost)
			}
		}
	}
	for w := 0; w < workers; w++ {
		c.clock.Go(work)
	}
	latch.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	slices.SortFunc(slab, func(a, b Report) int { return strings.Compare(a.Node, b.Node) })
	return slab, nil
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
