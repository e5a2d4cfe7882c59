// Package refapi implements the Reference API: the machine-parsable (JSON)
// description of the testbed's resources, with archived versions.
//
// Slide 7 of the paper: resources are described in JSON so that scripts can
// consume them, descriptions are archived ("state of the testbed 6 months
// ago?"), and — critically — the description must be *verified* against
// reality, because maintenance and broken hardware make it drift. The
// verification itself lives in internal/checks; this package provides the
// description store and the structural diff.
//
// Performance notes: the diff is the hottest path of the whole simulator
// (g5k-checks runs it for every node at every boot and across whole
// clusters), so AppendDiff compares fields natively and only builds
// strings for fields that actually diverge — checking a clean node performs
// zero heap allocations. The Store archives versions as a copy-on-write
// delta chain: Update records only the changed nodes (O(changed) time and
// memory), and full Snapshots are materialized lazily — and cached — when
// an archived version is actually read.
package refapi

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/simclock"
	"repro/internal/testbed"
	"repro/internal/wire"
)

// NodeDescription is the reference (claimed) description of one node.
type NodeDescription struct {
	Name    string            `json:"name"`
	Cluster string            `json:"cluster"`
	Site    string            `json:"site"`
	Inv     testbed.Inventory `json:"inventory"`
}

// Snapshot is one archived version of the whole testbed description.
// Snapshots handed out by a Store are immutable.
type Snapshot struct {
	Version int                        `json:"version"`
	TakenAt simclock.Time              `json:"taken_at"`
	Nodes   map[string]NodeDescription `json:"nodes"`
}

// MarshalJSONIndent renders the snapshot as pretty JSON — the format users
// script against.
func (s *Snapshot) MarshalJSONIndent() ([]byte, error) {
	return wire.MarshalIndent(s)
}

// version is one link of the store's copy-on-write chain. Exactly one of
// the two cases holds:
//
//   - capture point (CaptureFrom/NewStore): snap is set eagerly and holds
//     the complete node set;
//   - delta (Update): delta holds only the nodes whose description changed
//     relative to the previous version, and snap is materialized lazily.
//
// TakenAt values are monotone non-decreasing along the chain (simulated
// time only moves forward), which is what lets At binary-search it.
type version struct {
	num     int
	takenAt simclock.Time
	delta   map[string]NodeDescription // changed nodes (delta versions only)
	snap    *Snapshot                  // cached materialization, immutable once set
}

// Store holds the current description plus the archive of every previous
// version. It is safe for concurrent read access (the status page's HTTP
// handlers read it); mutations happen from the single simulation goroutine.
type Store struct {
	mu       sync.RWMutex
	versions []*version
	// cur is the live accumulated node map of the latest version. It is
	// owned by the store and mutated in place by Update (O(changed nodes)),
	// never aliased by a handed-out Snapshot.
	cur map[string]NodeDescription

	// materializations counts how many times a full snapshot was actually
	// built (cache misses of the lazy delta chain). Readers that claim to
	// avoid re-materialization — the gateway's ETag/304 path — assert
	// against it.
	materializations atomic.Int64
}

// Materializations returns how many full-snapshot builds the store has
// performed. Cached reads (Version/At/Current returning an already
// materialized snapshot) do not count.
func (st *Store) Materializations() int64 { return st.materializations.Load() }

// NewStore captures version 1 of the description from the testbed's current
// live state. By construction the initial description is accurate; drift
// appears when faults later mutate live inventories.
func NewStore(tb *testbed.Testbed, now simclock.Time) *Store {
	st := &Store{}
	st.CaptureFrom(tb, now)
	return st
}

// CaptureFrom archives a new description version reflecting the testbed's
// current live state. Operators do this after fixing hardware ("update the
// reference API"), re-baselining the description. Captures are inherently
// O(total nodes); single-node corrections should use Update, which is
// O(changed nodes).
func (st *Store) CaptureFrom(tb *testbed.Testbed, now simclock.Time) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	nodes := make(map[string]NodeDescription)
	for _, n := range tb.Nodes() {
		nodes[n.Name] = NodeDescription{
			Name:    n.Name,
			Cluster: n.Cluster,
			Site:    n.Site,
			Inv:     n.Inv.Clone(),
		}
	}
	now = st.clampMonotoneLocked(now)
	v := &version{
		num:     len(st.versions) + 1,
		takenAt: now,
		snap:    &Snapshot{Version: len(st.versions) + 1, TakenAt: now, Nodes: nodes},
	}
	st.versions = append(st.versions, v)
	// cur must not alias the archived map: later Updates rewrite cur entries
	// in place. The NodeDescription values (and their cloned slices) are
	// shared — safe, because Update replaces whole values, never mutating
	// the inventories an archived snapshot points at.
	st.cur = make(map[string]NodeDescription, len(nodes))
	for k, d := range nodes {
		st.cur[k] = d
	}
	return v.snap
}

// Update replaces the description of a single node in a *new* version
// (descriptions are immutable once archived). Unlike CaptureFrom, Update is
// copy-on-write: it records a one-node delta, costing O(1) regardless of
// testbed size.
func (st *Store) Update(now simclock.Time, node string, inv testbed.Inventory) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	d, ok := st.cur[node]
	if !ok {
		return fmt.Errorf("refapi: cannot update unknown node %q", node)
	}
	d.Inv = inv.Clone()
	st.cur[node] = d
	st.versions = append(st.versions, &version{
		num:     len(st.versions) + 1,
		takenAt: st.clampMonotoneLocked(now),
		delta:   map[string]NodeDescription{node: d},
	})
	return nil
}

// clampMonotoneLocked enforces the invariant At's binary search relies on:
// version timestamps never go backwards. Simulated time is monotone, so a
// caller-supplied `now` earlier than the chain tail is a caller bug; we
// archive it at the tail's time rather than corrupting every archival
// query after it. Called with the write lock held.
func (st *Store) clampMonotoneLocked(now simclock.Time) simclock.Time {
	if n := len(st.versions); n > 0 && now < st.versions[n-1].takenAt {
		return st.versions[n-1].takenAt
	}
	return now
}

// Current returns the latest description version, materializing it if the
// store has seen Updates since the last materialization.
func (st *Store) Current() *Snapshot {
	st.mu.RLock()
	last := st.versions[len(st.versions)-1]
	snap := last.snap
	st.mu.RUnlock()
	if snap != nil {
		return snap
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.materializeLocked(len(st.versions) - 1)
}

// Version returns the archived snapshot with the given version number, or
// nil if it does not exist. Delta versions are materialized on first read
// and cached, so repeated archival queries stay cheap.
func (st *Store) Version(v int) *Snapshot {
	st.mu.RLock()
	if v < 1 || v > len(st.versions) {
		st.mu.RUnlock()
		return nil
	}
	if snap := st.versions[v-1].snap; snap != nil {
		st.mu.RUnlock()
		return snap
	}
	st.mu.RUnlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.materializeLocked(v - 1)
}

// Materialize is the explicit escape hatch from the copy-on-write
// representation: it returns the full snapshot of the given version number
// (nil when out of range), exactly like Version. The name exists so call
// sites can document that they are deliberately paying for a complete
// node map rather than a cheap point read (Describe).
func (st *Store) Materialize(v int) *Snapshot { return st.Version(v) }

// materializeLocked builds (and caches) the full snapshot of versions[i] by
// walking back to the nearest materialized ancestor and replaying deltas
// forward. Called with the write lock held.
func (st *Store) materializeLocked(i int) *Snapshot {
	ver := st.versions[i]
	if ver.snap != nil {
		return ver.snap
	}
	base := i
	for st.versions[base].snap == nil {
		base-- // version 1 is a capture point, so this terminates
	}
	src := st.versions[base].snap.Nodes
	nodes := make(map[string]NodeDescription, len(src))
	for k, d := range src {
		nodes[k] = d
	}
	for j := base + 1; j <= i; j++ {
		for k, d := range st.versions[j].delta {
			nodes[k] = d
		}
	}
	ver.snap = &Snapshot{Version: ver.num, TakenAt: ver.takenAt, Nodes: nodes}
	st.materializations.Add(1)
	return ver.snap
}

// VersionCount returns how many versions are archived.
func (st *Store) VersionCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.versions)
}

// At returns the snapshot that was current at time t (the latest version
// with TakenAt ≤ t), or nil if t precedes the first capture. This answers
// the paper's archival question: "state of the testbed 6 months ago?".
// Versions are timestamped in monotone simulated order, so the lookup is a
// binary search over the version chain.
func (st *Store) At(t simclock.Time) *Snapshot {
	st.mu.RLock()
	i := sort.Search(len(st.versions), func(i int) bool {
		return st.versions[i].takenAt > t
	}) - 1
	if i < 0 {
		st.mu.RUnlock()
		return nil
	}
	if snap := st.versions[i].snap; snap != nil {
		st.mu.RUnlock()
		return snap
	}
	st.mu.RUnlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.materializeLocked(i)
}

// VersionAt returns the number of the version that was current at time t
// (the latest version with TakenAt ≤ t) without materializing anything.
// ok is false when t precedes the first capture. This is the archival
// ETag path: the gateway builds composite per-site version vectors from
// it, so a conditional "grid as of T" request costs one binary search per
// site and zero snapshot builds.
func (st *Store) VersionAt(t simclock.Time) (int, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	i := sort.Search(len(st.versions), func(i int) bool {
		return st.versions[i].takenAt > t
	}) - 1
	if i < 0 {
		return 0, false
	}
	return st.versions[i].num, true
}

// Describe returns the current reference description of one node, or an
// error when the node is unknown — the refapi test family treats a missing
// description as a bug in itself. This is the verification hot path: a
// point read of the live map, no snapshot materialization, no copies
// beyond the returned value.
func (st *Store) Describe(node string) (NodeDescription, error) {
	st.mu.RLock()
	d, ok := st.cur[node]
	st.mu.RUnlock()
	if !ok {
		return NodeDescription{}, fmt.Errorf("refapi: no description for node %q", node)
	}
	return d, nil
}

// Difference is one divergence between two descriptions of the same node.
type Difference struct {
	Node     string `json:"node"`
	Field    string `json:"field"`
	Expected string `json:"expected"`
	Actual   string `json:"actual"`
}

func (d Difference) String() string {
	var b strings.Builder
	b.Grow(len(d.Node) + len(d.Field) + len(d.Expected) + len(d.Actual) + 32)
	b.WriteString(d.Node)
	b.WriteString(": ")
	b.WriteString(d.Field)
	b.WriteString(": expected ")
	b.WriteString(strconv.Quote(d.Expected))
	b.WriteString(", got ")
	b.WriteString(strconv.Quote(d.Actual))
	return b.String()
}

// AppendDiff appends every field-level divergence between a reference
// inventory and an observed one to dst and returns the extended slice: the
// comparison g5k-checks performs between the Reference API and what
// OHAI/ethtool report. Fields are compared natively — strings are only
// built for fields that actually diverge, so diffing two identical
// inventories into a reused dst performs zero allocations.
func AppendDiff(dst []Difference, node string, ref, got testbed.Inventory) []Difference {
	if ref.CPU.Model != got.CPU.Model {
		dst = append(dst, Difference{node, "cpu.model", ref.CPU.Model, got.CPU.Model})
	}
	if ref.CPU.Sockets != got.CPU.Sockets {
		dst = append(dst, Difference{node, "cpu.sockets", itoa(ref.CPU.Sockets), itoa(got.CPU.Sockets)})
	}
	if ref.CPU.CoresPerSocket != got.CPU.CoresPerSocket {
		dst = append(dst, Difference{node, "cpu.cores_per_socket", itoa(ref.CPU.CoresPerSocket), itoa(got.CPU.CoresPerSocket)})
	}
	if ref.CPU.FreqMHz != got.CPU.FreqMHz {
		dst = append(dst, Difference{node, "cpu.freq_mhz", itoa(ref.CPU.FreqMHz), itoa(got.CPU.FreqMHz)})
	}
	if ref.CPU.Microcode != got.CPU.Microcode {
		dst = append(dst, Difference{node, "cpu.microcode", ref.CPU.Microcode, got.CPU.Microcode})
	}
	if ref.RAMGB != got.RAMGB {
		dst = append(dst, Difference{node, "ram_gb", itoa(ref.RAMGB), itoa(got.RAMGB)})
	}
	if ref.BIOS.Version != got.BIOS.Version {
		dst = append(dst, Difference{node, "bios.version", ref.BIOS.Version, got.BIOS.Version})
	}
	if ref.BIOS.HyperThreading != got.BIOS.HyperThreading {
		dst = append(dst, Difference{node, "bios.hyperthreading", btoa(ref.BIOS.HyperThreading), btoa(got.BIOS.HyperThreading)})
	}
	if ref.BIOS.TurboBoost != got.BIOS.TurboBoost {
		dst = append(dst, Difference{node, "bios.turbo_boost", btoa(ref.BIOS.TurboBoost), btoa(got.BIOS.TurboBoost)})
	}
	if ref.BIOS.CStates != got.BIOS.CStates {
		dst = append(dst, Difference{node, "bios.c_states", btoa(ref.BIOS.CStates), btoa(got.BIOS.CStates)})
	}
	if ref.BIOS.PowerProfile != got.BIOS.PowerProfile {
		dst = append(dst, Difference{node, "bios.power_profile", ref.BIOS.PowerProfile, got.BIOS.PowerProfile})
	}
	if ref.GPUModel != got.GPUModel {
		dst = append(dst, Difference{node, "gpu_model", ref.GPUModel, got.GPUModel})
	}
	if ref.Infiniband != got.Infiniband {
		dst = append(dst, Difference{node, "infiniband", ref.Infiniband, got.Infiniband})
	}
	if ref.OSKernel != got.OSKernel {
		dst = append(dst, Difference{node, "os_kernel", ref.OSKernel, got.OSKernel})
	}

	if len(ref.Disks) != len(got.Disks) {
		dst = append(dst, Difference{node, "disks.count", itoa(len(ref.Disks)), itoa(len(got.Disks))})
	} else {
		for i := range ref.Disks {
			rd, gd := &ref.Disks[i], &got.Disks[i]
			// Field labels are keyed by the reference device name; a device
			// identity drift is itself a difference.
			if rd.Device != gd.Device {
				dst = append(dst, Difference{node, diskField(rd.Device, "device"), rd.Device, gd.Device})
			}
			if rd.Vendor != gd.Vendor {
				dst = append(dst, Difference{node, diskField(rd.Device, "vendor"), rd.Vendor, gd.Vendor})
			}
			if rd.Model != gd.Model {
				dst = append(dst, Difference{node, diskField(rd.Device, "model"), rd.Model, gd.Model})
			}
			if rd.Firmware != gd.Firmware {
				dst = append(dst, Difference{node, diskField(rd.Device, "firmware"), rd.Firmware, gd.Firmware})
			}
			if rd.CapacityGB != gd.CapacityGB {
				dst = append(dst, Difference{node, diskField(rd.Device, "capacity_gb"), itoa(rd.CapacityGB), itoa(gd.CapacityGB)})
			}
			if rd.WriteCache != gd.WriteCache {
				dst = append(dst, Difference{node, diskField(rd.Device, "write_cache"), btoa(rd.WriteCache), btoa(gd.WriteCache)})
			}
		}
	}
	if len(ref.NICs) != len(got.NICs) {
		dst = append(dst, Difference{node, "nics.count", itoa(len(ref.NICs)), itoa(len(got.NICs))})
	} else {
		for i := range ref.NICs {
			rn, gn := &ref.NICs[i], &got.NICs[i]
			if rn.Name != gn.Name {
				dst = append(dst, Difference{node, nicField(rn.Name, "name"), rn.Name, gn.Name})
			}
			if rn.RateGbps != gn.RateGbps {
				dst = append(dst, Difference{node, nicField(rn.Name, "rate_gbps"), itoa(rn.RateGbps), itoa(gn.RateGbps)})
			}
			if rn.Driver != gn.Driver {
				dst = append(dst, Difference{node, nicField(rn.Name, "driver"), rn.Driver, gn.Driver})
			}
			if rn.MAC != gn.MAC {
				dst = append(dst, Difference{node, nicField(rn.Name, "mac"), rn.MAC, gn.MAC})
			}
			if rn.SwitchPort != gn.SwitchPort {
				dst = append(dst, Difference{node, nicField(rn.Name, "switch_port"), rn.SwitchPort, gn.SwitchPort})
			}
		}
	}
	return dst
}

// diskField builds "disks[<device>].<field>" — only reached on mismatch.
func diskField(device, field string) string {
	return "disks[" + device + "]." + field
}

// nicField builds "nics[<name>].<field>" — only reached on mismatch.
func nicField(name, field string) string {
	return "nics[" + name + "]." + field
}

// DiffSnapshots compares two whole-testbed snapshots and returns all
// node-level differences, plus differences for nodes present in only one of
// the two. Output is sorted by node then field, so the report is
// deterministic regardless of map iteration order.
func DiffSnapshots(a, b *Snapshot) []Difference {
	var out []Difference
	for name, da := range a.Nodes {
		db, ok := b.Nodes[name]
		if !ok {
			out = append(out, Difference{Node: name, Field: "presence", Expected: "present", Actual: "missing"})
			continue
		}
		out = AppendDiff(out, name, da.Inv, db.Inv)
	}
	for name := range b.Nodes {
		if _, ok := a.Nodes[name]; !ok {
			out = append(out, Difference{Node: name, Field: "presence", Expected: "missing", Actual: "present"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Field < out[j].Field
	})
	return out
}

func itoa(i int) string  { return strconv.Itoa(i) }
func btoa(b bool) string { return strconv.FormatBool(b) }
