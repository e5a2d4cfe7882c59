package refapi

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

func newStore(t *testing.T) (*testbed.Testbed, *Store) {
	t.Helper()
	tb := testbed.Default()
	return tb, NewStore(tb, 0)
}

func TestInitialSnapshotAccurate(t *testing.T) {
	tb, st := newStore(t)
	cur := st.Current()
	if cur.Version != 1 {
		t.Fatalf("version = %d, want 1", cur.Version)
	}
	if len(cur.Nodes) != tb.TotalNodes() {
		t.Fatalf("described %d nodes, want %d", len(cur.Nodes), tb.TotalNodes())
	}
	for _, n := range tb.Nodes() {
		if diffs := AppendDiff(nil, n.Name, cur.Nodes[n.Name].Inv, n.Inv); len(diffs) != 0 {
			t.Fatalf("fresh description already drifted for %s: %v", n.Name, diffs)
		}
	}
}

func TestSnapshotDoesNotAliasLiveState(t *testing.T) {
	tb, st := newStore(t)
	n := tb.Node("griffon-1.nancy")
	n.Inv.Disks[0].Firmware = "MUTATED"
	if st.Current().Nodes[n.Name].Inv.Disks[0].Firmware == "MUTATED" {
		t.Fatal("snapshot aliases live inventory")
	}
}

func TestDescribe(t *testing.T) {
	_, st := newStore(t)
	d, err := st.Describe("taurus-7.lyon")
	if err != nil {
		t.Fatal(err)
	}
	if d.Cluster != "taurus" || d.Site != "lyon" {
		t.Fatalf("bad description: %+v", d)
	}
	if _, err := st.Describe("ghost-1.limbo"); err == nil {
		t.Fatal("Describe of unknown node succeeded")
	}
}

func TestDiffDetectsMutations(t *testing.T) {
	tb, st := newStore(t)
	n := tb.Node("suno-3.sophia")
	ref, _ := st.Describe(n.Name)

	n.Inv.BIOS.CStates = true
	n.Inv.Disks[0].WriteCache = false
	n.Inv.Disks[0].Firmware = "ES62"
	n.Inv.RAMGB = 16 // one DIMM died

	diffs := AppendDiff(nil, n.Name, ref.Inv, n.Inv)
	fields := map[string]bool{}
	for _, d := range diffs {
		fields[d.Field] = true
	}
	for _, want := range []string{"bios.c_states", "disks[sda].write_cache", "disks[sda].firmware", "ram_gb"} {
		if !fields[want] {
			t.Errorf("diff missed field %s (got %v)", want, diffs)
		}
	}
	if len(diffs) != 4 {
		t.Errorf("got %d diffs, want 4: %v", len(diffs), diffs)
	}
}

func TestDiffReportsExpectedAndActual(t *testing.T) {
	tb, st := newStore(t)
	n := tb.Node("edel-2.grenoble")
	ref, _ := st.Describe(n.Name)
	n.Inv.RAMGB = 12
	diffs := AppendDiff(nil, n.Name, ref.Inv, n.Inv)
	if len(diffs) != 1 {
		t.Fatalf("diffs = %v", diffs)
	}
	d := diffs[0]
	if d.Expected != "24" || d.Actual != "12" {
		t.Fatalf("expected/actual = %q/%q", d.Expected, d.Actual)
	}
	if !strings.Contains(d.String(), "edel-2.grenoble") {
		t.Fatalf("String() = %q", d.String())
	}
}

// A drifted disk device or NIC name is an identity mismatch in its own
// right, even when every other field agrees.
func TestDiffDetectsDeviceIdentityDrift(t *testing.T) {
	tb, st := newStore(t)
	n := tb.Node("griffon-3.nancy")
	ref, _ := st.Describe(n.Name)
	n.Inv.Disks[0].Device = "nvme0n1"
	n.Inv.NICs[0].Name = "enp1s0"
	diffs := AppendDiff(nil, n.Name, ref.Inv, n.Inv)
	if len(diffs) != 2 {
		t.Fatalf("diffs = %v, want 2", diffs)
	}
	if diffs[0].Field != "disks[sda].device" || diffs[0].Actual != "nvme0n1" {
		t.Fatalf("disk identity diff = %+v", diffs[0])
	}
	if diffs[1].Field != "nics[eth0].name" || diffs[1].Actual != "enp1s0" {
		t.Fatalf("nic identity diff = %+v", diffs[1])
	}
}

func TestDiffDiskCountMismatch(t *testing.T) {
	tb, st := newStore(t)
	n := tb.Node("parasilo-1.rennes")
	ref, _ := st.Describe(n.Name)
	n.Inv.Disks = n.Inv.Disks[:3] // two disks vanished
	diffs := AppendDiff(nil, n.Name, ref.Inv, n.Inv)
	if len(diffs) != 1 || diffs[0].Field != "disks.count" {
		t.Fatalf("diffs = %v", diffs)
	}
}

func TestUpdateCreatesNewVersion(t *testing.T) {
	tb, st := newStore(t)
	n := tb.Node("helios-5.sophia")
	inv := n.Inv.Clone()
	inv.RAMGB = 16
	if err := st.Update(3*simclock.Hour, n.Name, inv); err != nil {
		t.Fatal(err)
	}
	if st.VersionCount() != 2 {
		t.Fatalf("versions = %d, want 2", st.VersionCount())
	}
	if got, _ := st.Describe(n.Name); got.Inv.RAMGB != 16 {
		t.Fatalf("updated RAM = %d, want 16", got.Inv.RAMGB)
	}
	// The old version is untouched.
	if st.Version(1).Nodes[n.Name].Inv.RAMGB != 8 {
		t.Fatal("archived version mutated by Update")
	}
	if err := st.Update(0, "ghost-1.limbo", inv); err == nil {
		t.Fatal("Update of unknown node succeeded")
	}
}

func TestArchiveAt(t *testing.T) {
	tb := testbed.Default()
	st := NewStore(tb, 10*simclock.Hour)
	n := tb.Node("sol-1.sophia")
	inv := n.Inv.Clone()
	inv.RAMGB = 8
	if err := st.Update(20*simclock.Hour, n.Name, inv); err != nil {
		t.Fatal(err)
	}

	if s := st.At(5 * simclock.Hour); s != nil {
		t.Fatal("At before first capture should be nil")
	}
	if s := st.At(15 * simclock.Hour); s == nil || s.Version != 1 {
		t.Fatalf("At(15h) = %v, want version 1", s)
	}
	if s := st.At(25 * simclock.Hour); s == nil || s.Version != 2 {
		t.Fatalf("At(25h) = %v, want version 2", s)
	}
	if st.Version(0) != nil || st.Version(3) != nil {
		t.Fatal("out-of-range Version lookups should be nil")
	}
}

// TestArchiveAtEdges pins the binary search down at its edges: exactly on
// a capture boundary, strictly between versions, before the first capture,
// and the caching contract — repeated At calls for the same instant build
// the snapshot once (Materializations is how the gateway's 304 path proves
// it re-materializes nothing).
func TestArchiveAtEdges(t *testing.T) {
	tb := testbed.Default()
	st := NewStore(tb, 10*simclock.Hour)
	n := tb.Node("sol-1.sophia")
	inv := n.Inv.Clone()
	inv.RAMGB = 8
	if err := st.Update(20*simclock.Hour, n.Name, inv); err != nil {
		t.Fatal(err)
	}
	inv2 := inv.Clone()
	inv2.RAMGB = 12
	if err := st.Update(30*simclock.Hour, n.Name, inv2); err != nil {
		t.Fatal(err)
	}

	// Exactly on a capture boundary: TakenAt ≤ t is inclusive, so t equal
	// to a version's timestamp selects that version, not its predecessor.
	if s := st.At(20 * simclock.Hour); s == nil || s.Version != 2 {
		t.Fatalf("At(boundary 20h) version = %v, want 2", s)
	}
	if s := st.At(10 * simclock.Hour); s == nil || s.Version != 1 {
		t.Fatalf("At(first capture boundary) version = %v, want 1", s)
	}
	// Strictly between versions: the earlier one is still current.
	if s := st.At(25 * simclock.Hour); s == nil || s.Version != 2 {
		t.Fatalf("At(between 20h and 30h) version = %v, want 2", s)
	}
	// Before the first capture: no version existed.
	if s := st.At(10*simclock.Hour - 1); s != nil {
		t.Fatalf("At(before first capture) = %v, want nil", s)
	}

	// Repeated At for the same instant must hit the cached materialization.
	// Version 3 (the 30h delta) has not been read yet: the first At builds
	// it, every later At returns the cached snapshot.
	before := st.Materializations()
	first := st.At(35 * simclock.Hour)
	afterFirst := st.Materializations()
	if afterFirst != before+1 {
		t.Fatalf("first At materialized %d times, want 1", afterFirst-before)
	}
	for i := 0; i < 10; i++ {
		if again := st.At(35 * simclock.Hour); again != first {
			t.Fatal("repeated At returned a different snapshot pointer")
		}
	}
	if st.Materializations() != afterFirst {
		t.Fatalf("repeated At re-materialized (%d builds after, %d before)",
			st.Materializations(), afterFirst)
	}
}

// TestVersionAt pins the materialization-free twin of At: same binary
// search, version numbers only, zero snapshot builds.
func TestVersionAt(t *testing.T) {
	tb := testbed.Default()
	st := NewStore(tb, 10*simclock.Hour)
	n := tb.Node("sol-1.sophia")
	inv := n.Inv.Clone()
	inv.RAMGB = 8
	if err := st.Update(20*simclock.Hour, n.Name, inv); err != nil {
		t.Fatal(err)
	}

	if v, ok := st.VersionAt(5 * simclock.Hour); ok {
		t.Fatalf("VersionAt(before first capture) = %d, want none", v)
	}
	if v, ok := st.VersionAt(10 * simclock.Hour); !ok || v != 1 {
		t.Fatalf("VersionAt(10h) = %d,%v, want 1", v, ok)
	}
	if v, ok := st.VersionAt(15 * simclock.Hour); !ok || v != 1 {
		t.Fatalf("VersionAt(15h) = %d,%v, want 1", v, ok)
	}
	if v, ok := st.VersionAt(20 * simclock.Hour); !ok || v != 2 {
		t.Fatalf("VersionAt(20h) = %d,%v, want 2", v, ok)
	}
	if v, ok := st.VersionAt(52 * simclock.Week); !ok || v != 2 {
		t.Fatalf("VersionAt(far future) = %d,%v, want 2", v, ok)
	}
	// The whole point: answering "which version" builds no snapshots.
	if st.Materializations() != 0 {
		t.Fatalf("VersionAt materialized %d snapshots, want 0", st.Materializations())
	}
}

// cloneSnapshot deep-copies a snapshot, so a test can drift the copy.
func cloneSnapshot(s *Snapshot) *Snapshot {
	out := &Snapshot{Version: s.Version, TakenAt: s.TakenAt, Nodes: make(map[string]NodeDescription, len(s.Nodes))}
	for k, v := range s.Nodes {
		v.Inv = v.Inv.Clone()
		out.Nodes[k] = v
	}
	return out
}

func TestDiffSnapshotsPresence(t *testing.T) {
	_, st := newStore(t)
	a := st.Current()
	b := cloneSnapshot(a)
	delete(b.Nodes, "uvb-1.sophia")
	diffs := DiffSnapshots(a, b)
	if len(diffs) != 1 || diffs[0].Field != "presence" || diffs[0].Actual != "missing" {
		t.Fatalf("diffs = %v", diffs)
	}
	// And symmetric direction.
	diffs = DiffSnapshots(b, a)
	if len(diffs) != 1 || diffs[0].Actual != "present" {
		t.Fatalf("reverse diffs = %v", diffs)
	}
}

func TestDiffSnapshotsSorted(t *testing.T) {
	_, st := newStore(t)
	a := st.Current()
	b := cloneSnapshot(a)
	for _, name := range []string{"sol-9.sophia", "edel-1.grenoble", "graphene-40.nancy"} {
		d := b.Nodes[name]
		d.Inv.RAMGB++
		d.Inv.BIOS.CStates = true
		b.Nodes[name] = d
	}
	diffs := DiffSnapshots(a, b)
	for i := 1; i < len(diffs); i++ {
		if diffs[i-1].Node > diffs[i].Node {
			t.Fatalf("diff output not sorted: %v before %v", diffs[i-1], diffs[i])
		}
	}
	if len(diffs) != 6 {
		t.Fatalf("got %d diffs, want 6", len(diffs))
	}
}

// Property: AppendDiff(nil, x, x) is empty for arbitrary mutations of a real
// inventory — a description always matches itself.
func TestDiffSelfIsEmptyProperty(t *testing.T) {
	tb := testbed.Default()
	base := tb.Node("griffon-1.nancy").Inv
	f := func(ram uint16, fw string, cstates bool) bool {
		inv := base.Clone()
		inv.RAMGB = int(ram)
		inv.Disks[0].Firmware = fw
		inv.BIOS.CStates = cstates
		return len(AppendDiff(nil, "n", inv, inv.Clone())) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of differences equals the number of mutated scalar
// fields (no double counting, no misses) for the fields we mutate.
func TestDiffCountsProperty(t *testing.T) {
	tb := testbed.Default()
	base := tb.Node("taurus-1.lyon").Inv
	f := func(mutRAM, mutKernel, mutTurbo bool) bool {
		inv := base.Clone()
		want := 0
		if mutRAM {
			inv.RAMGB += 7
			want++
		}
		if mutKernel {
			inv.OSKernel += "-broken"
			want++
		}
		if mutTurbo {
			inv.BIOS.TurboBoost = !inv.BIOS.TurboBoost
			want++
		}
		return len(AppendDiff(nil, "n", base, inv)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The copy-on-write store must preserve archival semantics: once a version
// is handed out (or even merely recorded), later Updates and CaptureFroms
// must not change what it says — byte-for-byte, since users script against
// the JSON. This covers the paper's "state of the testbed 6 months ago"
// query across subsequent churn.
func TestArchivedVersionsImmutableUnderChurn(t *testing.T) {
	tb := testbed.Default()
	st := NewStore(tb, simclock.Hour)
	n := tb.Node("taurus-3.lyon")

	inv := n.Inv.Clone()
	inv.RAMGB = 64
	if err := st.Update(2*simclock.Hour, n.Name, inv); err != nil {
		t.Fatal(err)
	}

	// Render v1 and v2 (and the archival At query) before the churn.
	v1Before, err := st.Version(1).MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	v2Before, _ := st.Version(2).MarshalJSONIndent()
	atBefore, _ := st.At(90 * simclock.Minute).MarshalJSONIndent()

	// Churn: many single-node updates, a live-state mutation, and a full
	// re-capture ("6 months" later).
	for i, name := range []string{"sol-1.sophia", "edel-2.grenoble", "taurus-3.lyon", "griffon-10.nancy"} {
		inv := tb.Node(name).Inv.Clone()
		inv.OSKernel = "4.9.0-churn"
		if err := st.Update(simclock.Time(3+i)*simclock.Hour, name, inv); err != nil {
			t.Fatal(err)
		}
	}
	tb.Node("taurus-3.lyon").Inv.BIOS.TurboBoost = false
	st.CaptureFrom(tb, 6*30*simclock.Day)

	v1After, _ := st.Version(1).MarshalJSONIndent()
	v2After, _ := st.Version(2).MarshalJSONIndent()
	atAfter, _ := st.At(90 * simclock.Minute).MarshalJSONIndent()
	if string(v1Before) != string(v1After) {
		t.Fatal("version 1 changed after later Update/CaptureFrom")
	}
	if string(v2Before) != string(v2After) {
		t.Fatal("version 2 changed after later Update/CaptureFrom")
	}
	if string(atBefore) != string(atAfter) {
		t.Fatal("archival At() answer changed after later churn")
	}

	// The archival question still answers from the far future.
	old := st.At(3 * 30 * simclock.Day)
	if old == nil || old.Nodes["taurus-3.lyon"].Inv.BIOS.TurboBoost != true {
		t.Fatal("state-6-months-ago query does not reflect the pre-repair description")
	}
	if cur := st.Current(); cur.Nodes["taurus-3.lyon"].Inv.BIOS.TurboBoost != false {
		t.Fatalf("current description missed the re-capture: %+v", cur.Nodes["taurus-3.lyon"].Inv.BIOS)
	}
}

// A delta version materialized *lazily* (first read long after later
// versions were appended) must equal the same version materialized eagerly.
func TestLazyMaterializationMatchesEager(t *testing.T) {
	mkStore := func() (*Store, *testbed.Testbed) {
		tb := testbed.Default()
		st := NewStore(tb, 0)
		for i, name := range []string{"uvb-1.sophia", "hercule-2.lyon", "uvb-1.sophia"} {
			inv := tb.Node(name).Inv.Clone()
			inv.CPU.Microcode = "0xcafe"
			inv.RAMGB += i + 1
			if err := st.Update(simclock.Time(i+1)*simclock.Hour, name, inv); err != nil {
				t.Fatal(err)
			}
		}
		return st, tb
	}

	eagerSt, _ := mkStore()
	var eager [][]byte
	for v := 1; v <= eagerSt.VersionCount(); v++ { // materialize as we go
		data, err := eagerSt.Version(v).MarshalJSONIndent()
		if err != nil {
			t.Fatal(err)
		}
		eager = append(eager, data)
	}

	lazySt, _ := mkStore()
	for v := lazySt.VersionCount(); v >= 1; v-- { // materialize backwards, after all churn
		data, err := lazySt.Version(v).MarshalJSONIndent()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(eager[v-1]) {
			t.Fatalf("lazy materialization of v%d diverges from eager", v)
		}
	}
	if lazySt.Materialize(2) != lazySt.Version(2) {
		t.Fatal("Materialize is not the Version escape hatch")
	}
	if lazySt.Materialize(99) != nil {
		t.Fatal("Materialize out of range should be nil")
	}
}

// Version timestamps must never go backwards (At binary-searches them): a
// caller handing Update/CaptureFrom an earlier time gets clamped to the
// chain tail instead of corrupting later archival queries.
func TestVersionTimesClampedMonotone(t *testing.T) {
	tb := testbed.Default()
	st := NewStore(tb, 10*simclock.Hour)
	inv := tb.Node("sol-1.sophia").Inv.Clone()
	inv.RAMGB = 2
	if err := st.Update(20*simclock.Hour, "sol-1.sophia", inv); err != nil {
		t.Fatal(err)
	}
	// Buggy caller: time goes backwards.
	inv.RAMGB = 3
	if err := st.Update(15*simclock.Hour, "sol-1.sophia", inv); err != nil {
		t.Fatal(err)
	}
	st.CaptureFrom(tb, 5*simclock.Hour)

	if s := st.Version(3); s.TakenAt != 20*simclock.Hour {
		t.Fatalf("v3 archived at %v, want clamp to 20h", s.TakenAt)
	}
	if s := st.At(19 * simclock.Hour); s == nil || s.Version != 1 {
		t.Fatalf("At(19h) = %v, want version 1", s)
	}
	// The latest version wins at and after the clamped instant.
	if s := st.At(20 * simclock.Hour); s == nil || s.Version != 4 {
		t.Fatalf("At(20h) = %v, want version 4", s)
	}
	if s := st.At(simclock.Week); s == nil || s.Version != 4 {
		t.Fatalf("At(week) = %v, want version 4", s)
	}
}

// DiffSnapshots iterates Go maps internally; its sorted output must be
// identical across repeated calls regardless of iteration order.
func TestDiffSnapshotsDeterministic(t *testing.T) {
	_, st := newStore(t)
	a := st.Current()
	b := cloneSnapshot(a)
	for _, name := range []string{"sol-9.sophia", "edel-1.grenoble", "graphene-40.nancy", "uvb-7.sophia"} {
		d := b.Nodes[name]
		d.Inv.RAMGB++
		d.Inv.BIOS.CStates = !d.Inv.BIOS.CStates
		d.Inv.Disks[0].Firmware += "-x"
		b.Nodes[name] = d
	}
	delete(b.Nodes, "taurus-1.lyon")

	first := DiffSnapshots(a, b)
	if len(first) == 0 {
		t.Fatal("no differences found")
	}
	for run := 0; run < 10; run++ {
		again := DiffSnapshots(a, b)
		if len(again) != len(first) {
			t.Fatalf("run %d: %d diffs, first run had %d", run, len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("run %d: diff %d = %+v, first run had %+v", run, i, again[i], first[i])
			}
		}
	}
	// Sorted by (node, field).
	for i := 1; i < len(first); i++ {
		if first[i-1].Node > first[i].Node ||
			(first[i-1].Node == first[i].Node && first[i-1].Field > first[i].Field) {
			t.Fatalf("output not sorted: %v before %v", first[i-1], first[i])
		}
	}
}

// AppendDiff into a reused buffer: after warming up, diffing a clean node
// allocates nothing.
func TestDifferReusesBuffer(t *testing.T) {
	tb, st := newStore(t)
	n := tb.Node("griffon-1.nancy")
	ref, _ := st.Describe(n.Name)

	var buf []Difference
	drifted := n.Inv.Clone()
	drifted.RAMGB = 1
	if buf = AppendDiff(buf[:0], n.Name, ref.Inv, drifted); len(buf) != 1 {
		t.Fatalf("diffs = %v", buf)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if diffs := AppendDiff(buf[:0], n.Name, ref.Inv, n.Inv); len(diffs) != 0 {
			t.Fatalf("clean node drifted: %v", diffs)
		}
	})
	if allocs != 0 {
		t.Fatalf("clean-node diff allocates %v times per run, want 0", allocs)
	}
}

func TestDifferenceStringFormat(t *testing.T) {
	d := Difference{Node: "sol-1.sophia", Field: "ram_gb", Expected: "4", Actual: "2"}
	want := `sol-1.sophia: ram_gb: expected "4", got "2"`
	if d.String() != want {
		t.Fatalf("String() = %q, want %q", d.String(), want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	_, st := newStore(t)
	data, err := st.Current().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 || len(back.Nodes) != len(st.Current().Nodes) {
		t.Fatal("JSON round trip lost data")
	}
	d := back.Nodes["griffon-1.nancy"]
	if d.Inv.CPU.Model != "Intel Xeon L5420" {
		t.Fatalf("round-tripped CPU model = %q", d.Inv.CPU.Model)
	}
}

var benchBody []byte

// BenchmarkSnapshotMarshalIndent is the render layer as /ref/inventory pays
// it: the paper-scale description, encoded and indented. MB/s counts bytes
// produced.
func BenchmarkSnapshotMarshalIndent(b *testing.B) {
	snap := NewStore(testbed.Default(), 0).Current()
	body, err := snap.MarshalJSONIndent()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchBody, err = snap.MarshalJSONIndent(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUpdateAllocsFlatAcrossScale: version churn is O(changed nodes). A
// store that copied the whole snapshot per Update allocated ~2.7k times per
// update on the paper testbed and ~4x that on testbed.Generate(testbed.ScaledSpec(4)); the delta
// chain must cost the same small handful on both, and archived versions
// must stay readable after the churn. Allocations, not wall time, carry the
// assertion: they are deterministic, and they are exactly what a
// full-snapshot copy makes O(total nodes).
func TestUpdateAllocsFlatAcrossScale(t *testing.T) {
	const updates = 2000
	churn := func(scale int) float64 {
		tb := testbed.Generate(testbed.ScaledSpec(scale))
		st := NewStore(tb, 0)
		nodes := tb.Nodes()
		u := 0
		allocs := testing.AllocsPerRun(updates-1, func() {
			n := nodes[(u*131)%len(nodes)]
			inv := n.Inv.Clone()
			inv.RAMGB = 8 + u%64
			if err := st.Update(simclock.Time(u+1)*simclock.Second, n.Name, inv); err != nil {
				t.Fatal(err)
			}
			u++
		})
		if st.VersionCount() != updates+1 {
			t.Fatalf("%dx: %d versions after %d updates", scale, st.VersionCount(), updates)
		}
		if s := st.At(simclock.Time(updates/2) * simclock.Second); s == nil || s.Version != updates/2+1 {
			t.Fatalf("%dx: At(mid-churn) = %v, want version %d", scale, s, updates/2+1)
		}
		return allocs
	}
	if a1, a4 := churn(1), churn(4); a4 > 2*a1 || a4 > 50 {
		t.Fatalf("allocations per Update grew with testbed size: %.1f at 1x, %.1f at 4x", a1, a4)
	}
}
