package refapi

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/simclock"
	"repro/internal/testbed"
)

// raceDetector is set by race_test.go: the detector's own bookkeeping is
// not what allocation guards count, so they skip under it.
var raceDetector bool

// TestStoreRendersNothingUntilReadAllocs: a node's wire form is rendered on
// the first read that needs it, never by NewStore, CaptureFrom or Update —
// a campaign captures 894 nodes at set-up and reads few of them. Before
// nodes carried fragments, NewStore of the paper testbed allocated 3 601
// times and this Update loop 8 times per op (2 of them the loop's own
// Clone); neither may allocate more now. The first render leaves every
// node of the version it rendered holding its fragment.
func TestStoreRendersNothingUntilReadAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tb := testbed.Default()
	if a := testing.AllocsPerRun(20, func() { NewStore(tb, 0) }); a > 3601 {
		t.Errorf("NewStore allocated %.0f times, want at most 3601", a)
	}
	st := NewStore(tb, 0)
	nodes := tb.Nodes()
	u := 0
	if a := testing.AllocsPerRun(1000, func() {
		n := nodes[(u*131)%len(nodes)]
		if err := st.Update(simclock.Time(u+1)*simclock.Second, n.Name, n.Inv.Clone()); err != nil {
			t.Fatal(err)
		}
		u++
	}); a > 8 {
		t.Errorf("an Update allocated %.0f times, want at most 8", a)
	}
	rendered := func(snap *Snapshot) (n int) {
		for _, node := range snap.Nodes {
			if node.frag.Load() != nil {
				n++
			}
		}
		return n
	}
	for v := 1; v <= st.VersionCount(); v += 97 {
		if n := rendered(st.Version(v)); n != 0 {
			t.Fatalf("version %d: %d nodes rendered before any read", v, n)
		}
	}
	cur := st.Current()
	cur.AppendIndent(nil, 0)
	if n := rendered(cur); n != len(cur.Nodes) {
		t.Fatalf("%d of %d nodes rendered after a read", n, len(cur.Nodes))
	}
}

// TestSnapshotWireAllocsFlatInNodes: once its nodes' fragments are
// rendered, a version's body costs the same allocations — its sorted node
// list — whether the store describes the paper testbed or four times it.
// The body goes into a buffer kept warm, as a splice's pooled scratch is:
// a fresh multi-megabyte body per run would bring collections, whose own
// bookkeeping the count would include.
func TestSnapshotWireAllocsFlatInNodes(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(scale int) float64 {
		tb := testbed.Generate(testbed.ScaledSpec(scale))
		st := NewStore(tb, 0)
		n := tb.Nodes()[0]
		inv := n.Inv.Clone()
		inv.RAMGB++
		if err := st.Update(simclock.Hour, n.Name, inv); err != nil {
			t.Fatal(err)
		}
		snap := st.Version(2)
		body := snap.AppendIndent(nil, 0)
		runtime.GC()
		return testing.AllocsPerRun(100, func() { body = snap.AppendIndent(body[:0], 0) })
	}
	if a1, a4 := allocs(1), allocs(4); a1 != a4 || a1 > 1 {
		t.Fatalf("a warmed render allocated %.0f times at 1x and %.0f at 4x, want the same, at most 1", a1, a4)
	}
}

// TestSnapshotBodyRendersOnceAllocs: a version's body is its splice at
// depth 0, rendered by the first read and kept by the snapshot, so every
// later read returns those same bytes and allocates nothing. A delta
// version, materialized on read, keeps its body as a capture does.
func TestSnapshotBodyRendersOnceAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tb := testbed.Generate(testbed.DefaultSpec[:2])
	st := NewStore(tb, 0)
	n := tb.Nodes()[0]
	inv := n.Inv.Clone()
	inv.RAMGB++
	if err := st.Update(simclock.Hour, n.Name, inv); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= st.VersionCount(); v++ {
		snap := st.Version(v)
		body := snap.Body()
		if want := snap.AppendIndent(nil, 0); !bytes.Equal(body, want) {
			t.Fatalf("version %d: Body\n%q\nwant AppendIndent(nil, 0)\n%q", v, body, want)
		}
		if again := snap.Body(); &again[0] != &body[0] {
			t.Fatalf("version %d rendered its body twice", v)
		}
		if a := testing.AllocsPerRun(100, func() { snap.Body() }); a != 0 {
			t.Fatalf("version %d: a second read allocated %.0f times, want 0", v, a)
		}
	}
}
