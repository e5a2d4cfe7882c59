package refapi

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/simclock"
	"repro/internal/testbed"
	"repro/internal/wire"
)

// awkwardStrings are the texts encoding/json rewrites: HTML characters,
// quotes and backslashes, control characters, the two JavaScript line
// separators, non-ASCII and invalid UTF-8.
var awkwardStrings = []string{"", "plain", "a<b", "a>b", "a&b", `q"uote`, `back\slash`, "tab\t", "nl\n", "\x01",
	"line\u2028", "para\u2029", "é世界", "\xff\xfeinvalid", "\u007f"}

// randomDescription draws a node description whose strings come from
// awkwardStrings, with the omitempty GPU and InfiniBand fields set or not.
func randomDescription(rng *rand.Rand, name string) NodeDescription {
	str := func() string { return awkwardStrings[rng.Intn(len(awkwardStrings))] }
	inv := testbed.Inventory{
		CPU:      testbed.CPU{Model: str(), Sockets: rng.Intn(4), CoresPerSocket: rng.Intn(64), FreqMHz: rng.Intn(4000), Microcode: str()},
		RAMGB:    rng.Intn(1024) - 1,
		BIOS:     testbed.BIOS{Version: str(), HyperThreading: rng.Intn(2) == 0, CStates: rng.Intn(2) == 0, PowerProfile: str()},
		OSKernel: str(),
	}
	if rng.Intn(2) == 0 {
		inv.GPUModel = str()
	}
	if rng.Intn(2) == 0 {
		inv.Infiniband = str()
	}
	for i := rng.Intn(3); i > 0; i-- {
		inv.Disks = append(inv.Disks, testbed.Disk{Device: str(), Firmware: str(), CapacityGB: rng.Intn(4000), WriteCache: rng.Intn(2) == 0})
	}
	for i := rng.Intn(3); i > 0; i-- {
		inv.NICs = append(inv.NICs, testbed.NIC{Name: str(), RateGbps: rng.Intn(100), MAC: str(), Management: rng.Intn(2) == 0})
	}
	return NodeDescription{Name: name, Cluster: str(), Site: str(), Inv: inv}
}

// randomSnapshot draws a snapshot of up to eight nodes named from
// awkwardStrings, or one with no nodes or a nil node map.
func randomSnapshot(rng *rand.Rand) *Snapshot {
	snap := &Snapshot{Version: rng.Intn(1 << 20), TakenAt: simclock.Time(rng.Int63())}
	if rng.Intn(8) == 0 {
		return snap // nil Nodes
	}
	snap.Nodes = map[string]*Node{}
	for i := rng.Intn(9); i > 0; i-- {
		name := awkwardStrings[rng.Intn(len(awkwardStrings))] + fmt.Sprint(i)
		snap.Nodes[name] = &Node{NodeDescription: randomDescription(rng, name)}
	}
	return snap
}

// TestSnapshotWireMatchesMarshalIndent holds the spliced render to the
// encoder: at depth 0 a snapshot's AppendIndent is wire.MarshalIndent of
// it, and a snapshot spliced into an envelope at any depth renders as the
// envelope holding the snapshot itself. Each snapshot is rendered twice,
// the second time from the fragments the first one left.
func TestSnapshotWireMatchesMarshalIndent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		snap := randomSnapshot(rng)
		want, err := wire.MarshalIndent(snap)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if got := snap.AppendIndent([]byte("kept"), 0); !bytes.Equal(got[4:], want) || string(got[:4]) != "kept" {
				t.Fatalf("snapshot %d, pass %d: AppendIndent\n got %q\nwant %q", i, pass, got, want)
			}
		}

		var sp wire.Splice
		var spliced, inline any = sp.Slot(snap), snap
		for d := rng.Intn(5); d > 0; d-- {
			if rng.Intn(2) == 0 {
				spliced, inline = []any{d, spliced}, []any{d, inline}
			} else {
				spliced, inline = map[string]any{"<in>": spliced, "z": nil}, map[string]any{"<in>": inline, "z": nil}
			}
		}
		want, err = wire.MarshalIndent(inline)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sp.MarshalIndent(spliced); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d spliced (err %v)\n got %q\nwant %q", i, err, got, want)
		}
	}
}

// TestConcurrentRendersAgree: concurrent readers may render a version none
// has rendered yet all at once. Each gets the encoder's
// body, and every node ends up holding a fragment. Under -race this checks
// the fill.
func TestConcurrentRendersAgree(t *testing.T) {
	snap := NewStore(testbed.Generate(testbed.DefaultSpec[:2]), 0).Current()
	want, err := wire.MarshalIndent(snap)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = snap.AppendIndent(nil, 0)
		}()
	}
	wg.Wait()
	for i, body := range bodies {
		if !bytes.Equal(body, want) {
			t.Fatalf("reader %d rendered\n%q\nwant\n%q", i, body, want)
		}
	}
	for name, n := range snap.Nodes {
		if n.frag.Load() == nil {
			t.Fatalf("node %s rendered no fragment", name)
		}
	}
}

// TestConcurrentBodiesAgree: eight readers ask a fresh version for its
// body at once. Each may render it, but the first stored wins, so all of
// them — and every later reader — get the one body the snapshot keeps,
// which is the encoder's. Under -race this checks the fill.
func TestConcurrentBodiesAgree(t *testing.T) {
	snap := NewStore(testbed.Generate(testbed.DefaultSpec[:2]), 0).Current()
	want, err := wire.MarshalIndent(snap)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			bodies[i] = snap.Body()
		}()
	}
	close(start)
	wg.Wait()
	kept := snap.Body()
	if !bytes.Equal(kept, want) {
		t.Fatalf("the kept body is\n%q\nwant\n%q", kept, want)
	}
	for i, body := range bodies {
		if &body[0] != &kept[0] {
			t.Fatalf("reader %d got a body the snapshot did not keep", i)
		}
	}
}

// TestReadersBesideOneWriter pins the contract that lets the gateway read
// a store under no lock but the store's own: while one writer Updates and
// re-captures, readers call every read method, and each version a reader
// saw mid-churn renders, and diffs against its predecessor, the same once
// the writer has stopped. Under -race this checks the store's own
// synchronization alone.
func TestReadersBesideOneWriter(t *testing.T) {
	tb := testbed.Generate(testbed.DefaultSpec[:2])
	st := NewStore(tb, 0)
	nodes := tb.Nodes()
	type seen struct {
		version int
		body    []byte
		diff    []Difference
	}
	const readers = 4
	saw := make([][]seen, readers)
	stop := make(chan struct{})
	var wg, ready sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			readOnce := sync.OnceFunc(ready.Done) // the writer starts once every reader has read
			defer readOnce()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; ; i++ {
				if i == 1 {
					readOnce()
				}
				select {
				case <-stop:
					return
				default:
				}
				count := st.VersionCount()
				at := simclock.Time(rng.Intn(count+1)) * simclock.Second
				v, ok := st.VersionAt(at)
				// Read the count again: the writer may archive a version
				// taken at exactly at between the two reads.
				if archived := st.VersionCount(); !ok || v > archived {
					t.Errorf("VersionAt(%v) = %d, %v with %d archived", at, v, ok, archived)
					return
				}
				snap := st.Version(v)
				if snap == nil || snap.Version != v {
					t.Errorf("Version(%d) = %v", v, snap)
					return
				}
				if got := st.At(at); got == nil || got.Version < v {
					t.Errorf("At(%v) went back before version %d", at, v)
					return
				}
				if cur := st.Current(); cur.Version < count {
					t.Errorf("Current is version %d with %d archived", cur.Version, count)
					return
				}
				if _, err := st.Describe(nodes[i%len(nodes)].Name); err != nil {
					t.Error(err)
					return
				}
				got := seen{v, snap.AppendIndent(nil, 0), st.Diff(v-1, v)}
				if len(saw[r]) < 16 {
					saw[r] = append(saw[r], got)
				} else {
					saw[r][i%16] = got
				}
			}
		}()
	}
	ready.Wait()
	for u := 1; u <= 400; u++ {
		now := simclock.Time(u) * simclock.Second
		n := nodes[(u*7)%len(nodes)]
		if u%100 == 0 {
			n.Inv.OSKernel = fmt.Sprintf("churn-%d", u) // live drift the capture takes in
			st.CaptureFrom(tb, now)
			continue
		}
		inv := n.Inv.Clone()
		inv.RAMGB = u
		if err := st.Update(now, n.Name, inv); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for r, list := range saw {
		for _, s := range list {
			if body := st.Version(s.version).AppendIndent(nil, 0); !bytes.Equal(body, s.body) {
				t.Fatalf("reader %d: version %d renders differently after the churn", r, s.version)
			}
			if diff := st.Diff(s.version-1, s.version); !slices.Equal(diff, s.diff) {
				t.Fatalf("reader %d: diff %d..%d = %v after the churn, %v during it",
					r, s.version-1, s.version, diff, s.diff)
			}
		}
	}
}

// diffStores are the testbeds the diff property's stores capture: two small
// clusters, one of them alone (so a capture can drop nodes), and a third
// cluster beside it (so one can add them).
func diffStores() [][]testbed.ClusterSpec {
	spec := func(names ...string) []testbed.ClusterSpec {
		var out []testbed.ClusterSpec
		for _, cs := range testbed.DefaultSpec {
			if slices.Contains(names, cs.Name) {
				out = append(out, cs)
			}
		}
		return out
	}
	return [][]testbed.ClusterSpec{spec("adonis", "chirloute"), spec("adonis"), spec("adonis", "dahu")}
}

// TestStoreDiffMatchesReference is Store.Diff's property: on 200 random
// stores — Updates, a node changed and then restored, re-captures of the
// same and of other node sets, live drift between them — the diff between
// every pair of versions, version 0 and one past the archive included, is
// DiffSnapshots' of the two snapshots (the empty one outside the archive).
// Every diff is taken before the reference materializes anything, in a
// random order, so the delta walk meets cached and uncached versions alike.
func TestStoreDiffMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specs := diffStores()
	for s := 0; s < 200; s++ {
		tb := testbed.Generate(specs[0])
		st := NewStore(tb, 0)
		now := simclock.Time(0)
		for op := rng.Intn(12); op > 0; op-- {
			now += simclock.Time(rng.Intn(3)) * simclock.Hour
			nodes := tb.Nodes()
			n := nodes[rng.Intn(len(nodes))]
			switch rng.Intn(6) {
			case 0: // re-capture, after live drift, sometimes of another node set
				if rng.Intn(2) == 0 {
					tb = testbed.Generate(specs[rng.Intn(len(specs))])
					n = tb.Nodes()[0]
				}
				n.Inv.RAMGB += 1 + rng.Intn(8)
				st.CaptureFrom(tb, now)
			case 1: // changed, then restored
				orig, err := st.Describe(n.Name)
				if err != nil {
					t.Fatal(err)
				}
				inv := orig.Inv.Clone()
				inv.BIOS.TurboBoost = !inv.BIOS.TurboBoost
				if err := st.Update(now, n.Name, inv); err != nil {
					t.Fatal(err)
				}
				if err := st.Update(now, n.Name, orig.Inv); err != nil {
					t.Fatal(err)
				}
			default:
				inv := n.Inv.Clone()
				inv.RAMGB = rng.Intn(64)
				if rng.Intn(2) == 0 {
					inv.Disks[0].Firmware += "x"
				}
				if err := st.Update(now, n.Name, inv); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(4) == 0 {
				st.Version(1 + rng.Intn(st.VersionCount())) // a read caches a materialization
			}
		}

		count := st.VersionCount()
		type pair struct{ from, to int }
		var pairs []pair
		for from := 0; from <= count+1; from++ {
			for to := 0; to <= count+1; to++ {
				pairs = append(pairs, pair{from, to})
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		got := make(map[pair][]Difference, len(pairs))
		for _, p := range pairs {
			got[p] = st.Diff(p.from, p.to)
		}
		snapOf := func(v int) *Snapshot {
			if snap := st.Version(v); snap != nil {
				return snap
			}
			return &Snapshot{}
		}
		for _, p := range pairs {
			if want := DiffSnapshots(snapOf(p.from), snapOf(p.to)); !slices.Equal(got[p], want) {
				t.Fatalf("store %d (%d versions): Diff(%d, %d)\n got %v\nwant %v", s, count, p.from, p.to, got[p], want)
			}
		}
	}
}
