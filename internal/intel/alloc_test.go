package intel

import (
	"strconv"
	"testing"

	"repro/internal/refapi"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// raceDetector is set by race_test.go: the detector's own bookkeeping is
// not what allocation guards count, so they skip under it.
var raceDetector bool

// TestVersionVectorAllocs: a version vector allocates its result and
// nothing else, one allocation however many stores it reads — the
// gateway's conditional-GET path computes one per /grid and /ref request.
// When every store read ran through a gate closure, the vector cost 4
// allocations at 2 stores and at 32.
func TestVersionVectorAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, stores := range []int{2, 32} {
		sites := make([]SiteArchive, stores)
		for i := range sites {
			tb := testbed.Generate(testbed.DefaultSpec[:1])
			st := refapi.NewStore(tb, simclock.Hour)
			n := tb.Nodes()[0]
			inv := n.Inv.Clone()
			inv.RAMGB++
			if err := st.Update(2*simclock.Hour, n.Name, inv); err != nil {
				t.Fatal(err)
			}
			sites[i] = SiteArchive{Site: "s" + strconv.Itoa(i/2), Cluster: "c" + strconv.Itoa(i), Ref: st}
		}
		arch := NewGridArchive(sites)
		exclude := map[string]bool{"elsewhere": true}
		if a := testing.AllocsPerRun(100, func() { arch.VersionVector(90*simclock.Minute, exclude) }); a != 1 {
			t.Errorf("a version vector over %d stores allocated %.0f times, want 1", stores, a)
		}
	}
}
