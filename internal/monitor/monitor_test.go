package monitor

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func setup(seed int64) (*simclock.Clock, *testbed.Testbed, *faults.Injector, *Collector) {
	c := simclock.New(seed)
	tb := testbed.Default()
	inj := faults.NewInjector(c, tb)
	return c, tb, inj, NewCollector(c, tb)
}

func TestSamplesAtOneHz(t *testing.T) {
	c, _, _, col := setup(1)
	c.RunUntil(2 * simclock.Minute)
	ss, err := col.Query(MetricPowerW, "taurus-1.lyon", 0, simclock.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 61 {
		t.Fatalf("got %d samples over 60s, want 61", len(ss))
	}
	if err := CheckRate(ss); err != nil {
		t.Fatal(err)
	}
}

// TestCablingSwapMisattributesPower swaps the cables of two same-site
// nodes of different hardware: each node's power series then carries the
// other's idle draw, and Attribution names the peer.
func TestCablingSwapMisattributesPower(t *testing.T) {
	c, _, inj, col := setup(3)
	a, b := "sol-1.sophia", "uvb-1.sophia"
	idleA, idleB := idlePowerW(mustNode(t, col, a)), idlePowerW(mustNode(t, col, b))
	if math.Abs(idleA-idleB) < 10 {
		t.Fatalf("idle draws %.1f and %.1f W are too close to tell apart", idleA, idleB)
	}
	if _, err := inj.InjectCablingSwap(a, b); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(simclock.Minute)

	// Noise is within ±1 W, so a mean off the peer's idle draw by more
	// than that is not the peer's.
	sa, _ := col.Query(MetricPowerW, a, 30*simclock.Second, 59*simclock.Second)
	sb, _ := col.Query(MetricPowerW, b, 30*simclock.Second, 59*simclock.Second)
	if math.Abs(Mean(sa)-idleB) > 1 || math.Abs(Mean(sb)-idleA) > 1 {
		t.Fatalf("series of %s = %.1f W, of %s = %.1f W; want the peers' idle %.1f and %.1f W",
			a, Mean(sa), b, Mean(sb), idleB, idleA)
	}
	if got := col.Attribution(a); got != b {
		t.Fatalf("Attribution(%s) = %s, want %s", a, got, b)
	}
}

func mustNode(t *testing.T, col *Collector, name string) *testbed.Node {
	t.Helper()
	n := col.tb.Node(name)
	if n == nil {
		t.Fatalf("node %s missing", name)
	}
	return n
}

func TestFixingSwapRestoresAttribution(t *testing.T) {
	c, _, inj, col := setup(4)
	a, b := "sol-1.sophia", "uvb-1.sophia"
	f, _ := inj.InjectCablingSwap(a, b)
	inj.Fix(f.ID)
	c.RunUntil(simclock.Minute)
	sa, _ := col.Query(MetricPowerW, a, 30*simclock.Second, 59*simclock.Second)
	if idle := idlePowerW(mustNode(t, col, a)); math.Abs(Mean(sa)-idle) > 1 {
		t.Fatalf("%s reads %.1f W after the fix, want its own idle %.1f W", a, Mean(sa), idle)
	}
	if got := col.Attribution(a); got != a {
		t.Fatalf("Attribution(%s) = %s after the fix", a, got)
	}
}

func TestQueryErrors(t *testing.T) {
	c, _, _, col := setup(7)
	c.RunUntil(simclock.Minute)
	if _, err := col.Query(MetricPowerW, "ghost-1.limbo", 0, 1); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := col.Query("temperature", "sol-1.sophia", 0, 1); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := col.Query(MetricPowerW, "sol-1.sophia", simclock.Minute, 0); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestQueryClampsToNow(t *testing.T) {
	c, _, _, col := setup(8)
	c.RunUntil(10 * simclock.Second)
	ss, err := col.Query(MetricPowerW, "sol-1.sophia", 0, simclock.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 11 {
		t.Fatalf("got %d samples, want 11 (clamped to now)", len(ss))
	}
}

func TestNoiseIsDeterministicAndBounded(t *testing.T) {
	for _, node := range []string{"a", "sol-1.sophia", "graphene-9.nancy"} {
		for sec := int64(0); sec < 1000; sec++ {
			n1, n2 := noiseAt(noiseSeed(node), sec), noiseAt(noiseSeed(node), sec)
			if n1 != n2 {
				t.Fatal("noise not deterministic")
			}
			if n1 < -1 || n1 >= 1 {
				t.Fatalf("noise %v out of [-1,1)", n1)
			}
		}
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestCheckRateDetectsGaps(t *testing.T) {
	good := []Sample{{T: 0}, {T: simclock.Second}, {T: 2 * simclock.Second}}
	if err := CheckRate(good); err != nil {
		t.Fatal(err)
	}
	bad := []Sample{{T: 0}, {T: 3 * simclock.Second}}
	if err := CheckRate(bad); err == nil {
		t.Fatal("gap not detected")
	}
	if err := CheckRate(nil); err == nil {
		t.Fatal("empty series accepted")
	}
}
