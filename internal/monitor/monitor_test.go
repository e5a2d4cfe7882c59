package monitor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// setLoad records that a node's activity changed now, as an experiment
// starting or stopping work on it would. cpu is clamped to [0,1].
func (c *Collector) setLoad(node string, cpu, netMbps float64) error {
	if c.tb.Node(node) == nil {
		return fmt.Errorf("monitor: unknown node %q", node)
	}
	cpu = min(max(cpu, 0), 1)
	at := c.clock.Now()
	c.mu.Lock()
	c.history[node] = append(c.history[node], loadChange{at: at, cpu: cpu, netMbps: netMbps})
	c.mu.Unlock()
	return nil
}

func setup(seed int64) (*simclock.Clock, *testbed.Testbed, *faults.Injector, *Collector) {
	c := simclock.New(seed)
	tb := testbed.Default()
	inj := faults.NewInjector(c, tb)
	return c, tb, inj, NewCollector(c, tb, inj)
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

func TestPowerRisesWithLoad(t *testing.T) {
	c, _, _, col := setup(2)
	node := "taurus-5.lyon"
	c.RunUntil(10 * simclock.Second)
	idle, err := col.Query(MetricPowerW, node, 0, 9*simclock.Second)
	if err != nil {
		t.Fatal(err)
	}
	col.setLoad(node, 1.0, 0)
	c.RunUntil(30 * simclock.Second)
	busy, err := col.Query(MetricPowerW, node, 15*simclock.Second, 29*simclock.Second)
	if err != nil {
		t.Fatal(err)
	}
	rise := Mean(busy) - Mean(idle)
	// taurus has 12 cores → peak extra = 108 W.
	if rise < 90 || rise > 125 {
		t.Fatalf("power rise = %.1f W, want ≈108", rise)
	}
}

func TestCablingSwapMisattributesPower(t *testing.T) {
	c, _, inj, col := setup(3)
	a, b := "sol-1.sophia", "sol-2.sophia"
	if _, err := inj.InjectCablingSwap(a, b); err != nil {
		t.Fatal(err)
	}
	// Load node a only.
	col.setLoad(a, 1.0, 0)
	c.RunUntil(simclock.Minute)

	sa, _ := col.Query(MetricPowerW, a, 30*simclock.Second, 59*simclock.Second)
	sb, _ := col.Query(MetricPowerW, b, 30*simclock.Second, 59*simclock.Second)
	// The power rise shows up on b's series, not a's.
	idle := idlePowerW(mustNode(t, col, a))
	if Mean(sa) > idle+10 {
		t.Fatalf("a's series shows its own load despite swap (%.1f W)", Mean(sa))
	}
	// sol nodes have 4 cores → full-load rise ≈ 36 W.
	if Mean(sb) < idle+25 {
		t.Fatalf("b's series does not show a's load (%.1f W)", Mean(sb))
	}

	// System-level CPU metric is immune (agent runs on the node itself).
	ca, _ := col.Query(MetricCPULoad, a, 30*simclock.Second, 59*simclock.Second)
	if Mean(ca) < 0.99 {
		t.Fatalf("cpu series affected by cabling swap: %v", Mean(ca))
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
	a, b := "uvb-1.sophia", "uvb-2.sophia"
	f, _ := inj.InjectCablingSwap(a, b)
	inj.Fix(f.ID)
	col.setLoad(a, 1.0, 0)
	c.RunUntil(simclock.Minute)
	sa, _ := col.Query(MetricPowerW, a, 30*simclock.Second, 59*simclock.Second)
	if Mean(sa) < idlePowerW(mustNode(t, col, a))+30 {
		t.Fatalf("a's own load invisible after fix: %.1f", Mean(sa))
	}
}

func TestNetMetric(t *testing.T) {
	c, _, _, col := setup(5)
	col.setLoad("grisou-1.nancy", 0.2, 800)
	c.RunUntil(10 * simclock.Second)
	ss, err := col.Query(MetricNetMbps, "grisou-1.nancy", 5*simclock.Second, 9*simclock.Second)
	if err != nil {
		t.Fatal(err)
	}
	if Mean(ss) != 800 {
		t.Fatalf("net = %v, want 800", Mean(ss))
	}
}

func TestLoadHistoryStepFunction(t *testing.T) {
	c, _, _, col := setup(6)
	n := "sol-10.sophia"
	c.RunUntil(10 * simclock.Second)
	col.setLoad(n, 1.0, 0)
	c.RunUntil(20 * simclock.Second)
	col.setLoad(n, 0, 0)
	c.RunUntil(40 * simclock.Second)

	ss, _ := col.Query(MetricCPULoad, n, 0, 39*simclock.Second)
	for _, s := range ss {
		sec := int64(s.T / simclock.Second)
		want := 0.0
		if sec >= 10 && sec < 20 {
			want = 1.0
		}
		if math.Abs(s.V-want) > 1e-9 {
			t.Fatalf("load at %ds = %v, want %v", sec, s.V, want)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	c, _, inj, col := setup(7)
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
	inj.InjectService("sophia", "kwapi", 1.0)
	if _, err := col.Query(MetricPowerW, "sol-1.sophia", 0, 1); err == nil {
		t.Fatal("query succeeded with dead kwapi")
	}
	if _, err := col.Query(MetricPowerW, "taurus-1.lyon", 0, 1); err != nil {
		t.Fatalf("other site affected: %v", err)
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
			n1, n2 := noise(node, sec), noise(node, sec)
			if n1 != n2 {
				t.Fatal("noise not deterministic")
			}
			if n1 < -1 || n1 >= 1 {
				t.Fatalf("noise %v out of [-1,1)", n1)
			}
		}
	}
}

func TestSetLoadValidation(t *testing.T) {
	_, _, _, col := setup(9)
	if err := col.setLoad("ghost-1.limbo", 1, 0); err == nil {
		t.Fatal("unknown node accepted")
	}
	// Clamping.
	col.setLoad("sol-1.sophia", 5.0, 0)
	lc := col.loadAt("sol-1.sophia", 0)
	if lc.cpu != 1.0 {
		t.Fatalf("cpu not clamped: %v", lc.cpu)
	}
	col.setLoad("sol-1.sophia", -2, 0)
	lc = col.loadAt("sol-1.sophia", 0)
	if lc.cpu != 0 {
		t.Fatalf("negative cpu not clamped: %v", lc.cpu)
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
