package suites

import (
	"strings"
	"testing"

	"repro/internal/checks"
	"repro/internal/ci"
	"repro/internal/faults"
	"repro/internal/kadeploy"
	"repro/internal/kavlan"
	"repro/internal/monitor"
	"repro/internal/oar"
	"repro/internal/refapi"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func newContext(seed int64) *Context {
	clock := simclock.New(seed)
	tb := testbed.Default()
	ref := refapi.NewStore(tb, clock.Now())
	inj := faults.NewInjector(clock, tb)
	return &Context{
		Clock:    clock,
		TB:       tb,
		Ref:      ref,
		OAR:      oar.NewServer(clock, tb),
		Deployer: kadeploy.NewDeployer(clock, inj),
		VLAN:     kavlan.NewManager(tb, inj),
		Monitor:  monitor.NewCollector(clock, tb),
		Checker:  checks.NewChecker(clock, tb, ref),
		Faults:   inj,
	}
}

func findTest(t *testing.T, tests []*Test, name string) *Test {
	t.Helper()
	for _, tt := range tests {
		if tt.Name == name {
			return tt
		}
	}
	t.Fatalf("test %q not in registry", name)
	return nil
}

// runTest drives one test through its full CI-script protocol: the script
// runs at once, as the CI executor pool runs it at a build's start.
func runTest(ctx *Context, tt *Test) ci.Outcome {
	out := tt.Script(ctx)(&ci.BuildContext{Clock: ctx.Clock})
	ctx.Clock.Run() // let OAR releases fire
	return out
}

func TestCoverageIs751Configurations(t *testing.T) {
	tb := testbed.Default()
	if got := ConfigurationCount(tb); got != 751 {
		t.Fatalf("total configurations = %d, want 751 (paper, slide 21)", got)
	}
	want := map[string]int{
		"environments": 448, "refapi": 32, "oarproperties": 32, "dellbios": 9,
		"oarstate": 8, "cmdline": 8, "sidapi": 8, "stdenv": 32,
		"paralleldeploy": 32, "multireboot": 32, "multideploy": 32,
		"console": 32, "kavlan": 8, "kwapi": 8, "mpigraph": 6, "disk": 24,
	}
	got := CountByFamily(tb)
	for fam, n := range want {
		if got[fam] != n {
			t.Errorf("family %s: %d configurations, want %d", fam, got[fam], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("families = %d, want %d", len(got), len(want))
	}
}

func TestUniqueTestNames(t *testing.T) {
	tests := All(testbed.Default())
	seen := map[string]bool{}
	for _, tt := range tests {
		if seen[tt.Name] {
			t.Fatalf("duplicate test name %q", tt.Name)
		}
		seen[tt.Name] = true
		if tt.Site == "" || tt.Request == "" || tt.Period <= 0 || tt.Run == nil {
			t.Fatalf("degenerate test %+v", tt)
		}
		if _, err := oar.ParseRequest(tt.Request); err != nil {
			t.Fatalf("test %s has invalid request: %v", tt.Name, err)
		}
	}
}

func TestAllTestsPassOnHealthyTestbed(t *testing.T) {
	ctx := newContext(101)
	// Run off-peak to keep semantics pure; resources are all free.
	for _, tt := range All(ctx.TB) {
		out := runTest(ctx, tt)
		if out.Result != ci.Success {
			t.Fatalf("%s on healthy testbed: %v\n%s", tt.Name, out.Result,
				strings.Join(out.Log, "\n"))
		}
		if out.Duration <= 0 {
			t.Fatalf("%s has non-positive duration", tt.Name)
		}
	}
	// All resources must have been released.
	if ctx.OAR.BusyNodes() != 0 {
		t.Fatalf("%d nodes leaked", ctx.OAR.BusyNodes())
	}
}

func TestRefapiDetectsDrift(t *testing.T) {
	ctx := newContext(102)
	ctx.Faults.InjectNode(faults.CStatesOn, "taurus-4.lyon")
	tt := findTest(t, All(ctx.TB), "refapi/taurus")
	out := runTest(ctx, tt)
	if out.Result != ci.Failure {
		t.Fatalf("result = %v", out.Result)
	}
	if len(out.BugSignatures) != 1 || out.BugSignatures[0] != "cstates-on:taurus-4.lyon" {
		t.Fatalf("signatures = %v", out.BugSignatures)
	}
}

func TestRefapiDetectsCablingSwapWithPairSignature(t *testing.T) {
	ctx := newContext(103)
	f, err := ctx.Faults.InjectCablingSwap("griffon-3.nancy", "griffon-4.nancy")
	if err != nil {
		t.Fatal(err)
	}
	tt := findTest(t, All(ctx.TB), "refapi/griffon")
	out := runTest(ctx, tt)
	if out.Result != ci.Failure {
		t.Fatal("swap not detected")
	}
	// Both nodes produce the same pair signature → single bug after dedup.
	for _, sig := range out.BugSignatures {
		if sig != f.Signature() {
			t.Fatalf("signature %q != fault %q", sig, f.Signature())
		}
	}
}

func TestOarPropertiesDetectsRAMLoss(t *testing.T) {
	ctx := newContext(104)
	ctx.Faults.InjectNode(faults.RAMLoss, "suno-2.sophia")
	out := runTest(ctx, findTest(t, All(ctx.TB), "oarproperties/suno"))
	if out.Result != ci.Failure {
		t.Fatal("RAM loss not detected")
	}
	if out.BugSignatures[0] != "ram-loss:suno-2.sophia" {
		t.Fatalf("signatures = %v", out.BugSignatures)
	}
}

func TestDellbiosDetectsSettingsDrift(t *testing.T) {
	ctx := newContext(105)
	ctx.Faults.InjectNode(faults.TurboFlip, "paravance-9.rennes")
	out := runTest(ctx, findTest(t, All(ctx.TB), "dellbios/paravance"))
	if out.Result != ci.Failure || out.BugSignatures[0] != "turbo-flip:paravance-9.rennes" {
		t.Fatalf("result=%v sigs=%v", out.Result, out.BugSignatures)
	}
}

func TestStdenvDetectsWrongKernel(t *testing.T) {
	ctx := newContext(106)
	cl := ctx.TB.Cluster("graphite")
	for _, n := range cl.Nodes {
		ctx.Faults.InjectNode(faults.WrongKernel, n.Name)
	}
	out := runTest(ctx, findTest(t, All(ctx.TB), "stdenv/graphite"))
	if out.Result != ci.Failure {
		t.Fatalf("wrong kernel not detected: %v", out.Log)
	}
	found := false
	for _, sig := range out.BugSignatures {
		if strings.HasPrefix(sig, "wrong-kernel:graphite-") {
			found = true
		}
	}
	if !found {
		t.Fatalf("signatures = %v", out.BugSignatures)
	}
}

func TestCmdlineDetectsFlakyService(t *testing.T) {
	ctx := newContext(107)
	ctx.Faults.InjectService("nancy", "oar", 0.9)
	out := runTest(ctx, findTest(t, All(ctx.TB), "cmdline/nancy"))
	if out.Result != ci.Failure || out.BugSignatures[0] != "service-flaky:nancy/oar" {
		t.Fatalf("result=%v sigs=%v", out.Result, out.BugSignatures)
	}
}

func TestSidapiDetectsFlakyAPI(t *testing.T) {
	ctx := newContext(108)
	ctx.Faults.InjectService("rennes", "api", 0.9)
	out := runTest(ctx, findTest(t, All(ctx.TB), "sidapi/rennes"))
	if out.Result != ci.Failure || out.BugSignatures[0] != "service-flaky:rennes/api" {
		t.Fatalf("result=%v sigs=%v", out.Result, out.BugSignatures)
	}
}

func TestOarstateDetectsDegradedSite(t *testing.T) {
	ctx := newContext(109)
	// Down 12 of 100 lyon nodes (>10%).
	lyon := ctx.TB.Site("lyon").Nodes()
	for _, n := range lyon[:12] {
		n.State = testbed.Suspected
	}
	out := runTest(ctx, findTest(t, All(ctx.TB), "oarstate/lyon"))
	if out.Result != ci.Failure || out.BugSignatures[0] != "oarstate-degraded:lyon" {
		t.Fatalf("result=%v sigs=%v", out.Result, out.BugSignatures)
	}
}

func TestConsoleDetectsBrokenConsole(t *testing.T) {
	ctx := newContext(110)
	for _, n := range ctx.TB.Cluster("sol").Nodes {
		ctx.Faults.InjectNode(faults.ConsoleBroken, n.Name)
	}
	out := runTest(ctx, findTest(t, All(ctx.TB), "console/sol"))
	if out.Result != ci.Failure {
		t.Fatal("broken console not detected")
	}
	if !strings.HasPrefix(out.BugSignatures[0], "console-broken:sol-") {
		t.Fatalf("sigs = %v", out.BugSignatures)
	}
}

func TestKavlanDetectsFlakyService(t *testing.T) {
	ctx := newContext(111)
	ctx.Faults.InjectService("sophia", "kavlan", 1.0)
	out := runTest(ctx, findTest(t, All(ctx.TB), "kavlan/sophia"))
	if out.Result != ci.Failure || out.BugSignatures[0] != "service-flaky:sophia/kavlan" {
		t.Fatalf("result=%v sigs=%v", out.Result, out.BugSignatures)
	}
}

func TestKavlanRestoresMembershipOnSuccess(t *testing.T) {
	ctx := newContext(112)
	out := runTest(ctx, findTest(t, All(ctx.TB), "kavlan/lyon"))
	if out.Result != ci.Success {
		t.Fatalf("kavlan test failed: %v", out.Log)
	}
	for _, n := range ctx.TB.Site("lyon").Nodes() {
		v, _ := ctx.VLAN.VLANOf(n.Name)
		if v.ID != kavlan.DefaultID {
			t.Fatalf("%s left in %v", n.Name, v)
		}
	}
}

func TestKwapiDetectsCablingSwap(t *testing.T) {
	ctx := newContext(113)
	ctx.Clock.RunUntil(5 * simclock.Minute) // give the probes a window
	f, _ := ctx.Faults.InjectCablingSwap("helios-1.sophia", "helios-2.sophia")
	out := runTest(ctx, findTest(t, All(ctx.TB), "kwapi/sophia"))
	if out.Result != ci.Failure {
		t.Fatal("cabling swap invisible to kwapi test")
	}
	for _, sig := range out.BugSignatures {
		if sig != f.Signature() {
			t.Fatalf("signature %q != fault %q", sig, f.Signature())
		}
	}
}

func TestKwapiDetectsFlakyService(t *testing.T) {
	ctx := newContext(114)
	ctx.Clock.RunUntil(5 * simclock.Minute)
	ctx.Faults.InjectService("grenoble", "kwapi", 1.0)
	out := runTest(ctx, findTest(t, All(ctx.TB), "kwapi/grenoble"))
	if out.Result != ci.Failure || out.BugSignatures[0] != "service-flaky:grenoble/kwapi" {
		t.Fatalf("result=%v sigs=%v", out.Result, out.BugSignatures)
	}
}

func TestMpigraphDetectsOFED(t *testing.T) {
	ctx := newContext(115)
	for _, n := range ctx.TB.Cluster("taurus").Nodes {
		ctx.Faults.InjectNode(faults.OFEDFlaky, n.Name)
	}
	out := runTest(ctx, findTest(t, All(ctx.TB), "mpigraph/taurus"))
	if out.Result != ci.Failure {
		t.Fatal("OFED flakiness not detected")
	}
	if !strings.HasPrefix(out.BugSignatures[0], "ofed-flaky:taurus-") {
		t.Fatalf("sigs = %v", out.BugSignatures)
	}
}

func TestDiskDetectsCacheAndFirmwareAndDying(t *testing.T) {
	ctx := newContext(116)
	ctx.Faults.InjectNode(faults.DiskCacheOff, "suno-1.sophia")
	ctx.Faults.InjectNode(faults.DiskFirmwareDrift, "suno-2.sophia")
	ctx.Faults.InjectNode(faults.DiskDying, "suno-3.sophia")
	out := runTest(ctx, findTest(t, All(ctx.TB), "disk/suno"))
	if out.Result != ci.Failure {
		t.Fatal("disk problems not detected")
	}
	sigs := map[string]bool{}
	for _, s := range out.BugSignatures {
		sigs[s] = true
	}
	for _, want := range []string{
		"disk-cache-off:suno-1.sophia",
		"disk-firmware-drift:suno-2.sophia",
		"disk-dying:suno-3.sophia",
	} {
		if !sigs[want] {
			t.Errorf("missing signature %s (got %v)", want, out.BugSignatures)
		}
	}
	// No spurious cache signature on the dying disk.
	if sigs["disk-cache-off:suno-3.sophia"] {
		t.Error("dying disk misattributed to write cache")
	}
}

func TestMultirebootDetectsBootDelay(t *testing.T) {
	ctx := newContext(117)
	for _, n := range ctx.TB.Cluster("uvb").Nodes {
		ctx.Faults.InjectNode(faults.BootDelay, n.Name)
	}
	out := runTest(ctx, findTest(t, All(ctx.TB), "multireboot/uvb"))
	if out.Result != ci.Failure {
		t.Fatal("boot delay not detected")
	}
	if !strings.HasPrefix(out.BugSignatures[0], "boot-delay:uvb-") {
		t.Fatalf("sigs = %v", out.BugSignatures)
	}
}

func TestScriptGoesUnstableWhenClusterBusy(t *testing.T) {
	ctx := newContext(118)
	ctx.OAR.Submit("cluster='sol'/nodes=ALL,walltime=100", oar.SubmitOptions{User: "user"})
	out := runTest(ctx, findTest(t, All(ctx.TB), "disk/sol"))
	if out.Result != ci.Unstable {
		t.Fatalf("result = %v, want UNSTABLE", out.Result)
	}
	_, _, canceled := ctx.OAR.Stats()
	if canceled != 1 {
		t.Fatalf("OAR canceled = %d, want 1 (immediate job withdrawn)", canceled)
	}
}

func TestEnvironmentsJobShape(t *testing.T) {
	ctx := newContext(119)
	job := EnvironmentsJob(ctx)
	if job.CellCount() != 448 {
		t.Fatalf("matrix cells = %d, want 448", job.CellCount())
	}
	if !job.IsMatrix() || job.Name != "environments" {
		t.Fatalf("job = %+v", job)
	}
}

func TestEnvironmentsCellDeploysAndReleases(t *testing.T) {
	ctx := newContext(120)
	script := environmentsCellScript(ctx)
	out := script(&ci.BuildContext{Clock: ctx.Clock,
		Cell: map[string]string{"image": "jessie-x64-min", "cluster": "graphite"}})
	if out.Result != ci.Success {
		t.Fatalf("cell failed: %v", out.Log)
	}
	ctx.Clock.Run()
	if ctx.OAR.BusyNodes() != 0 {
		t.Fatal("cell leaked its node")
	}
	// Unknown image is its own bug class.
	out = script(&ci.BuildContext{Clock: ctx.Clock,
		Cell: map[string]string{"image": "win311", "cluster": "graphite"}})
	if out.Result != ci.Failure || out.BugSignatures[0] != "env-unregistered:win311" {
		t.Fatalf("unknown image: %v %v", out.Result, out.BugSignatures)
	}
}

func TestEnvironmentsCellUnstableWhenBusy(t *testing.T) {
	ctx := newContext(121)
	ctx.OAR.Submit("cluster='graphite'/nodes=ALL,walltime=100", oar.SubmitOptions{})
	script := environmentsCellScript(ctx)
	out := script(&ci.BuildContext{Clock: ctx.Clock,
		Cell: map[string]string{"image": "jessie-x64-min", "cluster": "graphite"}})
	if out.Result != ci.Unstable {
		t.Fatalf("result = %v", out.Result)
	}
}

func TestTestKindsMatchPaperScheduling(t *testing.T) {
	tests := All(testbed.Default())
	for _, tt := range tests {
		hw := tt.Kind == sched.HardwareCentric
		wantHW := tt.Family == "paralleldeploy" || tt.Family == "mpigraph" || tt.Family == "disk"
		if hw != wantHW {
			t.Errorf("%s: hardware-centric=%v", tt.Name, hw)
		}
		if hw && !strings.Contains(tt.Request, "nodes=ALL") {
			t.Errorf("%s: hardware-centric but not nodes=ALL", tt.Name)
		}
	}
}

func TestSignatureHelpers(t *testing.T) {
	if n, ok := nodeForPort("sw-nancy-graphene:12"); !ok || n != "graphene-12.nancy" {
		t.Fatalf("nodeForPort = %q %v", n, ok)
	}
	if _, ok := nodeForPort("sw-adm-nancy-graphene:12"); ok {
		t.Fatal("management port accepted")
	}
	if _, ok := nodeForPort("bogus"); ok {
		t.Fatal("bogus port accepted")
	}
	if !nodeLess("sol-2.sophia", "sol-10.sophia") {
		t.Fatal("numeric index ordering broken")
	}
	if nodeLess("sol-10.sophia", "sol-2.sophia") {
		t.Fatal("ordering asymmetry")
	}
	sig := cablingSignature("sol-2.sophia", "sw-sophia-sol:1")
	if sig != "cabling-swap:sol-1.sophia+sol-2.sophia" {
		t.Fatalf("sig = %q", sig)
	}
}
