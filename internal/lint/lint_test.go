package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// simPkgPath stands in for a simulation package: no analyzer exempts it.
const simPkgPath = "repro/internal/simfixture"

// wantRe matches the analysistest-style expectation comments in fixtures:
// a `// want`-backquoted regexp on the line the diagnostic must land on.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type expectation struct {
	re        *regexp.Regexp
	satisfied bool
}

// runFixture loads testdata/<name> as a package with the given import
// path, runs one analyzer (with //g5k:allow suppression applied, as the
// driver would), and checks the diagnostics against the fixture's
// // want comments: every diagnostic must match a want on its line, and
// every want must be hit.
func runFixture(t *testing.T, a *lint.Analyzer, name, pkgPath string) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	pkg, err := lint.LoadFixtureDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	wants := map[string]*expectation{} // "file:line" → expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, line, m[1], err)
			}
			wants[fmt.Sprintf("%s:%d", path, line)] = &expectation{re: re}
		}
		f.Close()
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments; it would pass vacuously", dir)
	}

	for _, d := range lint.Run(a, pkg) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		w, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
			continue
		}
		if !w.re.MatchString(d.Message) {
			t.Errorf("%s: diagnostic %q does not match want /%s/", key, d.Message, w.re)
			continue
		}
		w.satisfied = true
	}
	for key, w := range wants {
		if !w.satisfied {
			t.Errorf("%s: expected a diagnostic matching /%s/, got none", key, w.re)
		}
	}
}

func TestWallTimeFixture(t *testing.T) {
	runFixture(t, lint.WallTime, "walltime", simPkgPath)
}

func TestGlobalRandFixture(t *testing.T) {
	runFixture(t, lint.GlobalRand, "globalrand", simPkgPath)
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, lint.MapOrder, "maporder", simPkgPath)
}

func TestAtomicFieldFixture(t *testing.T) {
	runFixture(t, lint.AtomicField, "atomicfield", simPkgPath)
}

func TestBareGoroutineFixture(t *testing.T) {
	runFixture(t, lint.BareGoroutine, "baregoroutine", simPkgPath)
}

// The allowlists: the same source is a violation in a simulation package
// and silent in the packages whose job is wall time or host concurrency.
func TestPackageAllowlists(t *testing.T) {
	const wallSrc = `package fixture

import "time"

var at = time.Now()
`
	const goSrc = `package fixture

func f(work func()) { go work() }
`
	cases := []struct {
		analyzer *lint.Analyzer
		src      string
		pkgPath  string
		findings int
	}{
		{lint.WallTime, wallSrc, simPkgPath, 1},
		{lint.WallTime, wallSrc, "repro/internal/gateway", 0},
		{lint.WallTime, wallSrc, "repro/cmd/g5kapi", 0},
		{lint.BareGoroutine, goSrc, simPkgPath, 1},
		{lint.BareGoroutine, goSrc, "repro/internal/simclock", 1}, // simclock itself is NOT exempt; its one use carries a directive
		{lint.BareGoroutine, goSrc, "repro/internal/gateway", 0},
		{lint.BareGoroutine, goSrc, "repro/internal/status", 0},
		{lint.BareGoroutine, goSrc, "repro/cmd/g5ktest", 0},
	}
	for _, tc := range cases {
		pkg, err := lint.LoadFixtureSource(tc.src, tc.pkgPath)
		if err != nil {
			t.Fatalf("%s in %s: %v", tc.analyzer.Name, tc.pkgPath, err)
		}
		if got := len(lint.Run(tc.analyzer, pkg)); got != tc.findings {
			t.Errorf("%s in %s: %d findings, want %d", tc.analyzer.Name, tc.pkgPath, got, tc.findings)
		}
	}
}

func TestExempted(t *testing.T) {
	a := &lint.Analyzer{Exempt: []string{"repro/internal/inproc", "repro/cmd/..."}}
	for path, want := range map[string]bool{
		"repro/internal/inproc":  true,
		"repro/internal/inprocX": false,
		"repro/internal/oar":     false,
		"repro/cmd":              true,
		"repro/cmd/g5kapi":       true,
		"repro/cmdX":             false,
	} {
		if got := a.Exempted(path); got != want {
			t.Errorf("Exempted(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestAllAndByName(t *testing.T) {
	all := lint.All()
	if len(all) != 5 {
		t.Fatalf("All() returned %d analyzers, want 5", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing name, doc or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if lint.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
}

// The suite must hold on the repository itself: every analyzer clean over
// every non-test source, modulo reasoned //g5k:allow suppressions. This is
// the same property `make lint` gates, enforced from the tier-1 test run
// so a violation cannot merge even where only `go test ./...` runs.
func TestSuiteCleanOnRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern ./... should cover the whole module", len(pkgs))
	}
	var report strings.Builder
	diags := lint.RunAll(lint.All(), pkgs)
	for _, d := range diags {
		fmt.Fprintf(&report, "  %s\n", d)
	}
	if len(diags) > 0 {
		t.Errorf("g5kvet findings on the repository:\n%s", report.String())
	}
}
