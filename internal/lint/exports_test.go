package lint_test

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// productCallerExempt lists the exported identifiers that may stand without
// a caller in the module's non-test code, each with the reason it stays.
// Keys are "<package>.<Name>" or "<package>.<Type>.<Method>", the package
// named by the last element of its import path.
var productCallerExempt = map[string]string{
	// The paper: TestReproduction reproduces its tables through these.
	"core.BugHuntConfig":                  "paper: TestReproduction's E8 bug campaign",
	"checks.Checker.CheckTestbedParallel": "paper: TestReproduction's E12 verification sweep",
	"sched.Scheduler.DecisionCounts":      "paper: TestReproduction's E6 policies and backoff ablation",
	"suites.ConfigurationCount":           "paper: TestReproduction's E7 test coverage",
	"suites.CountByFamily":                "paper: TestReproduction's E7 test families",
	// Slide 20: users trigger jobs by hand only with a token.
	"ci.Server.AddToken": "paper: the CI server's access control for manual triggers",
}

// TestEveryExportHasAProductCaller holds the module to one rule: an
// exported function, method, type, variable or constant is referenced from
// some non-test source other than its own declaration. What only tests
// reach is deleted, unexported, or moved into a _test.go file. Package main
// exports nothing, a method that satisfies an interface is called through
// it, and struct fields are data — none of them are counted. The loader is
// the analyzers' own (non-test sources only), so every reference it sees is
// a product caller; the rule needs the whole module at once, which is why
// it is a test and not a g5kvet analyzer (a Pass covers one package).
func TestEveryExportHasAProductCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	// Each package is checked against its imports' export data, so one
	// declaration is several types.Objects: references are matched by name.
	used := map[string]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if id := objectID(obj); id != "" {
				used[id] = true
			}
		}
	}
	ifaces := interfacesOf(pkgs)

	var orphans []string
	seen := map[string]bool{}
	for _, p := range pkgs {
		if p.Types.Name() == "main" {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[objectID(obj)] {
				orphans = append(orphans, key(p.Types, name))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[objectID(m)] || satisfies(named, m.Name(), ifaces) {
					continue
				}
				orphans = append(orphans, key(p.Types, name+"."+m.Name()))
			}
		}
	}
	var report strings.Builder
	for _, k := range orphans {
		seen[k] = true
		if _, ok := productCallerExempt[k]; !ok {
			fmt.Fprintf(&report, "  %s\n", k)
		}
	}
	if report.Len() > 0 {
		t.Errorf("exported without a product caller (delete it, unexport it, move it into a _test.go file, or give it a reasoned productCallerExempt entry):\n%s", report.String())
	}
	var stale []string
	for k, reason := range productCallerExempt {
		if reason == "" {
			t.Errorf("productCallerExempt[%q] carries no reason", k)
		}
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("productCallerExempt[%q] is stale: it has a product caller now, or is gone", k)
	}
}

func key(pkg *types.Package, name string) string {
	return pkg.Name() + "." + name
}

// objectID names a package-level object "<path>.<Name>" and a method
// "<path>.<Type>.<Name>"; anything else (locals, fields, universe) is "".
func objectID(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
			return "" // an interface method
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interfacesOf collects every interface type the module can call a method
// through: those its sources spell (named or inline) and those declared by
// any package it imports, directly or not.
func interfacesOf(pkgs []*lint.Package) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// satisfies reports whether T or *T implements an interface that has a
// method of this name, so the method may be called through it.
func satisfies(named *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
