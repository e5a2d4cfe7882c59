package lint_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	// Campaigns advance by horizon (RunFor/RunUntil) and never drain: their
	// tickers keep the queue full. Tests in seven packages end by draining
	// their clock, which no single package's _test.go file can serve.
	"simclock.Clock.Run": "tests: the drain the tests of seven packages end with",
}

// TestEveryExportHasAProductCaller holds the module to one rule: an
// exported function, method, type, variable or constant is referenced from
// some non-test source other than its own declaration. What only tests
// reach is deleted, unexported, or moved into a _test.go file. Package main
// exports nothing, a method that satisfies an interface is called through
// it, and struct fields are left to TestEveryOptionFieldHasAProductWriter,
// which asks for a writer, not a reader. The loader is the analyzers' own
// (non-test sources only), so every reference it sees is a product caller;
// the rule needs the whole module at once, which is why it is a test and
// not a g5kvet analyzer (a Pass covers one package).
func TestEveryExportHasAProductCaller(t *testing.T) {
	pkgs := modulePackages(t)
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

// loadModule loads the module's non-test sources once for every guard.
var loadModule = sync.OnceValues(func() ([]*lint.Package, error) { return lint.Load("../..", "./...") })

// modulePackages is the whole module, loaded and type-checked; it skips
// the test under -short.
func modulePackages(t *testing.T) []*lint.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	return pkgs
}

// TestEveryOptionFieldHasAProductWriter is the export rule for struct
// fields: an exported field of an exported struct is written somewhere in
// the module's non-test sources, or it is an option only tests set and
// its code path is reached by nothing else. A write is a composite literal
// (keyed: its keys; unkeyed: every field), an assignment, op-assignment,
// ++ or -- through a selector chain (out.Merged.Builds += n writes Merged
// too) and taking a field's address (&cfg.Seed hands it to a flag). A
// field with a json tag is a wire shape, filled by a decoder or read by a
// client, and an embedded field is there for what it promotes: neither is
// counted.
func TestEveryOptionFieldHasAProductWriter(t *testing.T) {
	pkgs := modulePackages(t)
	written := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					markLiteral(written, p.Info, n)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markChain(written, p.Info, lhs)
					}
				case *ast.IncDecStmt:
					markChain(written, p.Info, n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markChain(written, p.Info, n.X)
					}
				}
				return true
			})
		}
	}
	var unwritten []string
	for _, p := range pkgs {
		if p.Types.Name() == "main" {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if _, wire := reflect.StructTag(st.Tag(i)).Lookup("json"); !f.Exported() || f.Embedded() || wire {
					continue
				}
				if !written[fieldID(tn, f.Name())] {
					unwritten = append(unwritten, key(p.Types, name+"."+f.Name()))
				}
			}
		}
	}
	if len(unwritten) > 0 {
		t.Errorf("exported fields no product code writes (delete the field and what it switches on, or unexport it):\n  %s", strings.Join(unwritten, "\n  "))
	}
}

// TestEveryUnexportedIdentifierHasAProductReader is the export rule for a
// package's own names: an unexported package-level function, type,
// variable or constant is referenced from the package's non-test sources.
// What only tests read moves into a _test.go file. Package main's main
// runs without a reference. There is no allowlist.
func TestEveryUnexportedIdentifierHasAProductReader(t *testing.T) {
	var unread []string
	for _, p := range modulePackages(t) {
		used := map[types.Object]bool{}
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() || name == "_" || used[obj] || p.Types.Name() == "main" && name == "main" {
				continue
			}
			unread = append(unread, key(p.Types, name))
		}
	}
	if len(unread) > 0 {
		t.Errorf("unexported identifiers no product code reads (delete them, or move them into a _test.go file):\n  %s", strings.Join(unread, "\n  "))
	}
}

// TestEveryUnexportedFieldHasAReader is the export rule for a struct's own
// fields: an unexported field is read somewhere in its package's non-test
// sources, or it is state kept for nobody and goes. A read is any use but
// a write: the target of an assignment, a composite literal's key, and the
// field under an indexed assignment target (x.m[k] = v writes x.m's
// entries). A field of a struct used as a map key is read by every lookup,
// and a field with a json tag is a wire shape, read by the encoder; neither
// needs a use. Embedded fields are there for what they promote. There is
// no allowlist.
func TestEveryUnexportedFieldHasAReader(t *testing.T) {
	var unread []string
	for _, p := range modulePackages(t) {
		writes := map[*ast.Ident]bool{}
		var fields []*ast.Field
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					fields = append(fields, n.Fields.List...)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if x, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
							lhs = x.X
						}
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							writes[sel.Sel] = true
						}
					}
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								writes[id] = true
							}
						}
					}
				}
				return true
			})
		}
		read := map[*types.Var]bool{}
		for id, obj := range p.Info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read[v.Origin()] = true
			}
		}
		for _, tv := range p.Info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				markKeyFields(read, m.Key())
			}
		}
		owner := map[*types.Var]string{}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						owner[st.Field(i)] = key(p.Types, name+"."+st.Field(i).Name())
					}
				}
			}
		}
		for _, f := range fields {
			if f.Tag != nil {
				if tag, err := strconv.Unquote(f.Tag.Value); err == nil {
					if _, wire := reflect.StructTag(tag).Lookup("json"); wire {
						continue
					}
				}
			}
			for _, id := range f.Names {
				v, ok := p.Info.Defs[id].(*types.Var)
				if !ok || v.Exported() || v.Name() == "_" || read[v] {
					continue
				}
				name := owner[v]
				if name == "" {
					name = p.Fset.Position(id.Pos()).String() + ": " + v.Name()
				}
				unread = append(unread, name)
			}
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Errorf("unexported fields no product code reads (delete them with their writes):\n  %s", strings.Join(unread, "\n  "))
	}
}

// markKeyFields marks every field of the struct t is, and of the structs
// those fields are, as read: a map keyed by t compares them on every
// lookup.
func markKeyFields(read map[*types.Var]bool, t types.Type) {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		read[st.Field(i).Origin()] = true
		markKeyFields(read, st.Field(i).Type())
	}
}

// fieldID names field of the named struct type tn "<path>.<Type>.<Field>".
func fieldID(tn *types.TypeName, field string) string {
	return tn.Pkg().Path() + "." + tn.Name() + "." + field
}

// structOf is the named type t is or points to, and the struct under it;
// ok is false for anything else.
func structOf(t types.Type) (*types.TypeName, *types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil, nil, false
	}
	st, ok := named.Underlying().(*types.Struct)
	return named.Origin().Obj(), st, ok
}

// markLiteral marks the fields a struct literal sets: its keys, or every
// field when it has none.
func markLiteral(written map[string]bool, info *types.Info, lit *ast.CompositeLit) {
	tn, st, ok := structOf(info.TypeOf(lit))
	if !ok || tn.Pkg() == nil {
		return
	}
	if len(lit.Elts) > 0 {
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
			for i := 0; i < st.NumFields(); i++ {
				written[fieldID(tn, st.Field(i).Name())] = true
			}
			return
		}
	}
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				written[fieldID(tn, id.Name)] = true
			}
		}
	}
}

// markChain marks every field the written expression e reaches through:
// x.A.B[i].C writes C, B and A.
func markChain(written map[string]bool, info *types.Info, e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				markSelection(written, sel)
			}
			e = x.X
		default:
			return
		}
	}
}

// markSelection marks the field a selection names and every embedded field
// its path goes through to reach it.
func markSelection(written map[string]bool, sel *types.Selection) {
	t := sel.Recv()
	for _, i := range sel.Index() {
		tn, st, ok := structOf(t)
		if !ok {
			return
		}
		f := st.Field(i)
		if tn.Pkg() != nil {
			written[fieldID(tn, f.Name())] = true
		}
		t = f.Type()
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
