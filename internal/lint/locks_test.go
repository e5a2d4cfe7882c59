package lint_test

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// simulatorPackages are the packages a campaign runs single-threaded: clock
// events run one at a time on the goroutine stepping the clock, and the
// gateway reaches a shard only under that shard's gate. They need no lock
// of their own, so they hold none.
var simulatorPackages = []string{
	"simclock", "oar", "sched", "ci", "testbed", "checks",
	"bugs", "monitor", "faults", "kadeploy", "kavlan", "suites",
	// intel runs no campaign, but it owns no mutable state after assembly:
	// its callers guard the bug trackers it reads, and a refapi.Store
	// synchronizes itself.
	"intel",
}

// TestSimulatorPackagesHoldNoLocks refuses, in the non-test sources of the
// simulator packages, every variable or field whose type holds a sync type
// other than sync.Pool (a pool is shared by concurrent fleet campaigns, and
// guards nothing of a shard), anything of sync/atomic, and every call of a
// sync or sync/atomic function. There is no allowlist: a lock in these
// packages would guard state the shard gate already guards.
func TestSimulatorPackagesHoldNoLocks(t *testing.T) {
	pkgs := modulePackages(t)
	want := map[string]bool{}
	for _, name := range simulatorPackages {
		want["repro/internal/"+name] = true
	}
	var found []string
	for _, p := range pkgs {
		if !want[p.Path] {
			continue
		}
		delete(want, p.Path)
		// owner names each field of the package's named structs.
		owner := map[*types.Var]string{}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					owner[st.Field(i)] = key(p.Types, name+"."+st.Field(i).Name())
				}
			}
		}
		for id, obj := range p.Info.Defs {
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			what := syncType(v.Type())
			if what == "" {
				continue
			}
			name := owner[v]
			switch {
			case name != "":
			case v.Parent() == scope:
				name = key(p.Types, v.Name())
			default:
				name = p.Fset.Position(id.Pos()).String() + ": " + v.Name()
			}
			found = append(found, name+" ("+what+")")
		}
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			if path := fn.Pkg().Path(); path == "sync" || path == "sync/atomic" {
				found = append(found, p.Fset.Position(id.Pos()).String()+": calls "+path+"."+fn.Name())
			}
		}
	}
	for path := range want {
		t.Errorf("simulator package %s is not in the module", path)
	}
	if len(found) > 0 {
		sort.Strings(found)
		t.Errorf("simulator packages hold locks (the shard gate is the lock; delete them):\n  %s", strings.Join(found, "\n  "))
	}
}

// syncType names the sync or sync/atomic type t holds, through pointers,
// containers and unnamed structs, or "" when it holds none: sync.Pool
// passes, and a named type of another package answers for its own fields.
func syncType(t types.Type) string {
	switch t := t.(type) {
	case *types.Named:
		if pkg := t.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync/atomic" || pkg.Path() == "sync" && t.Obj().Name() != "Pool") {
			return pkg.Path() + "." + t.Obj().Name()
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if what := syncType(t.TypeArgs().At(i)); what != "" {
				return what
			}
		}
	case *types.Alias:
		return syncType(types.Unalias(t))
	case *types.Pointer:
		return syncType(t.Elem())
	case *types.Slice:
		return syncType(t.Elem())
	case *types.Array:
		return syncType(t.Elem())
	case *types.Chan:
		return syncType(t.Elem())
	case *types.Map:
		if what := syncType(t.Key()); what != "" {
			return what
		}
		return syncType(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if what := syncType(t.Field(i).Type()); what != "" {
				return what
			}
		}
	}
	return ""
}
