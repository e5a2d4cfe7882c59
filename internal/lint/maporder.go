package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// sortFuncs are the sort/slices calls that launder map-iteration order
// out of a slice.
var sortFuncs = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true, "Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// fmtEmitters are the fmt functions that emit output directly.
var fmtEmitters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// emitMethods are method names that stream bytes somewhere order matters.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// MapOrder flags range-over-map loops whose iteration order leaks into an
// ordered output: appending to a slice that the function never sorts
// afterwards, or emitting (fmt, Write*, Encode) from inside the loop
// body. Go randomizes map iteration per run, so both patterns produce
// output that differs between bit-identical campaigns — the exact bug
// class that would silently break the merged summaries
// TestFederationSerialParallelDeterminism holds to its golden. Collect,
// sort, then emit; loops that only aggregate into scalars or other maps
// are order-independent and not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "no slice appends or output emission in map-iteration order without a subsequent sort",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				pass.checkMapRanges(fn.Body)
			}
		}
	},
}

// checkMapRanges inspects one function body: every range-over-map inside
// it (including nested function literals) is checked for order-dependent
// appends and emissions, with sorts searched in the same body.
func (p *Pass) checkMapRanges(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if tv, ok := p.Info.Types[rng.X]; !ok || !isMap(tv.Type) {
			return true
		}
		p.checkMapRangeBody(body, rng)
		return true
	})
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func (p *Pass) checkMapRangeBody(scope *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !isAppendCall(rhs) {
					continue
				}
				target := n.Lhs[i]
				if !p.declaredOutside(target, rng) {
					continue // per-iteration slice; order handled at its use site
				}
				if p.sortedLater(scope, target, n.Pos()) {
					continue
				}
				p.Reportf(n.Pos(),
					"%s accumulates in map-iteration order and is never sorted in this function; map order is nondeterministic — sort it before it escapes",
					types.ExprString(target))
			}
		case *ast.CallExpr:
			if name, ok := p.emitterName(n); ok {
				p.Reportf(n.Pos(),
					"%s emits output while ranging over a map; iteration order is nondeterministic — collect, sort, then emit",
					name)
			}
		}
		return true
	})
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// declaredOutside reports whether the root object of expr is declared
// outside the range statement — i.e. the accumulated slice outlives the
// loop.
func (p *Pass) declaredOutside(expr ast.Expr, rng *ast.RangeStmt) bool {
	root := rootIdent(expr)
	if root == nil {
		return true // conservative: unknown roots are assumed to escape
	}
	obj := p.Info.Uses[root]
	if obj == nil {
		obj = p.Info.Defs[root]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// rootIdent walks x.f[i].g style expressions down to their leftmost
// identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// sortedLater reports whether the function body contains, after pos, a
// sort call whose argument is the same expression as target. A
// sort.Sort(byX(target)) wrapper counts.
func (p *Pass) sortedLater(scope *ast.BlockStmt, target ast.Expr, pos token.Pos) bool {
	want := types.ExprString(target)
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := p.Info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		names := sortFuncs[pkg.Imported().Path()]
		if names == nil || !names[sel.Sel.Name] {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		if types.ExprString(arg) == want {
			found = true
			return false
		}
		// sort.Sort(byName(target)): unwrap a single-argument conversion
		// or constructor around the slice.
		if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) == 1 &&
			types.ExprString(ast.Unparen(inner.Args[0])) == want {
			found = true
			return false
		}
		return true
	})
	return found
}

// emitterName resolves call to an output-emitting function or method and
// returns its display name.
func (p *Pass) emitterName(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtEmitters[fn.Name()] {
			return "fmt." + fn.Name(), true
		}
		return "", false
	}
	if emitMethods[fn.Name()] {
		recv := sig.Recv().Type()
		return strings.TrimPrefix(recv.String(), "*") + "." + fn.Name(), true
	}
	return "", false
}
