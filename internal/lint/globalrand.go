package lint

import (
	"go/ast"
	"go/types"
)

// randConstructors are the math/rand package-level functions that do NOT
// draw from the process-global source: they build seeded generators, which
// is exactly the sanctioned path.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors
	"NewPCG": true, "NewChaCha8": true,
}

// GlobalRand flags package-level math/rand (and math/rand/v2) functions.
// The global source is seeded once per process — randomly since Go 1.20 —
// so rand.Intn in any code path makes campaign outcomes unreproducible.
// All randomness must flow through seeded *rand.Rand values: the
// simclock's campaign stream or federation.ShardSeed's per-site streams.
// No package is exempt.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "no package-level math/rand functions; randomness flows through seeded *rand.Rand values",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				path := fn.Pkg().Path()
				if path != "math/rand" && path != "math/rand/v2" {
					return true
				}
				// Methods on *rand.Rand are the sanctioned seeded path.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				if randConstructors[fn.Name()] {
					return true
				}
				pass.Reportf(sel.Pos(),
					"%s.%s draws from the process-global random source; use a seeded *rand.Rand (simclock campaign stream, federation.ShardSeed)",
					path, fn.Name())
				return true
			})
		}
	},
}
