package lint

import "go/ast"

// BareGoroutine flags go statements in simulation packages. Inside the
// simulation, concurrency must go through the simclock run-token API
// ((*simclock.Clock).Go / WaitUntil / Sleep): the clock hands the token to
// one goroutine at a time in deterministic event order, which is what
// keeps campaign outcomes independent of the host scheduler. A bare go
// statement opts out of that discipline. The serving stack (gateway,
// inproc, status) and the binaries live outside the simulation and are
// exempt; the few sanctioned uses inside sim packages — the
// run-token implementation itself and the share-nothing fleet/federation
// worker pools — carry //g5k:allow directives saying why they are safe.
var BareGoroutine = &Analyzer{
	Name: "baregoroutine",
	Doc:  "no bare go statements in simulation packages; use the simclock run-token API",
	Exempt: []string{
		"repro/internal/gateway",
		"repro/internal/inproc",
		"repro/internal/status",
		"repro/cmd/...",
	},
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(),
						"bare go statement in a simulation package; start simulation goroutines with (*simclock.Clock).Go so the run token serializes them deterministically")
				}
				return true
			})
		}
	},
}
