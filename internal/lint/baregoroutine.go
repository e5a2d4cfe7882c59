package lint

import "go/ast"

// BareGoroutine flags go statements in simulation packages. Inside the
// simulation, work that lasts simulated time is a clock event
// ((*simclock.Clock).At / After / Schedule): events run one at a time, on
// the goroutine stepping the clock, in deterministic (time, schedule)
// order, which is what keeps campaign outcomes independent of the host
// scheduler. A bare go statement opts out of that discipline. The serving stack (gateway, inproc, status)
// and the binaries live outside the simulation and are exempt; the few
// sanctioned uses inside sim packages — the share-nothing fleet and
// federation worker pools — carry //g5k:allow directives saying why they
// are safe.
var BareGoroutine = &Analyzer{
	Name: "baregoroutine",
	Doc:  "no bare go statements in simulation packages; schedule the work as a clock event",
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
						"bare go statement in a simulation package; schedule the work as a clock event (At/After/Schedule) so it runs in deterministic order")
				}
				return true
			})
		}
	},
}
