package lint

import (
	"go/ast"
	"go/types"
)

// wallFuncs are the package time functions that read or wait on the wall
// clock. Conversions and constructors over explicit values (time.Duration,
// time.Unix, time.Date) are fine: they carry no hidden clock.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// WallTime flags wall-clock reads inside simulation packages. Simulated
// time is the clock there (simclock.Clock.Now advances only through the
// event loop), so a time.Now or time.Sleep smuggles host scheduling into
// results that must be a pure function of the seed. Wall time stays legal
// where real time is the subject: the gateway's latency metrics measure
// the host, and binaries report to humans.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "no time.Now/Since/Sleep (or timers) in simulation packages; use the simclock",
	Exempt: []string{
		"repro/internal/gateway", // per-endpoint latency metrics and uptime
		"repro/cmd/...",          // binaries talk to humans in wall time
	},
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallFuncs[fn.Name()] {
					return true
				}
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock inside a simulation package; use the simclock (sim time must be a pure function of the seed)",
					fn.Name())
				return true
			})
		}
	},
}
