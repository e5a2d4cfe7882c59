// Package lint is the repository's custom static-analysis framework: a
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Diagnostic, a multichecker driver in cmd/g5kvet,
// and fixture-based tests in the analysistest style) built on the standard
// library's go/ast, go/types and go/importer.
//
// The simulator's load-bearing property is determinism: a campaign's
// outcome is a pure function of its seed, and the federation's serial and
// parallel schedules must produce bit-identical summaries. Those
// invariants are enforced dynamically by -race runs and the determinism
// tests (TestFleetDeterministicAcrossParallelism,
// TestFederationSerialParallelDeterminism), which can only catch a
// violation after it corrupts an output. The analyzers in this package make the common sources of
// nondeterminism fail `make lint` instead:
//
//   - walltime: no time.Now/Since/Sleep (or timers) in simulation
//     packages — wall-clock is allowed only where real time is the
//     subject (the gateway's latency metrics, binaries).
//   - globalrand: no package-level math/rand functions anywhere; all
//     randomness flows through seeded *rand.Rand values.
//   - maporder: no appending to slices or emitting output from inside a
//     range-over-map loop unless the result is subsequently sorted.
//   - atomicfield: a struct field accessed through sync/atomic anywhere
//     must be accessed atomically everywhere.
//   - baregoroutine: no bare go statements in simulation packages; in-sim
//     work that lasts simulated time is a clock event.
//
// A finding is suppressed by a `//g5k:allow <analyzer> <reason>` comment
// on the offending line or the line directly above it. The reason is
// mandatory: a directive without one (or naming the wrong analyzer) does
// not suppress, and is itself reported as malformed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //g5k:allow
	// directives.
	Name string

	// Doc is a one-line description of the enforced rule.
	Doc string

	// Exempt lists import paths the rule does not apply to. An entry
	// either matches a package exactly or, with a trailing "/...",
	// matches a whole subtree.
	Exempt []string

	// Run reports the analyzer's findings for one package.
	Run func(*Pass)
}

// Exempted reports whether the analyzer does not apply to the package.
func (a *Analyzer) Exempted(pkgPath string) bool {
	for _, pat := range a.Exempt {
		if pkgPath == pat {
			return true
		}
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
			if pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/") {
				return true
			}
		}
	}
	return false
}

// A Pass connects an analyzer to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // package import path
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies one analyzer to one loaded package and returns its findings
// with matching //g5k:allow suppressions already applied. Packages the
// analyzer exempts produce no findings.
func Run(a *Analyzer, pkg *Package) []Diagnostic {
	if a.Exempted(pkg.Path) {
		return nil
	}
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Path:     pkg.Path,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	a.Run(pass)
	return Suppress(pass.diags, Directives(pkg.Fset, pkg.Files))
}

// RunAll applies every analyzer to every package, appends the malformed-
// directive findings, and returns everything sorted by position.
func RunAll(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			out = append(out, Run(a, pkg)...)
		}
		out = append(out, CheckDirectives(analyzers, pkg)...)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Pos, out[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
