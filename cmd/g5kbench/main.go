// Command g5kbench is the repository's benchmark: five workloads over the
// three things people do with this system — run campaigns (g5ktest), serve
// them (g5kapi -shards), serve them while they advance (g5kapi -shards
// -live) — measured end to end, and layer by layer in a separate traced
// run. README.md in this directory is the manual.
//
//	go run ./cmd/g5kbench                          every workload, end-to-end metrics
//	go run ./cmd/g5kbench -workload serve-live     one workload
//	go run ./cmd/g5kbench -trace 1                 per-layer metrics and trace files
//	go run ./cmd/g5kbench -out a.json              also write the full report
//	go run ./cmd/g5kbench -compare a.json b.json   check two reports against the bounds
//
// All load is generated inside this process through internal/inproc: no
// socket is involved, and the output says so. The benchmark owns its load
// generator and percentile code; it must not import internal/loadgen,
// which later changes rewrite, because the instrument may not change
// under a claim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// benchDir is this package's directory from the root of a checkout, where
// `go run ./cmd/g5kbench` is started from.
var benchDir = filepath.Join("cmd", "g5kbench")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the full outcome of an invocation, as -out writes it and
// -compare reads it.
type report struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

// driverLine is the last line of standard output: the one the pipeline
// reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func lineFor(res *result) driverLine {
	l := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueOfUnit{}}
	for name, m := range res.Metrics {
		l.Metrics[name] = valueOfUnit{m.Value, m.Unit}
	}
	return l
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("g5kbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all five)")
	seed := fs.Int64("seed", 1, "derives every campaign seed, request script and arrival train")
	seconds := fs.Int("seconds", refSeconds, "BENCHMARK.json's run_seconds, which the pipeline passes; the work is fixed and sized for it, so no other value is accepted")
	trace := fs.Int("trace", 0, "1: a traced run printing the per-layer metrics; 0: the end-to-end metrics")
	out := fs.String("out", "", "also write the full report to this file")
	compare := fs.Bool("compare", false, "compare two -out reports: g5kbench -compare a.json b.json")
	golden := fs.Bool("write-golden", false, "recompute testdata/golden.json (only when a change is meant to alter what campaigns compute)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "g5kbench: -compare takes two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *golden {
		if err := writeGolden(benchDir); err != nil {
			fmt.Fprintf(stderr, "g5kbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds != refSeconds || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "g5kbench: -seconds is %d, -trace is 0 or 1, and there are no positional arguments\n", refSeconds)
		return 2
	}
	todo := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "g5kbench: unknown workload %q\n", *workload)
			return 2
		}
		todo = []workloadDef{*w}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	rep := report{Env: readEnvironment(*seed)}
	fmt.Fprintf(stdout, "g5kbench: %s\n", rep.Env)
	failed := false
	for _, w := range todo {
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, *seed, rep.Env)
		} else {
			res, err = runPlain(w, *seed, sizeFor(refSeconds))
		}
		if err != nil {
			fmt.Fprintf(stderr, "g5kbench: %s: %v\n", w.Name, err)
			return 1
		}
		rep.Results = append(rep.Results, res)
		printResult(stdout, res)
		if res.Failed > 0 {
			failed = true
		}
		line, err := json.Marshal(lineFor(res))
		if err != nil {
			fmt.Fprintf(stderr, "g5kbench: %s: %v\n", w.Name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "g5kbench: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runPlain is the untraced run: the only source of end-to-end numbers.
func runPlain(w workloadDef, seed int64, sz size) (*result, error) {
	gold, err := goldenFor(seed, sz)
	if err != nil {
		return nil, err
	}
	res := w.run(runConfig{seed: seed, sz: sz, golden: gold})
	return res, finite(res)
}

// runTraced gives the per-layer rows. It runs the workload twice at half
// size, untraced and then traced, so the tracing overhead on the headline
// rate is measured inside the same process; each run sets up once.
func runTraced(w workloadDef, seed int64, env environment) (*result, error) {
	sz := sizeFor(refSeconds / 2)
	sz.setups = 1
	plain := w.run(runConfig{seed: seed, sz: sz})
	return traceAtSize(w, seed, sz, plain, env, filepath.Join(benchDir, "out"))
}

// traceAtSize is the traced run proper: plain is the untraced run of the
// same size it is compared with, outDir where the trace file goes.
func traceAtSize(w workloadDef, seed int64, sz size, plain *result, env environment, outDir string) (*result, error) {
	tr := newTracer()
	res := w.run(runConfig{seed: seed, sz: sz, tr: tr})
	res.Traced = true
	res.set("bench.trace_overhead_share", 1-res.headline/plain.headline, "share")
	res.set("bench.fail_share", float64(res.Failed)/float64(res.Attempted), "share")
	for _, def := range perLayer {
		if _, ok := res.Metrics[def.Name]; !ok {
			res.set(def.Name, 0, def.Unit) // the layer did no work on this workload
		}
	}
	path, err := tr.write(outDir, w.Name, seed, env)
	if err != nil {
		return nil, err
	}
	res.TraceFile = path
	rows, n := tr.totals()
	res.note("%d spans recorded; trace written to %s", n, path)
	for _, r := range rows {
		res.note("span %-24s ×%-7d total %10.1f ms  self %10.1f ms", r.Name, r.Count, r.TotalMs, r.SelfMs)
	}
	return res, finite(res)
}

// finite refuses a result with a NaN or an infinity in it: a metric the
// run could not compute is an error, not a number.
func finite(res *result) error {
	for _, name := range res.names() {
		if v := res.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return nil
}

func printResult(w io.Writer, res *result) {
	kind := "end-to-end, tracing off"
	if res.Traced {
		kind = "per-layer, traced run at half size"
	}
	fmt.Fprintf(w, "\n== %s (%s) ==\n", res.Workload, kind)
	fmt.Fprintf(w, "   attempted %d, failed %d, golden: %s\n", res.Attempted, res.Failed, res.Golden)
	for _, name := range res.names() {
		m := res.Metrics[name]
		extra := ""
		if m.Pct != 0 {
			extra += fmt.Sprintf("  p%g", m.Pct)
		}
		if m.N != 0 {
			extra += fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Fprintf(w, "   %-34s %14.4f %-6s%s\n", name, m.Value, m.Unit, extra)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAIL: %s\n", f)
	}
}
