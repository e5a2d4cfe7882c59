package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// refSeconds is the run length the workload sizes and the goldens are
// calibrated for; BENCHMARK.json's run_seconds carries the same number.
const refSeconds = 12

// benchProcs is the GOMAXPROCS every run uses; min(2, GOMAXPROCS)
// load-generating goroutines is then one, and the workloads are written
// for one. It is not the host's: on the 2-vCPU sandbox two busy threads
// each ran at half speed for minutes at a time and at full speed in
// between, so every number that depends on two things running at once had
// two values a factor of two apart (README, "One processor"). One busy
// thread always ran at full speed.
const benchProcs = 1

// fedWorkers is how many barrier workers campaign-fed's federation B
// steps its micro-shards with. It does not follow GOMAXPROCS: on one
// processor two workers still interleave the shard steps differently from
// the serial federation A, which is what the A ≡ B check needs.
const fedWorkers = 2

// size fixes how much work one run does: two runs of the same size and
// seed do exactly the same work and their counts repeat.
type size struct {
	campaigns int // campaign-mono: campaigns run back to back
	weeks     int // campaign-mono: simulated weeks per campaign
	fedTicks  int // campaign-fed: one-hour barrier ticks each federation advances
	requests  int // serve-scrape: scripted requests
	refreshes int // serve-dashboard: dashboard refreshes
	liveSec   int // serve-live: seconds of open-loop load
	liveRate  int // serve-live: arrivals per second

	staticDays int // serve-scrape/-dashboard: campaign length behind the static gateway
	warmDays   int // serve-live: campaign length before the load starts
	setups     int // times a serve workload's set-up is repeated; setup_s is their median
	probeCalls int // direct calls per layer probe in a traced run
}

// sizeFor is the work whose measured phase lasts about seconds on the
// 2-vCPU sandbox (go1.24, one processor): a monolithic paper campaign
// advances ≈ 2.8 simulated weeks per second, a federated day costs ≈ 0.75 s
// for the serial and the 2-worker federation together, the scrape script
// completes ≈ 6.4k requests per second and a dashboard refresh takes
// ≈ 165 ms. It is called with refSeconds, and with half of it by the traced
// run.
func sizeFor(seconds int) size {
	return size{
		campaigns: 5,
		weeks:     seconds * 10 / refSeconds,
		fedTicks:  seconds / 4 * hoursPerWeek,
		requests:  seconds * 7000,
		refreshes: seconds * 100 / refSeconds, // 100 at full size: the fewest that give a p90 ten samples beyond it
		// Twice the others' length: a sixth of the 200 arrivals a second meet a
		// step, and their median repeated within 8 % from 400 of them, 5 % from 800.
		liveSec:    2 * seconds,
		liveRate:   200,
		staticDays: 10,
		warmDays:   8,
		setups:     3,
		probeCalls: 10000,
	}
}

// metric is one reported number. N is the sample count behind a
// percentile or median (0 for counts and ratios); Pct is the percentile a
// tail metric actually used.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Pct   float64 `json:"pct,omitempty"`
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Golden    string            `json:"golden"` // ok | none | mismatch
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	TraceFile string            `json:"trace_file,omitempty"`

	// headline is the workload's work_per_s, kept on traced runs too so the
	// tracing overhead can be computed.
	headline float64
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) setN(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// endToEnd fills the five end-to-end metrics of an untraced run: opMs
// holds one sample per operation, tailPct is the percentile the workload
// reports as its tail, and rateN the number of samples behind the rate the
// caller already stored in r.headline. The tail is reported as a multiple
// of the same run's median: when the host slows a whole run down, both
// move and their ratio stays.
func (r *result) endToEnd(setupSec float64, heap *heapPeak, rateN int, opMs []float64, tailPct float64) {
	asc := sorted(opMs)
	p50, _ := tail(asc, 50)
	tl, used := tail(asc, tailPct)
	r.set("setup_s", setupSec, "s")
	r.set("peak_heap_mb", heap.mb(), "MB")
	r.setN("work_per_s", r.headline, "1/s", rateN)
	r.setN("op_p50_ms", p50, "ms", len(asc))
	r.Metrics["op_tail_x"] = metric{Value: tl / p50, Unit: "x", N: len(asc), Pct: used}
	r.note("operation time, ms: p50 %.4f  p90 %.4f  p95 %.4f  p99 %.4f  max %.4f  (n=%d); op_tail_x is p%g ÷ p50",
		p50, asc[rank(len(asc), 90)], asc[rank(len(asc), 95)], asc[rank(len(asc), 99)], asc[len(asc)-1], len(asc), used)
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// names returns the result's metric names, sorted.
func (r *result) names() []string {
	out := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// tally counts operations attempted and failed. Every correctness check
// is an attempted operation too, so a mismatch shows in failed ÷ attempted
// like a failed request does. One goroutine owns a tally; merge folds the
// clients' tallies together afterwards.
type tally struct {
	attempted int
	failed    int
	msgs      []string
}

const keepFailures = 20

func (t *tally) ops(n int) { t.attempted += n }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.msgs) < keepFailures {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// check counts one check and records its failure message when !ok.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, m := range o.msgs {
		if len(t.msgs) < keepFailures {
			t.msgs = append(t.msgs, m)
		}
	}
}

func (t *tally) into(r *result) {
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.msgs
}

// heapPeak follows the live heap over the measured phase: the bytes the
// most recent collection found reachable (runtime/metrics
// /gc/heap/live:bytes), read at every sampling point. In-use heap swings
// between the live heap and twice it with every collection cycle, and how
// far it overshoots depends on how fast the host lets the collector run; the
// live heap depends on what the program retains. Reading runtime/metrics
// does not stop the world. One goroutine owns a heapPeak.
type heapPeak struct {
	live []float64 // bytes, one per sampling point
	end  float64   // bytes after the final collection
	buf  [1]metrics.Sample
}

func (h *heapPeak) sample() {
	h.buf[0].Name = "/gc/heap/live:bytes"
	metrics.Read(h.buf[:])
	h.live = append(h.live, float64(h.buf[0].Value.Uint64()))
}

// final collects and samples once more: what the measured phase retains at
// its end, exactly.
func (h *heapPeak) final() {
	runtime.GC()
	h.sample()
	h.end = h.live[len(h.live)-1]
}

// mb is the peak reported: the 90th percentile of the samples, or what the
// run retains at its end if that is more. Not the maximum: where a mark
// phase happens to end inside an operation moves single cycles by a fifth
// (serve-scrape over ten runs: maximum 72–80 MB, p90 68.0–69.7 MB). And not
// the p90 alone: campaign-fed's heap grows to its last tick through a few
// dozen cycles that catch a tick's transients or miss them (p90 44–57 MB
// over ten runs, retained at the end 61.3–61.8 MB).
func (h *heapPeak) mb() float64 {
	asc := sorted(h.live)
	return math.Max(asc[rank(len(asc), 90)], h.end) / (1 << 20)
}

// repeatSetup builds the served grid n times and returns the last one built
// and the median set-up time. Each earlier grid is released and collected
// before the next one is built, so the measured phase starts from one
// grid's heap.
func repeatSetup(n int, setup func() *grid) (last *grid, medianSec float64) {
	var times []float64
	for rep := 0; rep < n; rep++ {
		if rep > 0 {
			last.release()
			last = nil
		}
		runtime.GC()
		start := time.Now()
		last = setup()
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC()
	return last, median(times)
}

// environment is the machine and build a run came from. Two reports
// compare only when their environments are equal, the revision aside.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"` // benchProcs, whatever the host offers
	Clients    int    `json:"clients"`    // load-generating goroutines: min(2, GOMAXPROCS)
	Transport  string `json:"transport"`
	Revision   string `json:"vcs_revision"`
	Seed       int64  `json:"seed"`
}

func readEnvironment(seed int64) environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: benchProcs,
		Clients:    1,
		Transport:  "inproc",
		Revision:   "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				env.Revision = s.Value
			}
		}
	}
	return env
}

func (e environment) String() string {
	return fmt.Sprintf("%s %s/%s, %d CPU, GOMAXPROCS %d (set by the benchmark), %d client goroutine, transport %s (no socket), revision %s, seed %d",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.Clients, e.Transport, e.Revision, e.Seed)
}
