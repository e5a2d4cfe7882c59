// Package suites implements the paper's test-script library (slide 21): the
// sixteen test families totalling 751 test configurations that cover
// description correctness, testbed status, tooling, system images, service
// reliability and specific hardware.
//
// Per the paper's philosophy the scripts are deliberately simple ("Keep It
// Simple, Stupid"): each one exercises one aspect of the testbed against
// the simulated substrate, and on failure reports bug signatures precise
// enough for operators to locate the problem (internal/core routes them to
// the tracker and the operator model).
//
// Coverage (total 751 configurations):
//
//	environments     14 images × 32 clusters = 448   (matrix job)
//	refapi           32   oarproperties 32   stdenv        32
//	paralleldeploy   32   multireboot   32   multideploy   32
//	console          32   disk          24   dellbios       9
//	oarstate          8   cmdline        8   sidapi         8
//	kavlan            8   kwapi          8   mpigraph       6
package suites

import (
	"fmt"

	"repro/internal/checks"
	"repro/internal/ci"
	"repro/internal/faults"
	"repro/internal/kadeploy"
	"repro/internal/kavlan"
	"repro/internal/monitor"
	"repro/internal/oar"
	"repro/internal/refapi"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// Context hands a test script every substrate it may exercise.
type Context struct {
	Clock    *simclock.Clock
	TB       *testbed.Testbed
	Ref      *refapi.Store
	OAR      *oar.Server
	Deployer *kadeploy.Deployer
	VLAN     *kavlan.Manager
	Monitor  *monitor.Collector
	Checker  *checks.Checker
	Faults   *faults.Injector

	// Quiet suppresses verdict log rendering (signatures and results are
	// unaffected). Campaigns that discard build logs set it so scripts
	// never format the lines the CI server would throw away.
	Quiet bool
}

// NewVerdict returns a verdict carrying the context's log policy; test
// scripts start from it instead of a zero Verdict.
func (ctx *Context) NewVerdict() Verdict { return Verdict{Quiet: ctx.Quiet} }

// Verdict is the outcome of one test run (before CI bookkeeping).
type Verdict struct {
	Failed     bool
	Duration   simclock.Time
	Log        []string
	Signatures []string // bug signatures for every problem found
	Quiet      bool     // drop log lines (bug signatures still recorded)
}

func (v *Verdict) logf(format string, args ...any) {
	if v.Quiet {
		return
	}
	v.Log = append(v.Log, fmt.Sprintf(format, args...))
}

// fail records a problem with its signature.
func (v *Verdict) fail(sig, format string, args ...any) {
	v.Failed = true
	v.Signatures = append(v.Signatures, sig)
	if v.Quiet {
		return
	}
	v.logf("FAIL[%s]: %s", sig, fmt.Sprintf(format, args...))
}

// Test is one schedulable test configuration.
type Test struct {
	Family  string
	Name    string // unique: "family/target"
	Cluster string // "" for site-scoped tests
	Site    string
	Kind    sched.TestKind
	Request string        // OAR resource request
	Period  simclock.Time // desired run frequency
	Run     func(ctx *Context, job *oar.Job) Verdict

	req oar.Request // Request parsed, by Script's first run
}

// Script wraps a test into a CI build script implementing the paper's
// submission protocol (slide 17): submit the OAR job in immediate mode; if
// it cannot start right away, cancel and mark the build unstable; otherwise
// run the payload and release the resources when it completes.
func (t *Test) Script(ctx *Context) ci.Script {
	release := ctx.releaseJob
	return func(bc *ci.BuildContext) ci.Outcome {
		if t.req.Segments == nil { // the first run parses, every run submits the same
			var err error
			if t.req, err = oar.ParseRequest(t.Request); err != nil {
				bc.Logf("oarsub failed: %v", err)
				return ci.Outcome{Result: ci.Failure, Duration: simclock.Minute}
			}
		}
		job := ctx.OAR.SubmitReq(t.req, oar.SubmitOptions{User: "jenkins", Immediate: true})
		if job.State != oar.Running {
			bc.Logf("testbed job could not be scheduled immediately; cancelled")
			return ci.Outcome{Result: ci.Unstable, Duration: simclock.Minute}
		}
		v := t.Run(ctx, job)
		dur := v.Duration
		if dur <= 0 {
			dur = simclock.Minute
		}
		ctx.Clock.Schedule(dur, release, job)
		res := ci.Success
		if v.Failed {
			res = ci.Failure
		}
		return ci.Outcome{Result: res, Duration: dur, Log: v.Log, BugSignatures: v.Signatures}
	}
}

// releaseJob ends a test's OAR job (the argument) once its payload's
// simulated duration is over; the walltime reclaims the nodes otherwise.
func (ctx *Context) releaseJob(job any) {
	if j := job.(*oar.Job); j.State == oar.Running {
		ctx.OAR.Release(j.ID) //nolint:errcheck // released at walltime otherwise
	}
}

// All builds the complete test registry against a testbed. The result is
// deterministic: tests are ordered family by family, clusters in testbed
// order.
func All(tb *testbed.Testbed) []*Test {
	var out []*Test
	out = append(out, refapiTests(tb)...)
	out = append(out, oarPropertiesTests(tb)...)
	out = append(out, dellbiosTests(tb)...)
	out = append(out, oarstateTests(tb)...)
	out = append(out, cmdlineTests(tb)...)
	out = append(out, sidapiTests(tb)...)
	out = append(out, stdenvTests(tb)...)
	out = append(out, paralleldeployTests(tb)...)
	out = append(out, multirebootTests(tb)...)
	out = append(out, multideployTests(tb)...)
	out = append(out, consoleTests(tb)...)
	out = append(out, kavlanTests(tb)...)
	out = append(out, kwapiTests(tb)...)
	out = append(out, mpigraphTests(tb)...)
	out = append(out, diskTests(tb)...)
	return out
}

// EnvironmentsJob returns the CI matrix job covering every (image, cluster)
// combination — the paper's flagship matrix: 14 × 32 = 448 configurations.
func EnvironmentsJob(ctx *Context) *ci.Job {
	images := make([]string, len(kadeploy.Registry))
	for i, e := range kadeploy.Registry {
		images[i] = e.Name
	}
	return &ci.Job{
		Name:        "environments",
		Description: "deploy every supported image on every cluster",
		Axes: []ci.Axis{
			{Name: "image", Values: images},
			{Name: "cluster", Values: ctx.TB.ClusterNames()},
		},
		Retention: 4000, // a full matrix build is 449 records
		Script:    environmentsCellScript(ctx),
	}
}

// ConfigurationCount returns the total number of test configurations:
// simple tests plus environments matrix cells. The paper reports 751.
func ConfigurationCount(tb *testbed.Testbed) int {
	return len(All(tb)) + len(kadeploy.Registry)*len(tb.Clusters())
}

// CountByFamily tallies configurations per family (the slide-21 table).
func CountByFamily(tb *testbed.Testbed) map[string]int {
	out := map[string]int{"environments": len(kadeploy.Registry) * len(tb.Clusters())}
	for _, t := range All(tb) {
		out[t.Family]++
	}
	return out
}
