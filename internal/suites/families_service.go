package suites

// Service-health families (slide 21: "Testbed status", "Basic
// functionality of command-line tools, REST API", "Other important
// services"): oarstate, cmdline, sidapi, console, kavlan, kwapi.

import (
	"fmt"

	"repro/internal/kavlan"
	"repro/internal/monitor"
	"repro/internal/oar"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// probeService rolls n simulated requests against a site service and
// reports how many failed.
func probeService(ctx *Context, site, service string, n int) int {
	fails := 0
	for i := 0; i < n; i++ {
		if ctx.Faults.ServiceFails(site, service) {
			fails++
		}
	}
	return fails
}

// oarstateTests: one per site. Verifies that the site's OAR answers and
// that its nodes are not quietly rotting in Suspected/Dead state.
func oarstateTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, site := range tb.Sites {
		site := site
		out = append(out, &Test{
			Family:  "oarstate",
			Name:    "oarstate/" + site.Name,
			Site:    site.Name,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("site='%s'/nodes=1,walltime=0:30", site.Name),
			Period:  simclock.Day,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				v.Duration = 2 * simclock.Minute
				if fails := probeService(ctx, site.Name, "oar", 10); fails > 0 {
					v.fail(fmt.Sprintf("service-flaky:%s/oar", site.Name),
						"%d/10 oarstat calls failed", fails)
				}
				nodes := site.Nodes()
				down := 0
				for _, n := range nodes {
					if n.State != testbed.Alive {
						down++
					}
				}
				if down*10 > len(nodes) { // >10% of the site down
					v.fail("oarstate-degraded:"+site.Name,
						"%d/%d nodes not alive", down, len(nodes))
				}
				v.logf("%s: %d/%d nodes alive", site.Name, len(nodes)-down, len(nodes))
				return v
			},
		})
	}
	return out
}

// cmdlineTests: one per site. Exercises the basic command-line tools
// (oarsub/oarstat/kadeploy front-ends) against the site services.
func cmdlineTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, site := range tb.Sites {
		site := site
		out = append(out, &Test{
			Family:  "cmdline",
			Name:    "cmdline/" + site.Name,
			Site:    site.Name,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("site='%s'/nodes=1,walltime=1", site.Name),
			Period:  simclock.Day,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				v.Duration = 10 * simclock.Minute
				for _, svc := range []string{"oar", "kadeploy"} {
					if fails := probeService(ctx, site.Name, svc, 8); fails > 0 {
						v.fail(fmt.Sprintf("service-flaky:%s/%s", site.Name, svc),
							"%d/8 %s CLI invocations failed", fails, svc)
					}
				}
				v.logf("cmdline tools OK at %s", site.Name)
				return v
			},
		})
	}
	return out
}

// sidapiTests: one per site. Exercises the site's REST API (the paper's
// sidapi covers the Grid'5000 API stack).
func sidapiTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, site := range tb.Sites {
		site := site
		out = append(out, &Test{
			Family:  "sidapi",
			Name:    "sidapi/" + site.Name,
			Site:    site.Name,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("site='%s'/nodes=1,walltime=0:30", site.Name),
			Period:  simclock.Day,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				v.Duration = 5 * simclock.Minute
				if fails := probeService(ctx, site.Name, "api", 12); fails > 0 {
					v.fail(fmt.Sprintf("service-flaky:%s/api", site.Name),
						"%d/12 REST calls failed", fails)
				}
				// The API must serve a description for every node of the site.
				for _, n := range site.Nodes() {
					if _, err := ctx.Ref.Describe(n.Name); err != nil {
						v.fail("refapi-missing:"+n.Name, "%v", err)
					}
				}
				v.logf("REST API OK at %s", site.Name)
				return v
			},
		})
	}
	return out
}

// consoleTests: one per cluster. Checks that the serial console of a node
// is usable (operators depend on it to debug boot problems) and that the
// console service answers.
func consoleTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, cl := range tb.Clusters() {
		cl := cl
		out = append(out, &Test{
			Family:  "console",
			Name:    "console/" + cl.Name,
			Cluster: cl.Name,
			Site:    cl.Site,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("cluster='%s'/nodes=1,walltime=0:30", cl.Name),
			Period:  simclock.Week,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				v.Duration = 3 * simclock.Minute
				if fails := probeService(ctx, cl.Site, "console", 4); fails > 0 {
					v.fail(fmt.Sprintf("service-flaky:%s/console", cl.Site),
						"%d/4 console service calls failed", fails)
				}
				for _, name := range job.Nodes {
					if !ctx.Faults.ConsoleWorks(name) {
						v.fail("console-broken:"+name, "serial console unusable on %s", name)
					}
				}
				v.logf("console OK on %v", job.Nodes)
				return v
			},
		})
	}
	return out
}

// kavlanTests: one per site. Moves two nodes into a local VLAN, verifies
// the isolation semantics in both directions, and restores the default
// VLAN.
func kavlanTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, site := range tb.Sites {
		site := site
		out = append(out, &Test{
			Family:  "kavlan",
			Name:    "kavlan/" + site.Name,
			Site:    site.Name,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("site='%s'/nodes=3,walltime=1", site.Name),
			Period:  simclock.Week,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				v.Duration = 5 * simclock.Minute
				vl := ctx.VLAN.FindVLAN(kavlan.Local, site.Name)
				if vl == nil {
					v.fail("kavlan-pool:"+site.Name, "no local VLAN available")
					return v
				}
				a, b, outside := job.Nodes[0], job.Nodes[1], job.Nodes[2]
				defer func() {
					// Always restore, even on failure paths.
					ctx.VLAN.SetNodes(kavlan.DefaultID, []string{a, b}) //nolint:errcheck
				}()
				if _, err := ctx.VLAN.SetNodes(vl.ID, []string{a, b}); err != nil {
					v.fail(fmt.Sprintf("service-flaky:%s/kavlan", site.Name),
						"VLAN reconfiguration failed: %v", err)
					return v
				}
				if ok, _ := ctx.VLAN.Reachable(a, b); !ok {
					v.fail("kavlan-semantics:"+site.Name, "members cannot reach each other")
				}
				if ok, _ := ctx.VLAN.Reachable(outside, a); ok {
					v.fail("kavlan-semantics:"+site.Name, "local VLAN reachable from outside")
				}
				v.logf("kavlan isolation verified at %s with %v", site.Name, job.Nodes[:2])
				return v
			},
		})
	}
	return out
}

// kwapiTests: one per site. Verifies the monitoring service: probe
// liveness at ≈1 Hz, query health, and correct power attribution (a
// cabling mistake sends a node's consumption to another node's series).
func kwapiTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, site := range tb.Sites {
		site := site
		out = append(out, &Test{
			Family:  "kwapi",
			Name:    "kwapi/" + site.Name,
			Site:    site.Name,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("site='%s'/nodes=1,walltime=1", site.Name),
			Period:  simclock.Day,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				v.Duration = 6 * simclock.Minute
				node := job.Nodes[0]
				now := ctx.Clock.Now()
				from := now - 2*simclock.Minute
				if from < 0 {
					from = 0
				}
				// One REST call to kwapi: its flakiness is rolled here, on the
				// campaign's RNG, never in a query, which served reads make.
				if ctx.Faults.ServiceFails(site.Name, "kwapi") {
					v.fail(fmt.Sprintf("service-flaky:%s/kwapi", site.Name),
						"power query failed: monitor: kwapi service error at %s", site.Name)
					return v
				}
				ss, err := ctx.Monitor.Query(monitor.MetricPowerW, node, from, now)
				if err != nil {
					v.fail(fmt.Sprintf("service-flaky:%s/kwapi", site.Name),
						"power query failed: %v", err)
					return v
				}
				if err := monitor.CheckRate(ss); err != nil {
					v.fail(fmt.Sprintf("kwapi-gaps:%s", site.Name), "probe gaps: %v", err)
				}
				// Attribution check across the whole site: the wiring
				// database must point each series at its own node.
				for _, n := range site.Nodes() {
					if got := ctx.Monitor.Attribution(n.Name); got != n.Name {
						v.fail(cablingSignature(n.Name, n.Inv.NICs[0].SwitchPort),
							"power of %s is measured on %s's probe", n.Name, got)
					}
				}
				v.logf("kwapi OK at %s (%d samples)", site.Name, len(ss))
				return v
			},
		})
	}
	return out
}
