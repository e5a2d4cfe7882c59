package suites

// Description-correctness families (slide 21: "Homogeneity and correctness
// of testbed description"): refapi, oarproperties, dellbios, plus stdenv
// which verifies the standard environment and runs node checks at boot.

import (
	"fmt"

	"repro/internal/checks"
	"repro/internal/kadeploy"
	"repro/internal/oar"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// refapiTests: one per cluster. Verifies every node of the cluster against
// the Reference API (g5k-checks across the cluster). Software-centric: it
// only reserves one node as a vantage point; checks read node inventories
// through the management network. The sweep checks the cluster's nodes one
// after the other within the build's start instant.
func refapiTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, cl := range tb.Clusters() {
		cl := cl
		// The sweep's reports, handed back in on every run: runs of one
		// test never overlap, and nothing below keeps a report.
		var reports []checks.Report
		out = append(out, &Test{
			Family:  "refapi",
			Name:    "refapi/" + cl.Name,
			Cluster: cl.Name,
			Site:    cl.Site,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("cluster='%s'/nodes=1,walltime=1", cl.Name),
			Period:  simclock.Day,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				v.Duration = 5 * simclock.Minute
				swept, err := ctx.Checker.CheckClusterInto(cl.Name, reports)
				if err != nil {
					v.fail("refapi-error:"+cl.Name, "check run failed: %v", err)
					return v
				}
				reports = swept
				for _, r := range reports {
					for _, d := range r.Mismatches {
						v.fail(SignatureForDiff(d), "%s", d)
					}
				}
				v.logf("checked %d nodes of %s", len(reports), cl.Name)
				return v
			},
		})
	}
	return out
}

// oarPropertiesTests: one per cluster. The OAR database is filled from the
// Reference API (slide 7); this test verifies that the properties OAR
// serves match what the reference description implies, so that resource
// selection (gpu='YES', ram_gb, ...) gives users what they asked for.
func oarPropertiesTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, cl := range tb.Clusters() {
		cl := cl
		out = append(out, &Test{
			Family:  "oarproperties",
			Name:    "oarproperties/" + cl.Name,
			Cluster: cl.Name,
			Site:    cl.Site,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("cluster='%s'/nodes=1,walltime=1", cl.Name),
			Period:  simclock.Day,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				v.Duration = 3 * simclock.Minute
				for _, n := range ctx.TB.Cluster(cl.Name).Nodes {
					ref, err := ctx.Ref.Describe(n.Name)
					if err != nil {
						v.fail("refapi-missing:"+n.Name, "no description: %v", err)
						continue
					}
					// OAR's ram_gb is the live inventory's RAMGB, so the two
					// compare as integers; gpu is read as OAR serves it.
					if ram := n.Inv.RAMGB; ram != ref.Inv.RAMGB {
						v.fail("ram-loss:"+n.Name,
							"oar ram_gb=%d but reference says %d", ram, ref.Inv.RAMGB)
					}
					wantGPU := "NO"
					if ref.Inv.HasGPU() {
						wantGPU = "YES"
					}
					if gpu, _ := oar.Property(n, "gpu"); gpu != wantGPU {
						v.fail("desc-drift:"+n.Name+"/gpu",
							"oar gpu=%s, reference %s", gpu, wantGPU)
					}
				}
				v.logf("verified OAR properties for %s", cl.Name)
				return v
			},
		})
	}
	return out
}

// dellbiosTests: recent Dell PowerEdge clusters need specific BIOS settings
// applied by hand (slide 12: "hardware requiring some manual
// configuration"); this family verifies BIOS version and settings
// homogeneity on those clusters.
func dellbiosTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, cl := range tb.Clusters() {
		if cl.Vendor != "Dell" || cl.ModelYear < 2013 {
			continue
		}
		cl := cl
		out = append(out, &Test{
			Family:  "dellbios",
			Name:    "dellbios/" + cl.Name,
			Cluster: cl.Name,
			Site:    cl.Site,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("cluster='%s'/nodes=1,walltime=1", cl.Name),
			Period:  simclock.Week,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				v.Duration = 5 * simclock.Minute
				for _, n := range ctx.TB.Cluster(cl.Name).Nodes {
					ref, err := ctx.Ref.Describe(n.Name)
					if err != nil {
						v.fail("refapi-missing:"+n.Name, "no description: %v", err)
						continue
					}
					if n.Inv.BIOS.Version != ref.Inv.BIOS.Version {
						v.fail("desc-drift:"+n.Name+"/bios.version",
							"BIOS %s, expected %s", n.Inv.BIOS.Version, ref.Inv.BIOS.Version)
					}
					if n.Inv.BIOS.CStates != ref.Inv.BIOS.CStates {
						v.fail("cstates-on:"+n.Name, "C-states setting drifted")
					}
					if n.Inv.BIOS.HyperThreading != ref.Inv.BIOS.HyperThreading {
						v.fail("hyperthread-flip:"+n.Name, "hyper-threading setting drifted")
					}
					if n.Inv.BIOS.TurboBoost != ref.Inv.BIOS.TurboBoost {
						v.fail("turbo-flip:"+n.Name, "turbo boost setting drifted")
					}
				}
				v.logf("verified Dell BIOS settings on %s", cl.Name)
				return v
			},
		})
	}
	return out
}

// stdenvTests: one per cluster. Deploys the standard environment on one
// node and runs g5k-checks at boot, verifying in particular that the node
// boots the advertised kernel (the paper's wrong-kernel class of bugs).
func stdenvTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, cl := range tb.Clusters() {
		cl := cl
		out = append(out, &Test{
			Family:  "stdenv",
			Name:    "stdenv/" + cl.Name,
			Cluster: cl.Name,
			Site:    cl.Site,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("cluster='%s'/nodes=1,walltime=1", cl.Name),
			Period:  simclock.Day,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				node := ctx.TB.Node(job.Nodes[0])
				res, err := ctx.Deployer.Deploy([]*testbed.Node{node}, kadeploy.StdEnv)
				if err != nil {
					v.Duration = 2 * simclock.Minute
					v.fail(fmt.Sprintf("service-flaky:%s/kadeploy", cl.Site), "deploy error: %v", err)
					return v
				}
				v.Duration = res.Duration + 2*simclock.Minute
				if res.OK != 1 {
					v.fail("random-reboots:"+node.Name, "std env deployment failed: %s",
						res.PerNode[0].Reason)
					return v
				}
				// g5k-checks at node boot.
				rep, err := ctx.Checker.CheckNode(node.Name)
				if err != nil {
					v.fail("refapi-missing:"+node.Name, "check failed: %v", err)
					return v
				}
				for _, d := range rep.Mismatches {
					v.fail(SignatureForDiff(d), "%s", d)
				}
				v.logf("std env deployed and verified on %s in %v", node.Name, res.Duration)
				return v
			},
		})
	}
	return out
}
