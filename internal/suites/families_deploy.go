package suites

// Deployment families (slide 21: "Provided system images" and "Reliability
// of key services"): environments (the 14×32 matrix), paralleldeploy,
// multireboot, multideploy.

import (
	"fmt"

	"repro/internal/ci"
	"repro/internal/kadeploy"
	"repro/internal/oar"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

// environmentsCellScript is the payload of one (image, cluster) matrix
// cell: reserve one node of the cluster, deploy the image, verify the
// booted kernel, release.
func environmentsCellScript(ctx *Context) ci.Script {
	// Per-cluster requests built once: a 448-cell matrix fires this script
	// constantly and the requests never change.
	reqByCluster := map[string]oar.Request{}
	for _, cl := range ctx.TB.Clusters() {
		reqByCluster[cl.Name] = oar.ClusterRequest(cl.Name, 1, simclock.Hour)
	}
	release := ctx.releaseJob
	return func(bc *ci.BuildContext) ci.Outcome {
		image, cluster := bc.Axis("image"), bc.Axis("cluster")
		env, err := kadeploy.EnvByName(image)
		if err != nil {
			bc.Logf("%v", err)
			return ci.Outcome{Result: ci.Failure, Duration: simclock.Minute,
				BugSignatures: []string{"env-unregistered:" + image}}
		}
		req, ok := reqByCluster[cluster]
		if !ok {
			req = oar.ClusterRequest(cluster, 1, simclock.Hour)
		}
		job := ctx.OAR.SubmitReq(req, oar.SubmitOptions{User: "jenkins", Immediate: true})
		if job.State != oar.Running {
			bc.Logf("no node available right now; cancelled")
			return ci.Outcome{Result: ci.Unstable, Duration: simclock.Minute}
		}
		node := ctx.TB.Node(job.Nodes[0])
		out := ci.Outcome{Result: ci.Success}
		res, err := ctx.Deployer.Deploy([]*testbed.Node{node}, env)
		switch {
		case err != nil:
			out.Result = ci.Failure
			out.Duration = 2 * simclock.Minute
			bc.Logf("deploy error: %v", err)
			out.BugSignatures = append(out.BugSignatures,
				"service-flaky:"+node.Site+"/kadeploy")
		case res.OK != 1:
			out.Result = ci.Failure
			out.Duration = res.Duration + simclock.Minute
			bc.Logf("deployment of %s failed on %s: %s", image, node.Name, res.PerNode[0].Reason)
			out.BugSignatures = append(out.BugSignatures, "random-reboots:"+node.Name)
		default:
			out.Duration = res.Duration + simclock.Minute
			if bc.LogsRetained() { // or the arguments are boxed for nothing, 448 times a matrix
				bc.Logf("%s deployed on %s in %v", image, node.Name, res.Duration)
			}
		}
		ctx.Clock.Schedule(out.Duration, release, job)
		return out
	}
}

// paralleldeployTests: one per cluster, hardware-centric. Deploys the
// standard environment on ALL nodes of the cluster at once and fails when
// more than 5 % of nodes do not come back — the scalability and
// reliability guarantee users depend on.
func paralleldeployTests(tb *testbed.Testbed) []*Test {
	var out []*Test
	for _, cl := range tb.Clusters() {
		cl := cl
		out = append(out, &Test{
			Family:  "paralleldeploy",
			Name:    "paralleldeploy/" + cl.Name,
			Cluster: cl.Name,
			Site:    cl.Site,
			Kind:    sched.HardwareCentric,
			Request: fmt.Sprintf("cluster='%s'/nodes=ALL,walltime=2", cl.Name),
			Period:  simclock.Week,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				nodes := make([]*testbed.Node, len(job.Nodes))
				for i, name := range job.Nodes {
					nodes[i] = ctx.TB.Node(name)
				}
				res, err := ctx.Deployer.Deploy(nodes, kadeploy.StdEnv)
				if err != nil {
					v.Duration = 2 * simclock.Minute
					v.fail(fmt.Sprintf("service-flaky:%s/kadeploy", cl.Site), "deploy error: %v", err)
					return v
				}
				v.Duration = res.Duration + 2*simclock.Minute
				if res.Failed*20 > len(nodes) { // >5%
					for _, name := range res.FailedNodes() {
						v.fail("random-reboots:"+name, "node lost during parallel deploy")
					}
				}
				v.logf("deployed %d/%d nodes of %s in %v", res.OK, len(nodes), cl.Name, res.Duration)
				return v
			},
		})
	}
	return out
}

// multirebootTests: one per cluster. Reboots a node several times in a row;
// slow boots reveal the kernel race the paper mentions, missing boots
// reveal flaky hardware.
func multirebootTests(tb *testbed.Testbed) []*Test {
	const reboots = 5
	var out []*Test
	for _, cl := range tb.Clusters() {
		cl := cl
		out = append(out, &Test{
			Family:  "multireboot",
			Name:    "multireboot/" + cl.Name,
			Cluster: cl.Name,
			Site:    cl.Site,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("cluster='%s'/nodes=1,walltime=2", cl.Name),
			Period:  simclock.Week,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				node := ctx.TB.Node(job.Nodes[0])
				var total simclock.Time
				for i := 0; i < reboots; i++ {
					dur, err := ctx.Deployer.Reboot(node)
					if err != nil {
						// One lost reboot can be fleet background noise;
						// retry before declaring the hardware bad.
						v.logf("reboot %d/%d lost, retrying", i+1, reboots)
						total += 5 * simclock.Minute
						dur, err = ctx.Deployer.Reboot(node)
					}
					if err != nil {
						v.Duration = total + 10*simclock.Minute
						v.fail("random-reboots:"+node.Name,
							"reboot %d/%d: node did not come back twice", i+1, reboots)
						return v
					}
					if dur > 3*simclock.Minute {
						v.fail("boot-delay:"+node.Name,
							"reboot %d/%d took %v (kernel race?)", i+1, reboots, dur)
					}
					total += dur
				}
				v.Duration = total + simclock.Minute
				v.logf("%d reboots of %s in %v", reboots, node.Name, total)
				return v
			},
		})
	}
	return out
}

// multideployTests: one per cluster. Chains several deployments on one node
// to catch state leaking between deployments and intermittent failures.
func multideployTests(tb *testbed.Testbed) []*Test {
	const rounds = 3
	var out []*Test
	for _, cl := range tb.Clusters() {
		cl := cl
		out = append(out, &Test{
			Family:  "multideploy",
			Name:    "multideploy/" + cl.Name,
			Cluster: cl.Name,
			Site:    cl.Site,
			Kind:    sched.SoftwareCentric,
			Request: fmt.Sprintf("cluster='%s'/nodes=1,walltime=2", cl.Name),
			Period:  simclock.Week,
			Run: func(ctx *Context, job *oar.Job) Verdict {
				v := ctx.NewVerdict()
				node := ctx.TB.Node(job.Nodes[0])
				var total simclock.Time
				for i := 0; i < rounds; i++ {
					res, err := ctx.Deployer.Deploy([]*testbed.Node{node}, kadeploy.StdEnv)
					if err != nil {
						v.Duration = total + 2*simclock.Minute
						v.fail(fmt.Sprintf("service-flaky:%s/kadeploy", cl.Site),
							"round %d/%d: %v", i+1, rounds, err)
						return v
					}
					total += res.Duration
					if res.OK != 1 {
						v.Duration = total + simclock.Minute
						v.fail("random-reboots:"+node.Name,
							"round %d/%d failed: %s", i+1, rounds, res.PerNode[0].Reason)
						return v
					}
				}
				v.Duration = total + simclock.Minute
				v.logf("%d consecutive deployments on %s in %v", rounds, node.Name, total)
				return v
			},
		})
	}
	return out
}
