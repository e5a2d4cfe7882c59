// Scheduler: the slide-16/17 story in isolation. A heavily used testbed
// makes whole-cluster tests nearly impossible to place; the external
// scheduler polls testbed availability, defers with exponential backoff,
// avoids peak hours and same-site concurrency, and marks builds unstable
// when their OAR job loses the race.
//
//	go run ./examples/scheduler
package main

import (
	"fmt"

	"repro/internal/ci"
	"repro/internal/oar"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func main() {
	clock := simclock.New(9)
	tb := testbed.Default()
	oarSrv := oar.NewServer(clock, tb)
	ciSrv := ci.NewServer(clock, ci.Options{NumExecutors: 4})
	scheduler := sched.New(clock, oarSrv, ciSrv, sched.DefaultConfig())

	// A CI job that needs ALL of the sol cluster for 30 minutes.
	ciSrv.CreateJob(&ci.Job{Name: "disk/sol", Script: func(bc *ci.BuildContext) ci.Outcome {
		j, _ := oarSrv.Submit("cluster='sol'/nodes=ALL,walltime=1",
			oar.SubmitOptions{User: "jenkins", Immediate: true})
		if j.State != oar.Running {
			return ci.Outcome{Result: ci.Unstable, Duration: simclock.Minute}
		}
		clock.After(30*simclock.Minute, func() { oarSrv.Release(j.ID) })
		return ci.Outcome{Result: ci.Success, Duration: 30 * simclock.Minute}
	}})
	scheduler.Register(&sched.Spec{
		Name: "disk/sol", JobName: "disk/sol", Cluster: "sol", Site: "sophia",
		Kind:    sched.HardwareCentric,
		Request: "cluster='sol'/nodes=ALL,walltime=1", Period: simclock.Day,
	})

	// Users keep grabbing sol nodes: 16 of 20 nodes for the next ~30 hours.
	oarSrv.Submit("cluster='sol'/nodes=16,walltime=30", oar.SubmitOptions{User: "alice"})

	scheduler.Start()
	clock.RunFor(2 * simclock.Day)

	fmt.Println("scheduler decision log (first 14 entries):")
	for i, d := range scheduler.Decisions() {
		if i >= 14 {
			break
		}
		extra := ""
		if d.Backoff > 0 {
			extra = fmt.Sprintf(" (next retry in %v)", d.Backoff)
		}
		fmt.Printf("  %-12s %-10s %s%s\n", d.At, d.Spec, d.Action, extra)
	}
	fmt.Println("\ndecision totals:")
	for _, ac := range scheduler.DecisionCountsSorted() {
		fmt.Printf("  %-24s %d\n", ac.Action, ac.Count)
	}
	for _, st := range scheduler.Stats() {
		fmt.Printf("\nspec %s: %d triggers, %d completed runs, %d unstable, backoff now %v\n",
			st.Name, st.Triggers, st.Runs, st.Unstables, st.Backoff)
	}
	fmt.Println("\nnote the exponential backoff sequence while the cluster is full,")
	fmt.Println("and the reset once the user job ends and the test finally runs.")
}
