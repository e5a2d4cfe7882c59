// Command checknode runs the g5k-checks equivalent from the command line:
// it verifies nodes (or whole clusters) against the Reference API, with
// optional fault injection to demonstrate detection.
//
// Usage:
//
//	checknode [-cluster NAME | -node NAME] [-inject KIND] [-seed S]
//
// Examples:
//
//	checknode -cluster griffon
//	checknode -node taurus-3.lyon -inject cstates-on
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/checks"
	"repro/internal/faults"
	"repro/internal/refapi"
	"repro/internal/simclock"
	"repro/internal/testbed"
)

func main() {
	cluster := flag.String("cluster", "", "check every node of this cluster")
	node := flag.String("node", "", "check a single node")
	inject := flag.String("inject", "", "inject this fault kind on the target before checking")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	if (*cluster == "") == (*node == "") {
		fmt.Fprintln(os.Stderr, "exactly one of -cluster or -node is required")
		flag.Usage()
		os.Exit(2)
	}

	clock := simclock.New(*seed)
	tb := testbed.Default()
	ref := refapi.NewStore(tb, clock.Now())
	inj := faults.NewInjector(clock, tb)
	checker := checks.NewChecker(clock, tb, ref)

	target := *node
	if target == "" {
		cl := tb.Cluster(*cluster)
		if cl == nil {
			fmt.Fprintf(os.Stderr, "unknown cluster %q\n", *cluster)
			os.Exit(1)
		}
		target = cl.Nodes[0].Name
	}
	if *inject != "" {
		if _, err := inj.InjectNode(faults.Kind(*inject), target); err != nil {
			fmt.Fprintf(os.Stderr, "inject: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("injected %s on %s\n", *inject, target)
	}

	exit := 0
	if *node != "" {
		rep, err := checker.CheckNode(*node)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printReport(rep, &exit)
	} else {
		reports, failing, err := checker.CheckCluster(*cluster)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, rep := range reports {
			printReport(rep, &exit)
		}
		fmt.Printf("%d/%d nodes OK\n", len(reports)-len(failing), len(reports))
	}
	os.Exit(exit)
}

func printReport(rep *checks.Report, exit *int) {
	fmt.Println(rep.Summary())
	for _, m := range rep.Mismatches {
		fmt.Printf("    %s\n", m)
		*exit = 1
	}
}
