package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports checks report b against report a, workload by workload:
// every end-to-end metric may be worse by at most its bound, every exact
// count must be identical, and nothing may have failed. It refuses to
// compare reports from different environments, because a bound on a time
// means nothing across machines or seeds; the revision is printed, not
// compared, since parent against change is what the tool is for. Returns
// the exit code.
func compareReports(pathA, pathB string, stdout, stderr io.Writer) int {
	var reps [2]*report
	for i, path := range []string{pathA, pathB} {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintf(stderr, "g5kbench: -compare: %v\n", err)
			return 2
		}
		reps[i] = rep
	}
	return compare(reps[0], reps[1], stdout)
}

func compare(a, b *report, w io.Writer) int {
	envA, envB := a.Env, b.Env
	envA.Revision, envB.Revision = "", ""
	if envA != envB {
		fmt.Fprintf(w, "REFUSED: the reports come from different environments\n  a: %s\n  b: %s\n", a.Env, b.Env)
		return 2
	}
	fmt.Fprintf(w, "a: revision %s\nb: revision %s\n", a.Env.Revision, b.Env.Revision)
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	breaches := 0
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		if rb == nil || rb.Traced != ra.Traced {
			fmt.Fprintf(w, "%-16s missing from b, or traced on one side only  BREACH\n", ra.Workload)
			breaches++
			continue
		}
		fmt.Fprintf(w, "%s: failed %d of %d (a), %d of %d (b)\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "  operations failed  BREACH\n")
			breaches++
		}
		for _, def := range endToEnd {
			ma, oka := ra.Metrics[def.Name]
			mb, okb := rb.Metrics[def.Name]
			if !oka && !okb {
				continue // a traced report carries no end-to-end metrics
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if def.Better == higher {
				worse = -worse
			}
			// Every end-to-end metric is positive; a zero or non-finite side
			// gives no ratio to bound, and that is a breach.
			finite := ma.Value > 0 && !math.IsInf(ma.Value, 0) && !math.IsNaN(worse) && !math.IsInf(worse, 0)
			verdict := "ok"
			if !oka || !okb || !finite || worse > def.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "  %-14s a %12.4f  b %12.4f %-4s  worse by %+6.1f%%  bound %4.0f%%  %s\n",
				def.Name, ma.Value, mb.Value, def.Unit, 100*worse, 100*def.Bound, verdict)
		}
		if ra.Workload != "campaign-mono" && ra.Workload != "campaign-fed" {
			continue // serving rolls the shards' campaign RNG (flaky kwapi), so its counts are not exact
		}
		for _, def := range perLayer {
			ma, ok := ra.Metrics[def.Name]
			if !ok || !exactLayer[def.Name] {
				continue
			}
			if mb := rb.Metrics[def.Name]; mb.Value != ma.Value {
				fmt.Fprintf(w, "  %-26s a %v  b %v  exact count differs  BREACH\n", def.Name, ma.Value, mb.Value)
				breaches++
			}
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(w, "within bounds")
	return 0
}
