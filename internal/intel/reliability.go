package intel

// Fleet reliability sweeps: the cross-seed confidence-band view of the
// grid's reliability trend. See the package comment for where this sits.

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Band is one statistic's mean ± spread across the sweep's seeds. Units
// follow the field it describes (percent for rates, counts for bugs).
type Band struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

func bandOf(a core.Aggregate, scale float64) Band {
	return Band{
		Mean: scale * a.Mean,
		Std:  scale * a.Std,
		Min:  scale * a.Min,
		Max:  scale * a.Max,
		N:    a.N,
	}
}

// TrendPoint is one week's confidence band: the success rate across every
// seed that reported the week, in percent.
type TrendPoint struct {
	Week int  `json:"week"` // 1-based, the human-facing numbering
	Rate Band `json:"rate_pct"`
}

// Trend is the grid reliability view of one fleet sweep. Every field is
// wire-shaped (JSON tags, plain floats): the gateway serves it verbatim
// and a client can decode it back into an identical Trend — which is how
// the CLI/API render-equality test proves the two reports match.
type Trend struct {
	Seeds    int   `json:"seeds"`
	BaseSeed int64 `json:"base_seed"`
	Weeks    int   `json:"weeks"`

	Points []TrendPoint `json:"points"`

	// FirstWeek / FinalWeeks are the E9 trend endpoints in percent; the
	// Bugs bands are tracker counters in plain counts.
	FirstWeek  Band `json:"first_week_pct"`
	FinalWeeks Band `json:"final_weeks_pct"`
	BugsFiled  Band `json:"bugs_filed"`
	BugsFixed  Band `json:"bugs_fixed"`
	BugsOpen   Band `json:"bugs_open"`
}

// TrendFromFleet folds a fleet sweep into the reliability trend.
// Deterministic: core.RunFleet aggregates in seed order regardless of
// scheduling, so equal (seeds, weeks, config) inputs yield equal Trends.
func TrendFromFleet(res *core.FleetResult, baseSeed int64, weeks int) *Trend {
	t := &Trend{
		Seeds:      len(res.Campaigns),
		BaseSeed:   baseSeed,
		Weeks:      weeks,
		Points:     make([]TrendPoint, 0, len(res.Weekly)),
		FirstWeek:  bandOf(res.FirstWeek, 100),
		FinalWeeks: bandOf(res.FinalWeeks, 100),
		BugsFiled:  bandOf(res.BugsFiled, 1),
		BugsFixed:  bandOf(res.BugsFixed, 1),
		BugsOpen:   bandOf(res.BugsOpen, 1),
	}
	for _, w := range res.Weekly {
		t.Points = append(t.Points, TrendPoint{Week: w.Week + 1, Rate: bandOf(w.Rate, 100)})
	}
	return t
}

// RenderText writes the human-facing report. This is the ONE renderer:
// g5ktest -seeds N prints it from a locally computed Trend, and a
// gateway client prints it from the decoded /reliability/trend body — the
// render-equality test holds both outputs byte-for-byte equal.
func (t *Trend) RenderText(w io.Writer) {
	fmt.Fprintf(w, "grid reliability: %d seeds (base %d), %d weeks\n",
		t.Seeds, t.BaseSeed, t.Weeks)
	fmt.Fprintln(w, "weekly success rate across seeds (mean ± std):")
	for _, p := range t.Points {
		fmt.Fprintf(w, "  week %2d: %5.1f%% ± %4.1f  (min %5.1f%%, max %5.1f%%, %d seeds)\n",
			p.Week, p.Rate.Mean, p.Rate.Std, p.Rate.Min, p.Rate.Max, p.Rate.N)
	}
	fmt.Fprintln(w, "aggregates:")
	fmt.Fprintf(w, "  first week ok  %s\n", pctBand(t.FirstWeek))
	fmt.Fprintf(w, "  final weeks ok %s\n", pctBand(t.FinalWeeks))
	fmt.Fprintf(w, "  bugs filed     %s\n", countBand(t.BugsFiled))
	fmt.Fprintf(w, "  bugs fixed     %s\n", countBand(t.BugsFixed))
	fmt.Fprintf(w, "  bugs open      %s\n", countBand(t.BugsOpen))
}

func pctBand(b Band) string {
	return fmt.Sprintf("%.1f%% ± %.1f (min %.1f%%, max %.1f%%, n=%d)",
		b.Mean, b.Std, b.Min, b.Max, b.N)
}

func countBand(b Band) string {
	return fmt.Sprintf("%.2f ± %.2f (min %.2f, max %.2f, n=%d)",
		b.Mean, b.Std, b.Min, b.Max, b.N)
}
