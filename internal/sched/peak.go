package sched

import (
	"time"

	"repro/internal/oar"
	"repro/internal/simclock"
)

// The peak-hours policy is one definition for the whole grid: every site
// scheduler defers hardware-centric tests and the admission layer
// (internal/admit) holds whole-cluster demands over the same working hours,
// so "stay out of the users' way" means the same window everywhere instead
// of being re-tuned per site. It is a pure function of simulated time and
// the request shape, so consulting it from concurrently stepping shards
// cannot couple their RNG streams or break the federation's serial ≡
// parallel determinism.

// Working hours of the paper's deployment: 9:00–18:00, Mon–Fri, local
// simulated time.
const peakStartHour, peakEndHour = 9, 18

// InPeak reports whether t falls inside the working hours.
func InPeak(t simclock.Time) bool {
	wd := t.Weekday()
	if wd == time.Saturday || wd == time.Sunday {
		return false
	}
	h := t.HourOfDay()
	return h >= peakStartHour && h < peakEndHour
}

// AllowNow decides whether a request may be *placed* at time t, as opposed
// to waiting in the admission queue. Only whole-cluster demands (a segment
// asking for AllNodes — the hardware-centric shape that monopolises a
// cluster) are held back during peak hours; everything else places freely.
func AllowNow(req oar.Request, t simclock.Time) bool {
	if !InPeak(t) {
		return true
	}
	for _, seg := range req.Segments {
		if seg.Nodes == oar.AllNodes {
			return false
		}
	}
	return true
}
