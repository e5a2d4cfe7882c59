package faults

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// scheduleString prints entries in the form ParseSchedule reads, times as Go
// durations (exact to the nanosecond).
func scheduleString(entries []ScheduleEntry) string {
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = string(e.Kind) + ":" + strings.Join(e.Sites, "+") + "@" + time.Duration(e.At).String()
		if e.Duration != 0 {
			parts[i] += "+" + time.Duration(e.Duration).String()
		}
	}
	return strings.Join(parts, ",")
}

// FuzzParseSchedule holds ParseSchedule to two things on whatever text the
// fuzzer finds: it never panics, and a schedule it accepts — every entry
// with a kind, a site and, for maintenance, a window — printed back in its
// own syntax parses to the same entries. The seeds are the corpus checked in
// under testdata/fuzz/FuzzParseSchedule, which a plain `go test` runs too.
func FuzzParseSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		entries, err := ParseSchedule(s)
		if err != nil {
			return
		}
		if len(entries) == 0 {
			t.Fatalf("ParseSchedule(%q) accepted an empty schedule", s)
		}
		for _, e := range entries {
			if len(e.Sites) == 0 || e.Duration < 0 || (e.Kind == RollingMaintenance && e.Duration == 0) {
				t.Fatalf("ParseSchedule(%q) accepted %+v", s, e)
			}
		}
		printed := scheduleString(entries)
		again, err := ParseSchedule(printed)
		if err != nil {
			t.Fatalf("ParseSchedule(%q) prints %q, which does not parse: %v", s, printed, err)
		}
		if !reflect.DeepEqual(again, entries) {
			t.Fatalf("ParseSchedule(%q) = %+v\nprints %q, which parses to %+v", s, entries, printed, again)
		}
	})
}
