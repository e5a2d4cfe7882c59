package sched

import (
	"reflect"
	"sort"
	"testing"
)

// DecisionCountsSorted is the stable form of the decision aggregate:
// report emitters must see the same order on every run, where ranging
// over the DecisionCounts map leaks Go's per-run randomized iteration
// order into the output (the bug g5kvet's maporder analyzer flags).
func TestDecisionCountsSortedStable(t *testing.T) {
	counts := map[Action]int{
		ActionTriggered: 4, ActionDeferPeak: 9, ActionDeferSiteBusy: 2,
		ActionDeferResources: 7,
		"zz-custom":          5, "aa-custom": 6, "mm-custom": 8,
	}
	s := &Scheduler{counts: counts}

	first := s.DecisionCountsSorted()
	if len(first) != len(counts) {
		t.Fatalf("got %d actions, want %d", len(first), len(counts))
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool { return first[i].Action < first[j].Action }) {
		t.Fatalf("not sorted by action: %v", first)
	}
	for _, ac := range first {
		if counts[ac.Action] != ac.Count {
			t.Fatalf("action %s: count %d, want %d", ac.Action, ac.Count, counts[ac.Action])
		}
	}
	// Map iteration order varies per ranging; the sorted form must not.
	for i := 0; i < 32; i++ {
		if again := s.DecisionCountsSorted(); !reflect.DeepEqual(first, again) {
			t.Fatalf("order unstable across calls:\n first %v\n again %v", first, again)
		}
	}
}
