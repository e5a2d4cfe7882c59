package status

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/ci"
	"repro/internal/simclock"
)

// referenceGrid computes the grid from the server's own build history the
// way a client that reads every job's detail does: a simple job's cell is
// its newest completed build; a matrix job's cells are the worst result per
// cluster among the cells of its newest completed parent, the first of equal
// severity winning, in build order.
func referenceGrid(s *ci.Server, jobs []string) *Grid {
	g := &Grid{Families: []string{}, Targets: []string{}, Cells: map[string]map[string]CellStatus{}}
	put := func(family, target string, b *ci.Build) {
		if g.Cells[family] == nil {
			g.Cells[family] = map[string]CellStatus{}
		}
		g.Cells[family][target] = CellStatus{Result: b.Result.String(), Build: b.Number, AtSec: b.EndedAt.Seconds()}
	}
	for _, name := range jobs {
		builds := s.Builds(name)
		if !s.JobByName(name).IsMatrix() {
			family, target, _ := splitJobName(name)
			for i := len(builds) - 1; i >= 0; i-- {
				if builds[i].Completed() && builds[i].Parent == 0 {
					put(family, target, builds[i])
					break
				}
			}
			continue
		}
		var parent *ci.Build
		for _, b := range builds {
			if b.Cell == nil && b.Completed() && len(b.CellBuilds) > 0 && (parent == nil || b.Number > parent.Number) {
				parent = b
			}
		}
		if parent == nil {
			continue
		}
		inParent := map[int]bool{}
		for _, n := range parent.CellBuilds {
			inParent[n] = true
		}
		worst := map[string]*ci.Build{}
		for _, b := range builds {
			cluster := b.Cell["cluster"]
			if b.Cell == nil || !inParent[b.Number] || cluster == "" {
				continue
			}
			if cur := worst[cluster]; cur == nil || worseResult(b.Result.String(), cur.Result.String()) {
				worst[cluster] = b
			}
		}
		for cluster, b := range worst {
			put(name, cluster, b)
		}
	}
	tgts := map[string]bool{}
	for f, row := range g.Cells {
		g.Families = append(g.Families, f)
		for t := range row {
			tgts[t] = true
		}
	}
	for t := range tgts {
		g.Targets = append(g.Targets, t)
	}
	sort.Strings(g.Families)
	sort.Strings(g.Targets)
	return g
}

// TestGridMatchesRetainedBuilds holds BuildGrid, which reads simple jobs'
// cells from the server summary, to the grid the retained build history
// gives, at instants where the two could part: after completions, with
// builds in flight behind completed ones, and around a Matrix Reloaded
// retry that re-runs only a parent's failed cells.
func TestGridMatchesRetainedBuilds(t *testing.T) {
	c, s, cl := fixture(t)
	check := func(when string) {
		t.Helper()
		got, err := cl.BuildGrid()
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceGrid(s, fixtureJobs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: grid\n%+v\nwant the history's\n%+v", when, got, want)
		}
	}
	check("before any build")

	runAll(c, s)
	check("after the first completions")

	// A second round, stopped halfway: every job has one build completed and
	// one in flight.
	for _, name := range fixtureJobs {
		s.Trigger(name, "test")
	}
	c.RunUntil(c.Now() + 30*simclock.Second)
	check("with builds in flight")
	c.Run()
	check("after the second round")

	// Staggered: disk/sol completes a third time while the others are still
	// running their third build.
	s.Trigger("disk/sol", "test")
	c.RunUntil(c.Now() + 30*simclock.Second)
	for _, name := range fixtureJobs[1:] {
		s.Trigger(name, "test")
	}
	c.RunUntil(c.Now() + 45*simclock.Second)
	check("with some jobs ahead of others")
	c.Run()

	// The retry's parent runs only helios/img-b, the one unstable cell, so
	// the newest completed parent covers one cluster.
	last := s.LastCompleted("environments")
	retry, err := s.RetryFailedCells("environments", last.Number, "matrix-reloaded")
	if err != nil {
		t.Fatal(err)
	}
	if len(retry.CellBuilds) != 1 {
		t.Fatalf("retry re-runs %d cells, want 1", len(retry.CellBuilds))
	}
	check("with the retry in flight")
	c.Run()
	check("after the retry")
	g, _ := cl.BuildGrid()
	if _, sol := g.Cells["environments"]["sol"]; sol || g.Cells["environments"]["helios"].Build != retry.CellBuilds[0] {
		t.Fatalf("after the retry the environments row is %+v, want helios alone from build %d", g.Cells["environments"], retry.CellBuilds[0])
	}
}

// raceDetector is set by race_test.go; allocation guards skip under it.
var raceDetector bool

// TestGridAllocationsFlatInRetainedBuilds: a grid reads simple jobs from the
// server summary, so what it allocates does not grow with the history each
// job retains, from ten builds to DefaultRetention.
func TestGridAllocationsFlatInRetainedBuilds(t *testing.T) {
	if raceDetector {
		t.Skip("allocation guards run without the race detector")
	}
	allocs := func(builds int) float64 {
		c, s, _ := fixture(t)
		for i := 0; i < builds; i++ {
			for _, name := range fixtureJobs[:3] {
				s.Trigger(name, "test")
			}
			c.Run()
		}
		s.Trigger("environments", "test")
		c.Run()
		cl := NewLocalClient(s.Handler())
		return testing.AllocsPerRun(20, func() {
			if _, err := cl.BuildGrid(); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, full := allocs(10), allocs(ci.DefaultRetention)
	if few != full {
		t.Fatalf("BuildGrid allocates %v times with 10 retained builds per simple job, %v with %d", few, full, ci.DefaultRetention)
	}
}
