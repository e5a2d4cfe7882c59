package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/simclock"
)

// The correctness gate. testdata/golden.json pins, for seed 1 and the
// held-back seed 2 at the reference size, what every monolithic campaign
// and the federated campaign must compute: a change that makes the
// engine faster has to leave these bit-identical. Other seeds and sizes
// run the structural checks only.

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenSet is what one seed pins.
type goldenSet struct {
	Mono []campaignStats `json:"campaign-mono"`
	Fed  fedStats        `json:"campaign-fed"`
}

type goldenFile struct {
	Campaigns int                  `json:"campaigns"`
	Weeks     int                  `json:"weeks"`
	FedTicks  int                  `json:"fed_ticks"`
	Seeds     map[string]goldenSet `json:"seeds"`
}

// goldenFor returns the pinned values for a seed and size, or nil when
// none were recorded for them.
func goldenFor(seed int64, sz size) (*goldenSet, error) {
	var gf goldenFile
	if err := json.Unmarshal(goldenJSON, &gf); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	if gf.Campaigns != sz.campaigns || gf.Weeks != sz.weeks || gf.FedTicks != sz.fedTicks {
		return nil, nil
	}
	set, ok := gf.Seeds[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, nil
	}
	return &set, nil
}

// checkMono compares the campaigns of a run with the pinned ones. A nil
// set has nothing pinned: "none".
func (g *goldenSet) checkMono(t *tally, got []campaignStats) string {
	if g == nil {
		return "none"
	}
	status := "ok"
	t.check(len(got) == len(g.Mono), "golden: %d campaigns run, %d pinned", len(got), len(g.Mono))
	for i := range got {
		if i >= len(g.Mono) {
			break
		}
		same := got[i] == g.Mono[i]
		t.check(same, "golden: campaign %d computed %+v, pinned %+v", i, got[i], g.Mono[i])
		if !same {
			status = "mismatch"
		}
	}
	return status
}

// checkFed compares the federated summaries of a run with the pinned ones.
func (g *goldenSet) checkFed(t *tally, got fedStats) string {
	if g == nil {
		return "none"
	}
	status := "ok"
	same := got.Merged == g.Fed.Merged
	t.check(same, "golden: merged summary computed %+v, pinned %+v", got.Merged, g.Fed.Merged)
	if !same {
		status = "mismatch"
	}
	sites := make([]string, 0, len(g.Fed.Sites))
	for s := range g.Fed.Sites {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	t.check(len(got.Sites) == len(sites), "golden: %d sites reported, %d pinned", len(got.Sites), len(sites))
	for _, s := range sites {
		same := got.Sites[s] == g.Fed.Sites[s]
		t.check(same, "golden: site %s computed %+v, pinned %+v", s, got.Sites[s], g.Fed.Sites[s])
		if !same {
			status = "mismatch"
		}
	}
	return status
}

// goldenSeeds are the seeds the file pins: 1 is the default, 2 is held
// back so a claim can be checked on a seed not used while it was written.
var goldenSeeds = []int64{1, 2}

// writeGolden recomputes the pinned values at the reference size and
// rewrites dir/testdata/golden.json. Run it only when a change is meant
// to alter what the campaigns compute.
func writeGolden(dir string) error {
	sz := sizeFor(refSeconds)
	gf := goldenFile{Campaigns: sz.campaigns, Weeks: sz.weeks, FedTicks: sz.fedTicks, Seeds: map[string]goldenSet{}}
	for _, seed := range goldenSeeds {
		set := goldenSet{}
		for i := 0; i < sz.campaigns; i++ {
			set.Mono = append(set.Mono, monoStats(monoSeed(seed, i), sz.weeks))
		}
		side := newFedSide(seed, fedWorkers, nil)
		side.fed.Advance(simclock.Time(sz.fedTicks) * simclock.Hour)
		set.Fed = fedStatsOf(side.fed)
		releaseFederation(side.fed)
		gf.Seeds[strconv.FormatInt(seed, 10)] = set
	}
	data, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "testdata", "golden.json"), append(data, '\n'), 0o644)
}
