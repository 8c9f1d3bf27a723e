package main

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fpgadbg/internal/service"
)

// specs lists a plan's set-up specs followed by two cycles of measured
// specs.
func specs(t *testing.T, workload string, seed int64) []service.Spec {
	t.Helper()
	p, err := newPlan(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]service.Spec(nil), p.setup...)
	for i := 0; i < 2*len(p.mix); i++ {
		out = append(out, p.spec(i))
	}
	return out
}

// mix is one cycle's multiset of spec classes, seeded fields left out.
func mix(t *testing.T, workload string, seed int64, cycle int) []string {
	p, err := newPlan(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	n := len(p.mix)
	for i := cycle * n; i < (cycle+1)*n; i++ {
		sp := p.spec(i)
		out = append(out, fmt.Sprintf("%s/%s/%v/%s/%d", sp.Design, sp.Kind, sp.Overlay, sp.FaultModel, sp.SimLanes))
	}
	slices.Sort(out)
	return out
}

func TestSameSeedSameSpecs(t *testing.T) {
	for _, w := range workloadNames {
		if a, b := specs(t, w, 42), specs(t, w, 42); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 generated two different spec sequences", w)
		}
	}
}

// drawn is the set of seeded fault fields (fault seed, stimulus seed) a
// workload's specs use.
func drawn(specs []service.Spec) map[[2]int64]bool {
	out := map[[2]int64]bool{}
	for _, sp := range specs {
		out[[2]int64{sp.FaultSeed, sp.Seed}] = true
	}
	return out
}

func TestSeedChangesFaultsNotMix(t *testing.T) {
	for _, w := range workloadNames {
		a, b := specs(t, w, 1), specs(t, w, 2)
		if w == warmFSM {
			// The warm catalog is fixed; the seed orders the re-runs.
			if !reflect.DeepEqual(drawn(a), drawn(b)) {
				t.Errorf("%s: seeds 1 and 2 re-ran different bug catalogs", w)
			}
			if reflect.DeepEqual(a, b) {
				t.Errorf("%s: seeds 1 and 2 ran the catalog in the same order", w)
			}
		} else if reflect.DeepEqual(drawn(a), drawn(b)) {
			t.Errorf("%s: seeds 1 and 2 drew the same fault seeds", w)
		}
		if !reflect.DeepEqual(mix(t, w, 1, 0), mix(t, w, 2, 0)) {
			t.Errorf("%s: seeds 1 and 2 changed the workload mix", w)
		}
		if !reflect.DeepEqual(mix(t, w, 1, 0), mix(t, w, 1, 3)) {
			t.Errorf("%s: cycles 0 and 3 hold different mixes", w)
		}
	}
}

func TestColdBugsNeverRepeatAFault(t *testing.T) {
	p, err := newPlan(coldBugs, 9)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, sp := range p.setup {
		seen[sp.FaultSeed] = true
	}
	for i := 0; i < 2000; i++ {
		sp := p.spec(i)
		if seen[sp.FaultSeed] {
			t.Fatalf("campaign %d repeats fault seed %d", i, sp.FaultSeed)
		}
		seen[sp.FaultSeed] = true
		// The stimulus seed stays at its default, so the fault
		// dictionary warmed in set-up serves every campaign.
		if sp.Seed != 0 {
			t.Fatalf("campaign %d sets stimulus seed %d", i, sp.Seed)
		}
	}
}

func TestSpecsValidAndNotExcluded(t *testing.T) {
	for _, w := range workloadNames {
		for _, seed := range []int64{1, 2, 77} {
			for _, sp := range specs(t, w, seed) {
				if err := sp.Validate(); err != nil {
					t.Errorf("%s seed %d: %+v: %v", w, seed, sp, err)
				}
				if why := excluded(sp); why != "" {
					t.Errorf("%s seed %d: %+v falls in excluded class %q", w, seed, sp, why)
				}
			}
		}
	}
}

func TestExcludedClasses(t *testing.T) {
	for _, sp := range []service.Spec{
		{Design: "MIPS R2000", Kind: service.KindDebug},
		{Design: "MIPS R2000", Kind: service.KindRepair},
		{Design: "styr", Kind: service.KindFaultScan, FaultModel: service.FaultModelPair},
	} {
		if excluded(sp) == "" {
			t.Errorf("%+v should be excluded", sp)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newPlan("nosuch", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
