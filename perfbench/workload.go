package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/service"
)

// Workload names.
const (
	coldBugs  = "cold-bugs"
	warmFSM   = "warm-fsm"
	faultScan = "faultscan"
)

var workloadNames = []string{coldBugs, warmFSM, faultScan}

// Spec classes held out of every workload, each for a measured reason
// (see BASELINE.json): debug and repair on MIPS R2000 run 47–63 s per
// campaign, and pair scans on sequential designs run for minutes.
func excluded(sp service.Spec) string {
	switch {
	case sp.Design == "MIPS R2000" && sp.Kind != service.KindFaultScan:
		return "debug/repair on MIPS R2000"
	case sp.FaultModel == service.FaultModelPair:
		if info, err := bench.ByName(sp.Design); err == nil && info.Sequential {
			return "pair scan on a sequential design"
		}
	}
	return ""
}

// plan is one workload's generated traffic. setup runs before the
// measured phase; spec(i) is the i-th measured campaign. The measured
// phase runs whole cycles of the workload's mix, each cycle in its own
// seeded order. In the repeat workloads every measured campaign is an
// exact re-run of a set-up campaign; cold-bugs (fresh) fills in a new
// fault for every campaign.
type plan struct {
	setup []service.Spec
	mix   []service.Spec // one cycle; repeated specs weight a class
	fresh bool
	seed  int64
	// setupReps is how many times a run boots a daemon and runs setup;
	// setup_s is their median. It is fixed per workload, so every commit
	// takes the median of the same number of set-ups.
	setupReps int
	// cycleSeconds converts -seconds into a cycle count, so every commit
	// measures the same campaigns. It is about the wall time of one cycle
	// at the seed commit on the reference host (2-core Xeon, 2 workers;
	// it varied by up to 1.5x with host load), except where a workload
	// needs a given cycle count at -seconds 20 (faultscan).
	cycleSeconds float64
}

// cycles is the number of whole cycles that last about seconds on the
// reference host.
func (p *plan) cycles(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/p.cycleSeconds)))
}

func (p *plan) spec(i int) service.Spec {
	// Every cycle runs the mix in its own order, so which campaigns share
	// the two cores averages out over a run.
	n := len(p.mix)
	sp := p.mix[shuffled(n, p.seed, uint64(i/n))[i%n]]
	if p.fresh {
		// Only the bug is new; the stimulus seed stays at its default,
		// as fpgadbg sends it, so the fault dictionary built in set-up
		// serves every campaign of the design.
		sp.FaultSeed = draw(p.seed, i)
	}
	return sp
}

// setupFaultSeed is the bug of cold-bugs' set-up campaigns. draw never
// returns it, so no measured campaign re-uses their layouts.
const setupFaultSeed = 1 << 31

// draw is a positive value derived from (seed, i) alone.
func draw(seed int64, i int) int64 {
	r := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
	return 1 + r.Int64N(1<<31-1)
}

// repeat appends n copies of sp.
func repeat(mix []service.Spec, sp service.Spec, n int) []service.Spec {
	for ; n > 0; n-- {
		mix = append(mix, sp)
	}
	return mix
}

func kinds() []string { return []string{service.KindDebug, service.KindRepair} }

func newPlan(workload string, seed int64) (*plan, error) {
	p := &plan{seed: seed}
	switch workload {
	case coldBugs:
		// Weights 1:2:1 put the median in the middle of the c880
		// latencies and the tail inside c499's, away from the gaps
		// between the designs' latency clusters.
		p.fresh = true
		for _, d := range []struct {
			name   string
			weight int
		}{{"9sym", 1}, {"c880", 2}, {"c499", 1}} {
			for _, k := range kinds() {
				for _, ov := range []bool{false, true} {
					p.mix = repeat(p.mix, service.Spec{Design: d.name, Kind: k, Overlay: ov}, d.weight)
				}
			}
			// Set-up warms what every bug on the design shares: the
			// golden netlist and compiled simulator, and (through one
			// repair campaign on a bug of its own) the fault dictionary.
			// The layouts, keyed by the faulty implementation, stay cold.
			p.setup = append(p.setup, service.Spec{Design: d.name, Kind: service.KindRepair, FaultSeed: setupFaultSeed})
		}
		p.setupReps = 5
		p.cycleSeconds = 1.5
	case warmFSM:
		// A fixed catalog of known bugs, one per class; the seed orders
		// the re-runs. Drawing the bugs from the seed made the run's
		// median jump between the ~0.1 s (dictionary or overlay hit) and
		// ~1.5 s (four probe rounds) modes from seed to seed.
		for _, d := range []string{"styr", "sand", "planet1", "s9234"} {
			for _, k := range kinds() {
				for _, ov := range []bool{false, true} {
					p.setup = append(p.setup, service.Spec{Design: d, Kind: k, Overlay: ov, FaultSeed: int64(len(p.setup) + 1)})
				}
			}
		}
		p.mix = p.setup
		// One pass over the catalog takes ~28 s; a second would not fit
		// the benchmark's time budget.
		p.setupReps = 1
		p.cycleSeconds = 11
	case faultScan:
		// The 9sym and c880 scans run twice per cycle, which puts the
		// median inside their 5–15 ms latencies instead of at the edge
		// of the two s9234 seu scans.
		for _, d := range []string{"9sym", "c880", "s9234", "DES"} {
			weight := 1
			if d == "9sym" || d == "c880" {
				weight = 2
			}
			for _, m := range []string{service.FaultModelSingle, service.FaultModelSEU, service.FaultModelInterconnect} {
				for _, lanes := range []int{64, 512} {
					sp := service.Spec{Design: d, Kind: service.KindFaultScan, FaultModel: m, SimLanes: lanes,
						Seed: 1 + draw(seed, len(p.setup))%(1<<20)}
					p.setup = append(p.setup, sp)
					p.mix = repeat(p.mix, sp, weight)
				}
			}
		}
		pair := service.Spec{Design: "9sym", Kind: service.KindFaultScan, FaultModel: service.FaultModelPair,
			SimLanes: 64, Seed: 1 + draw(seed, len(p.setup))%(1<<20)}
		p.setup = append(p.setup, pair)
		p.mix = append(p.mix, pair)
		// A cycle takes 3.6-4.4 s on the reference host; 2.9 makes
		// -seconds 20 run seven cycles, which puts the tail (eleventh-
		// largest latency) in the middle of the seven DES single/512
		// scans. With five it sat on the edge between those and the
		// interconnect/64 scans, 20% faster, and moved by +-25%.
		// One set-up pass (~5 s) leaves the time budget to the
		// measured cycles.
		p.setupReps = 1
		p.cycleSeconds = 2.9
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	return p, nil
}

// shuffled is the seeded permutation of [0, n) for one cycle.
func shuffled(n int, seed int64, cycle uint64) []int {
	r := rand.New(rand.NewPCG(uint64(seed), 0x5eed+cycle))
	return r.Perm(n)
}
