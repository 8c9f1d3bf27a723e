// Command fpgadbg runs one campaign of the paper's emulation-debugging
// loop on a benchmark design: a design error is injected, the design is
// tiled and "emulated", and the detect → localize → correct cycle runs
// until clean, reporting the tile-local CAD effort against the cost of
// full re-place-and-route.
//
// Usage:
//
//	fpgadbg -design c880 -fault-seed 3 -tilefrac 0.1
//
// Every campaign runs through the campaign service (internal/service),
// the same pipeline fpgadbgd serves. Without -remote the service runs
// in-process with one worker; with -remote the campaign is submitted to a
// running fpgadbgd daemon instead. Either way the progress events stream
// as the campaign works and the same result summary, digest included, is
// printed when it finishes:
//
//	fpgadbg -design c880 -fault-seed 3 -remote http://localhost:8080
//
// -kind faultscan switches from the debugging loop to a fault-universe
// scan under -fault-model (single, pair, seu or interconnect); -use-dict
// attaches the fault-dictionary localizer to a debug campaign:
//
//	fpgadbg -design 9sym -kind faultscan -patterns 128
//	fpgadbg -design c880 -fault-seed 3 -use-dict
//
// -repair (shorthand for -kind repair) runs one detect → dictionary-
// localize → repair pass: the fault dictionary is always attached, and
// candidate corrections (bit flips, pin swaps, resynthesized truth tables)
// are validated against the golden model acting purely as an output
// oracle; the winner flows through the tile-local ECO path. An
// inconclusive search falls back to the golden copy:
//
//	fpgadbg -design 9sym -fault-seed 2 -repair
//
// -trace-out FILE appends the campaign's per-stage timing (the same
// StageTrace the daemon serves at GET /campaigns/{id}/trace) to FILE as
// one NDJSON line:
//
//	fpgadbg -design 9sym -fault-seed 2 -repair -trace-out traces.ndjson
//
// -overlay pre-reserves a time-multiplexed debug overlay at build time
// (spare routing tracks + tap-mux trunks covering every LUT output):
// localization probe rounds become pure configuration switches with zero
// incremental place/route, and the causal-chain localizer ranks suspects
// by causal distance from the first mismatching cycle:
//
//	fpgadbg -design s9234 -fault-seed 2 -overlay
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"fpgadbg/internal/obs"
	"fpgadbg/internal/service"
)

func main() {
	var (
		design     = flag.String("design", "c880", "benchmark design name")
		faultSeed  = flag.Int64("fault-seed", 1, "seed selecting the injected design error")
		overhead   = flag.Float64("overhead", 0.20, "resource slack for tiling")
		tilefrac   = flag.Float64("tilefrac", 0.10, "tile size as fraction of the device")
		effort     = flag.Float64("effort", 0.5, "placement effort")
		seed       = flag.Int64("seed", 1, "layout seed")
		words      = flag.Int("words", 8, "random stimulus blocks (64 patterns each) per detection")
		cycles     = flag.Int("cycles", 4, "clock cycles per stimulus block")
		kind       = flag.String("kind", "debug", "campaign kind: debug (the full loop), faultscan (exhaustive fault-universe scan) or repair (candidate-search correction)")
		patterns   = flag.Int("patterns", 64, "broadcast test patterns for -kind faultscan")
		faultModel = flag.String("fault-model", "", "faultscan fault model: single (default), pair (lane-packed pairs + syndrome composition), seu (transient windowed upsets) or interconnect (bridges + route stuck-ats)")
		simLanes   = flag.Int("sim-lanes", 0, "simulator lanes for fault batches and candidate validation (multiple of 64; 0 = 64)")
		useDict    = flag.Bool("use-dict", false, "consult a fault dictionary before inserting probes (debug campaigns)")
		useOverlay = flag.Bool("overlay", false, "pre-reserve a debug overlay at build time: probe rounds become zero-CAD tap-mux switches and the causal-chain localizer ranks suspects (debug/repair campaigns)")
		repairSrch = flag.Bool("repair", false, "correct by repair-candidate search (golden as oracle only); shorthand for -kind repair")
		remote     = flag.String("remote", "", "submit to a fpgadbgd daemon at this base URL instead of running locally")
		priority   = flag.Int("priority", 0, "queue priority for -remote (higher runs first)")
		traceOut   = flag.String("trace-out", "", "append the campaign's per-stage trace to this file as one NDJSON line")
	)
	flag.Parse()
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "fpgadbg:", err)
		os.Exit(1)
	}
	// The service reads 0 as "use the default", so a zero here would run
	// silently with the default instead of failing.
	if *words < 1 || *cycles < 1 {
		die(fmt.Errorf("-words and -cycles must be >= 1 (got %d, %d)", *words, *cycles))
	}
	if *repairSrch {
		if *kind != service.KindDebug && *kind != service.KindRepair {
			die(fmt.Errorf("-repair is shorthand for -kind %s (got -kind %s)", service.KindRepair, *kind))
		}
		*kind = service.KindRepair
	}
	spec := service.Spec{
		Design: *design, Kind: *kind, FaultSeed: *faultSeed, Seed: *seed,
		Overhead: *overhead, TileFrac: *tilefrac, PlaceEffort: *effort,
		Words: *words, Cycles: *cycles, Patterns: *patterns, FaultModel: *faultModel,
		UseDict: *useDict, Overlay: *useOverlay, Priority: *priority, SimLanes: *simLanes,
	}
	var err error
	if *remote != "" {
		err = runRemote(os.Stdout, *remote, *traceOut, spec)
	} else {
		err = runLocal(os.Stdout, *traceOut, spec)
	}
	if err != nil {
		die(err)
	}
}

// runLocal runs the campaign on an in-process one-worker service, prints
// its progress and result summary to w, and writes its trace to traceOut.
func runLocal(w io.Writer, traceOut string, spec service.Spec) error {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	id, err := svc.Submit(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== campaign %s running in-process ==\n", id)
	past, live, unsub, err := svc.Events(id)
	if err != nil {
		return err
	}
	defer unsub()
	for _, ev := range past {
		printEvent(w, ev)
	}
	for ev := range live {
		printEvent(w, ev)
	}
	res, err := svc.Wait(context.Background(), id)
	if err != nil {
		return err
	}
	printResult(w, res)
	if traceOut == "" {
		return nil
	}
	st, err := svc.Trace(id)
	if err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	return writeTraceOut(w, traceOut, st)
}

// runRemote submits the campaign to a daemon, streams its progress and
// prints the result summary to w, and fetches its trace into traceOut.
func runRemote(w io.Writer, base, traceOut string, spec service.Spec) error {
	ctx := context.Background()
	cl := &service.Client{Base: base}
	if err := cl.Healthz(ctx); err != nil {
		return fmt.Errorf("daemon unreachable: %w", err)
	}
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== campaign %s submitted to %s ==\n", st.ID, base)
	if err := cl.Events(ctx, st.ID, func(ev service.Event) { printEvent(w, ev) }); err != nil {
		return err
	}
	res, err := cl.Wait(ctx, st.ID, 0)
	if err != nil {
		return err
	}
	printResult(w, res)
	if traceOut == "" {
		return nil
	}
	tr, err := cl.Trace(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	return writeTraceOut(w, traceOut, tr)
}

func printEvent(w io.Writer, ev service.Event) {
	if ev.Round > 0 {
		fmt.Fprintf(w, "[%s #%d] %s\n", ev.Stage, ev.Round, ev.Msg)
	} else {
		fmt.Fprintf(w, "[%s] %s\n", ev.Stage, ev.Msg)
	}
}

// printResult prints a finished campaign's summary: the fault model's
// own coverage line for a faultscan, the loop outcome otherwise.
func printResult(w io.Writer, res *service.Result) {
	fmt.Fprintln(w, "== result ==")
	if res.FaultsTotal > 0 {
		fmt.Fprintf(w, "fault universe: %d faults in %d batches (%s model)\n", res.FaultsTotal, res.FaultBatches, res.FaultModel)
		switch res.FaultModel {
		case service.FaultModelPair:
			fmt.Fprintf(w, "pairs: detected %d/%d (%.1f%% coverage), %d diagnosed probe-free, resolution rate %.1f%%, %.1f%% masked to a single\n",
				res.PairsDetected, res.PairsTotal, 100*res.FaultCoverage, res.PairsDiagnosed,
				100*res.PairDiagRate, 100*res.MaskedFraction)
		case service.FaultModelSEU:
			fmt.Fprintf(w, "upsets: detected %d/%d (%.1f%% coverage), latency p50 %.0f / p99 %.0f cycles, %.1f%% masked by the window\n",
				res.FaultsDetected, res.FaultsTotal, 100*res.FaultCoverage, res.SEULatencyP50, res.SEULatencyP99, 100*res.MaskedFraction)
		case service.FaultModelInterconnect:
			fmt.Fprintf(w, "interconnect: detected %d/%d (%.1f%% coverage) over %d route stuck-ats + %d bridges, mean latency %.1f cycles\n",
				res.FaultsDetected, res.FaultsTotal, 100*res.FaultCoverage, res.RouteFaults, res.BridgeFaults, res.MeanLatencyCycles)
		default:
			fmt.Fprintf(w, "detected %d/%d (%.1f%% coverage), mean latency %.1f cycles\n",
				res.FaultsDetected, res.FaultsTotal, 100*res.FaultCoverage, res.MeanLatencyCycles)
		}
		fmt.Fprintf(w, "scan rate %.0f faults/sec\n", res.FaultsPerSec)
	} else {
		fmt.Fprintf(w, "injected error: %s\n", res.Injected)
		fmt.Fprintf(w, "detected=%v clean=%v iterations=%d rounds=%d probes=%d dict=%d fixed=%v\n",
			res.Detected, res.Clean, res.Iterations, res.Rounds, res.ProbesInserted, res.DictResolved, res.Fixed)
		if res.Repaired > 0 || res.RepairFallback {
			fmt.Fprintf(w, "repair: %d candidate-search fix(es) (%s), %d candidate(s), %d survivor(s), %d lane batch(es), eco-verified=%v, fallback=%v\n",
				res.Repaired, res.RepairKind, res.Candidates, res.Survivors, res.CandidateBatches,
				res.ECOVerified, res.RepairFallback)
		}
		if res.Overlay {
			fmt.Fprintf(w, "overlay: %d zero-CAD tap switch(es), %d CAD fallback round(s)\n",
				res.OverlaySwitches, res.OverlayFallbacks)
		}
		fmt.Fprintf(w, "tile-local work %.0f vs full re-P&R %.0f — %.1fx per physical update\n",
			res.TileWork, res.FullWork, res.SpeedupPerIter)
	}
	fmt.Fprintf(w, "artifact cache: %d hit(s), %d miss(es); wall %.1fms; digest %s\n",
		res.CacheHits, res.CacheMisses, res.WallMs, res.Digest)
}

// writeTraceOut appends one StageTrace as an NDJSON line and prints a
// one-line summary of what was written to w.
func writeTraceOut(w io.Writer, path string, st *obs.StageTrace) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	defer f.Close()
	if err := obs.NewTraceLog(f).Write(st); err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	fmt.Fprintf(w, "trace:    %d stage(s), wall %.1fms -> %s\n",
		len(st.Stages), float64(st.WallUs)/1000, path)
	return nil
}
