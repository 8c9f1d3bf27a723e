package main

// The traced run: an in-process replay of the daemon run's campaigns that
// calls each layer's public functions in the order the service's
// runCampaign and runFaultScan call them, with a span around every call.
// It keeps its own artifact cache and layout pools, so it rebuilds an
// artifact exactly where the daemon's cache missed for the workload, and
// its verdicts must equal the daemon's spec for spec.

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpgadbg/internal/bench"
	"fpgadbg/internal/core"
	"fpgadbg/internal/debug"
	"fpgadbg/internal/faults"
	"fpgadbg/internal/netlist"
	"fpgadbg/internal/overlay"
	"fpgadbg/internal/service"
	"fpgadbg/internal/sim"
	"fpgadbg/internal/synth"
)

// Span names, one per layer call the replay times.
const (
	spCampaign     = "campaign"
	spSynthBuild   = "synth.build"
	spTechMap      = "synth.techmap"
	spCompile      = "sim.compile"
	spCoreBuild    = "core.build"
	spBaseline     = "core.baseline"
	spRollback     = "core.rollback"
	spOverlayBuild = "overlay.build"
	spDictBuild    = "debug.dict_build"
	spDetect       = "debug.detect"
	spLocalize     = "debug.localize"
	spCorrect      = "debug.correct"
	spSynDictBuild = "debug.syndict_build"
	spPairDiagnose = "debug.pair_diagnose"
	spScan         = "faults.scan"
)

// timedLayers are the spans reported as per-layer times and shares.
var timedLayers = []string{spSynthBuild, spTechMap, spCompile, spCoreBuild, spBaseline, spRollback,
	spOverlayBuild, spDictBuild, spDetect, spLocalize, spCorrect, spSynDictBuild, spPairDiagnose, spScan}

// span is one timed layer call. Parent indexes the enclosing span (-1 at
// a campaign root); spans of one campaign share Campaign.
type span struct {
	Campaign string    `json:"campaign"`
	Name     string    `json:"name"`
	Parent   int       `json:"parent"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
}

// tracer keeps every span of the run in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// ctrace records one campaign's spans; it is used from one goroutine.
type ctrace struct {
	t     *tracer
	id    string
	stack []int
}

func (c *ctrace) begin(name string) {
	parent := -1
	if n := len(c.stack); n > 0 {
		parent = c.stack[n-1]
	}
	c.t.mu.Lock()
	c.t.spans = append(c.t.spans, span{Campaign: c.id, Name: name, Parent: parent, Start: time.Now()})
	c.stack = append(c.stack, len(c.t.spans)-1)
	c.t.mu.Unlock()
}

func (c *ctrace) end() {
	n := len(c.stack) - 1
	c.t.mu.Lock()
	c.t.spans[c.stack[n]].End = time.Now()
	c.t.mu.Unlock()
	c.stack = c.stack[:n]
}

// timed runs fn inside a span.
func timed[T any](c *ctrace, name string, fn func() (T, error)) (T, error) {
	c.begin(name)
	defer c.end()
	return fn()
}

// traceStore adapts the replay's artifact cache to debug.TraceStore, as
// the daemon does with its own cache.
type traceStore struct{ c *service.Cache }

func (t traceStore) GetTrace(key string) (*sim.Trace, bool) {
	v, ok := t.c.Get(key)
	tr, _ := v.(*sim.Trace)
	return tr, ok && tr != nil
}

func (t traceStore) PutTrace(key string, tr *sim.Trace) { t.c.Put(key, tr, 0) }

// build returns the artifact under key, building it once per key and
// sharing it with every later campaign, like the daemon's cache.
func (r *replayer) build(key string, fn func() (any, error)) (any, error) {
	v, _, err := r.art.GetOrBuild(key, func() (any, int64, error) {
		v, err := fn()
		return v, 0, err
	})
	return v, err
}

type golden struct {
	nl   *netlist.Netlist
	fp   string
	mach *sim.Machine
}

// pool mirrors the daemon's layout pool: working copies run inside one
// layout transaction and are rolled back to the pristine state for reuse.
type pool struct {
	pristine *core.Layout
	digest   string
	plan     *overlay.Plan
	mu       sync.Mutex
	free     []*core.Layout
}

func (p *pool) checkout() (*core.Layout, core.Checkpoint) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		l := p.free[n-1]
		p.free = p.free[:n-1]
		return l, l.Checkpoint()
	}
	l := p.pristine.Clone()
	return l, l.Checkpoint()
}

func (p *pool) checkin(l *core.Layout, cp core.Checkpoint) error {
	if err := l.Rollback(cp); err != nil {
		return err
	}
	if l.StateDigest() != p.digest {
		return fmt.Errorf("rolled-back layout digest differs from the pristine one")
	}
	p.mu.Lock()
	p.free = append(p.free, l)
	p.mu.Unlock()
	return nil
}

// verdict is the part of a result the replay must reproduce.
type verdict struct {
	Clean, ECOVerified                                       bool
	Iterations, Rounds, Probes, DictResolved, Repaired       int
	Fixed                                                    []string
	FaultsTotal, FaultsDetected, FaultBatches                int
	PairsTotal, PairsDetected, PairsDiagnosed                int
	OverlaySwitches, OverlayFallbacks, Candidates, Survivors int
	TileWork, FullWork                                       float64
}

func verdictOf(r *service.Result) verdict {
	return verdict{
		Clean: r.Clean, ECOVerified: r.ECOVerified,
		Iterations: r.Iterations, Rounds: r.Rounds, Probes: r.ProbesInserted,
		DictResolved: r.DictResolved, Repaired: r.Repaired, Fixed: slices.Clip(r.Fixed),
		FaultsTotal: r.FaultsTotal, FaultsDetected: r.FaultsDetected, FaultBatches: r.FaultBatches,
		PairsTotal: r.PairsTotal, PairsDetected: r.PairsDetected, PairsDiagnosed: r.PairsDiagnosed,
		OverlaySwitches: r.OverlaySwitches, OverlayFallbacks: r.OverlayFallbacks,
		Candidates: r.Candidates, Survivors: r.Survivors,
		TileWork: r.TileWork, FullWork: r.FullWork,
	}
}

func (v verdict) equal(o verdict) bool {
	if len(v.Fixed) == 0 && len(o.Fixed) == 0 {
		v.Fixed, o.Fixed = nil, nil
	}
	return reflect.DeepEqual(v, o)
}

// counts are one campaign's layer counters beyond its verdict.
type counts struct {
	placeMoves, routeExpansions         int64
	diagnoses, corrections, goldenFixes int
	candidates, survivors, ecoVerified  int
	faults, batches, lanes, faultCycles int64
}

// replayed is one campaign of the traced run.
type replayed struct {
	id       string
	measured bool
	spec     service.Spec
	daemon   *sample
	v        verdict
	c        counts
	wallMs   float64
}

type tracedRun struct {
	campaigns     []*replayed
	spans         []span
	daemonMs      map[string][]float64 // spec key → daemon service times, measured phase
	disagreements int
}

type replayer struct {
	t   tracer
	art *service.Cache // unbounded, so nothing is rebuilt after eviction
}

// replay re-runs the daemon run's campaigns in process: the last set-up
// pass, then each distinct measured spec once (cold-bugs specs are all
// distinct). Campaigns without a verdict are
// already failures and are not replayed. The spans go to spanPath.
func replay(dr *daemonRun, workers int, spanPath string) (*tracedRun, error) {
	tr := &tracedRun{daemonMs: map[string][]float64{}}
	var setup, measured []*replayed
	for i := range dr.lastSetup {
		if dr.lastSetup[i].status.Result != nil {
			setup = append(setup, &replayed{daemon: &dr.lastSetup[i]})
		}
	}
	seen := map[string]bool{}
	for i := range dr.measured {
		s := &dr.measured[i]
		k := specKey(s.spec)
		if s.status.Result == nil {
			continue
		}
		tr.daemonMs[k] = append(tr.daemonMs[k], s.serviceMs())
		if seen[k] {
			continue
		}
		seen[k] = true
		measured = append(measured, &replayed{daemon: s, measured: true})
	}
	for _, group := range [][]*replayed{setup, measured} {
		sort.Slice(group, func(i, j int) bool { return group[i].daemon.idx < group[j].daemon.idx })
	}
	r := &replayer{art: service.NewCache(0, 0)}
	for pass, group := range [][]*replayed{setup, measured} {
		if err := r.runAll(group, workers, pass); err != nil {
			return nil, err
		}
		tr.campaigns = append(tr.campaigns, group...)
	}
	for _, c := range tr.campaigns {
		if want := verdictOf(c.daemon.status.Result); !c.v.equal(want) {
			tr.disagreements++
			fmt.Printf("FAIL %s: traced verdict %+v differs from the daemon's %+v\n", specKey(c.daemon.spec), c.v, want)
		}
	}
	tr.spans = r.t.spans
	return tr, writeNDJSON(spanPath, tr.spans)
}

// runAll replays group on workers goroutines, like the daemon's workers.
func (r *replayer) runAll(group []*replayed, workers, pass int) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		n    atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(n.Add(1) - 1)
				if i >= len(group) {
					return
				}
				c := group[i]
				c.id = fmt.Sprintf("p%d-%04d", pass, i)
				// The daemon's status carries the spec with its defaults
				// resolved, so the replay runs with identical knobs.
				c.spec = c.daemon.status.Spec
				if err := r.campaign(c); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("traced %s: %w", specKey(c.daemon.spec), err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

func (r *replayer) campaign(c *replayed) error {
	ct := &ctrace{t: &r.t, id: c.id}
	start := time.Now()
	ct.begin(spCampaign)
	err := r.pipeline(ct, c)
	ct.end()
	c.wallMs = ms(time.Since(start))
	return err
}

// pipeline mirrors service.runCampaign.
func (r *replayer) pipeline(ct *ctrace, c *replayed) error {
	sp := c.spec
	info, err := bench.ByName(sp.Design)
	if err != nil {
		return err
	}
	v, err := r.build(fmt.Sprintf("golden/%s/l%d", sp.Design, sp.SimLanes), func() (any, error) {
		nl, _ := timed(ct, spSynthBuild, func() (*netlist.Netlist, error) { return info.Build(), nil })
		mapped, err := timed(ct, spTechMap, func() (*netlist.Netlist, error) { return synth.TechMap(nl) })
		if err != nil {
			return nil, err
		}
		mach, err := timed(ct, spCompile, func() (*sim.Machine, error) { return sim.CompileWidth(mapped, sp.SimLanes/64) })
		if err != nil {
			return nil, err
		}
		return &golden{nl: mapped, fp: mapped.Fingerprint(), mach: mach}, nil
	})
	if err != nil {
		return err
	}
	ga := v.(*golden)
	if sp.Kind == service.KindFaultScan {
		return r.faultScan(ct, c, ga)
	}

	impl := ga.nl.Clone()
	if _, err := faults.InjectRandom(impl, sp.FaultSeed); err != nil {
		return err
	}
	implFP := impl.Fingerprint()
	lkey := fmt.Sprintf("layout/%s/o%v-t%v-s%d-e%v-ov%v", implFP, sp.Overhead, sp.TileFrac, sp.Seed, sp.PlaceEffort, sp.Overlay)
	v, err = r.build(lkey, func() (any, error) {
		cs := core.Spec{Overhead: sp.Overhead, TileFrac: sp.TileFrac, Seed: sp.Seed, PlaceEffort: sp.PlaceEffort}
		if sp.Overlay {
			cs.OverlayReserve = overlay.DefaultReserve
		}
		l, err := timed(ct, spCoreBuild, func() (*core.Layout, error) { return core.BuildMapped(impl.Clone(), cs) })
		if err != nil {
			return nil, err
		}
		c.c.placeMoves += l.BuildEffort.PlaceMoves
		c.c.routeExpansions += l.BuildEffort.RouteExpansions
		p := &pool{pristine: l}
		if sp.Overlay {
			if p.plan, err = timed(ct, spOverlayBuild, func() (*overlay.Plan, error) { return overlay.Build(l, overlay.DefaultChannels) }); err != nil {
				return nil, err
			}
		}
		p.digest = l.StateDigest()
		return p, nil
	})
	if err != nil {
		return err
	}
	pl := v.(*pool)
	layout, lease := pl.checkout()
	v, err = r.build(lkey+"/fullpr", func() (any, error) {
		return timed(ct, spBaseline, func() (core.Effort, error) { return pl.pristine.FullRePlaceRoute(sp.Seed + 1000) })
	})
	if err != nil {
		return err
	}
	full := v.(core.Effort)

	sess, err := debug.NewSession(ga.nl, layout, sp.Seed)
	if err != nil {
		return err
	}
	sess.Traces = traceStore{r.art}
	sess.SimWidth = sp.SimLanes / 64
	sess.SetGoldenMachine(ga.mach.Fork())
	sess.SetGoldenFingerprint(ga.fp)
	if sp.Overlay && pl.plan != nil {
		sess.Overlay = pl.plan.NewSelector(layout)
		sess.Causal = true
	}
	if sp.UseDict {
		dkey := fmt.Sprintf("dict/%s/w%d-c%d-s%d", ga.fp, sp.Words, sp.Cycles, sp.Seed)
		v, err := r.build(dkey, func() (any, error) {
			return timed(ct, spDictBuild, func() (*debug.FaultDict, error) {
				return debug.BuildFaultDict(ga.mach, sp.Words, sp.Cycles, sp.Seed)
			})
		})
		if err != nil {
			return err
		}
		sess.Dict = v.(*debug.FaultDict)
	}

	if sp.Kind == service.KindRepair {
		err = r.repair(ct, c, sess, impl, implFP)
	} else {
		err = r.loop(ct, c, sess)
	}
	if err != nil {
		return err
	}
	c.c.placeMoves += sess.TileEffort.PlaceMoves
	c.c.routeExpansions += sess.TileEffort.RouteExpansions
	if sp.Overlay {
		c.v.OverlaySwitches, c.v.OverlayFallbacks = sess.OverlaySwitches, sess.OverlayFallbacks
	}
	c.v.TileWork = sess.TileEffort.Work()
	c.v.FullWork = full.Work()
	_, err = timed(ct, spRollback, func() (struct{}, error) { return struct{}{}, pl.checkin(layout, lease) })
	return err
}

// loop mirrors debug.Session.RunLoopCore with a span per step.
func (r *replayer) loop(ct *ctrace, c *replayed, sess *debug.Session) error {
	sp := c.spec
	for iter := 0; iter < sp.MaxIters; iter++ {
		det, err := timed(ct, spDetect, func() (*debug.Detection, error) { return sess.Detect(sp.Words, sp.Cycles) })
		if err != nil {
			return err
		}
		if !det.Failed {
			c.v.Clean = true
			return nil
		}
		c.v.Iterations++
		diag, err := timed(ct, spLocalize, func() (*debug.Diagnosis, error) {
			return sess.LocalizeDict(det, sp.MaxRounds, sp.ProbesPerRound)
		})
		if err != nil {
			return err
		}
		c.diagnosis(diag)
		cor, err := timed(ct, spCorrect, func() (*debug.Correction, error) {
			cor, _, err := sess.CorrectAuto(diag, det, nil)
			return cor, err
		})
		if err != nil {
			return err
		}
		c.correction(cor)
		if cor.Verified {
			c.v.Clean = true
			return nil
		}
	}
	return nil
}

// repair mirrors the service's repair campaign: one detect →
// dictionary-localize → candidate-search pass.
func (r *replayer) repair(ct *ctrace, c *replayed, sess *debug.Session, impl *netlist.Netlist, implFP string) error {
	sp := c.spec
	det, err := timed(ct, spDetect, func() (*debug.Detection, error) { return sess.Detect(sp.Words, sp.Cycles) })
	if err != nil {
		return err
	}
	if !det.Failed {
		c.v.Clean = true
		return nil
	}
	c.v.Iterations = 1
	diag, err := timed(ct, spLocalize, func() (*debug.Diagnosis, error) {
		return sess.LocalizeDict(det, sp.MaxRounds, sp.ProbesPerRound)
	})
	if err != nil {
		return err
	}
	c.diagnosis(diag)
	var prog *sim.Machine
	if diag.Dict {
		v, err := r.build(fmt.Sprintf("prog/%s/l%d", implFP, sp.SimLanes), func() (any, error) {
			return timed(ct, spCompile, func() (*sim.Machine, error) { return sim.CompileWidth(impl.Clone(), sp.SimLanes/64) })
		})
		if err != nil {
			return err
		}
		prog = v.(*sim.Machine)
	}
	cor, err := timed(ct, spCorrect, func() (*debug.Correction, error) {
		cor, _, err := sess.CorrectAuto(diag, det, prog)
		return cor, err
	})
	if err != nil {
		return err
	}
	c.correction(cor)
	c.v.Clean = cor.Verified
	return nil
}

func (c *replayed) diagnosis(d *debug.Diagnosis) {
	c.v.Rounds += d.Rounds
	c.v.Probes += d.Probes
	c.c.diagnoses++
	if d.Dict {
		c.v.DictResolved++
	}
}

func (c *replayed) correction(cor *debug.Correction) {
	c.v.Fixed = append(c.v.Fixed, cor.Fixed...)
	c.c.corrections++
	c.c.candidates += cor.Candidates
	c.c.survivors += cor.Survivors
	if !cor.Repaired {
		c.c.goldenFixes++
		return
	}
	c.v.Repaired++
	c.v.Candidates += cor.Candidates
	c.v.Survivors += cor.Survivors
	c.v.ECOVerified = cor.ECOVerified
	if cor.ECOVerified {
		c.c.ecoVerified++
	}
}

// seuMaxFaults matches the service's windowed-SEU sample bound.
const seuMaxFaults = 512

// faultScan mirrors service.runFaultScan for every fault model.
func (r *replayer) faultScan(ct *ctrace, c *replayed, ga *golden) error {
	sp := c.spec
	cfg := faults.ScanConfig{Patterns: sp.Patterns, Cycles: sp.Cycles, Seed: sp.Seed}
	lanes := ga.mach.Lanes()
	batchesOf := func(n int) int { return (n + lanes - 1) / lanes }
	scan := func(fs []faults.Fault) ([]faults.ScanResult, error) {
		c.c.faults += int64(len(fs))
		c.c.batches += int64(batchesOf(len(fs)))
		return timed(ct, spScan, func() ([]faults.ScanResult, error) { return faults.Scan(ga.mach, fs, cfg) })
	}
	tally := func(rs []faults.ScanResult) {
		for _, x := range rs {
			if x.Detected {
				c.v.FaultsDetected++
			}
		}
	}
	c.c.lanes = int64(lanes)
	c.c.faultCycles = int64(sp.Patterns * sp.Cycles)
	switch sp.FaultModel {
	case service.FaultModelPair:
		key := fmt.Sprintf("syndict/%s/p%d-c%d-s%d", ga.fp, sp.Patterns, sp.Cycles, sp.Seed)
		v, err := r.build(key, func() (any, error) {
			return timed(ct, spSynDictBuild, func() (*debug.SyndromeDict, error) { return debug.BuildSyndromeDict(ga.mach, nil, cfg) })
		})
		if err != nil {
			return err
		}
		dict := v.(*debug.SyndromeDict)
		pu := faults.PairUniverse(ga.nl, faults.Universe(ga.nl), faults.PairConfig{Seed: sp.Seed, Singles: dict.Singles()})
		c.c.faults += int64(len(pu))
		c.c.batches += int64(batchesOf(len(pu)))
		prs, err := timed(ct, spScan, func() ([]faults.PairScanResult, error) { return faults.PairScan(ga.mach, pu, cfg) })
		if err != nil {
			return err
		}
		c.v.FaultsTotal, c.v.FaultBatches, c.v.PairsTotal = 2*len(pu), batchesOf(len(pu)), len(pu)
		_, err = timed(ct, spPairDiagnose, func() (struct{}, error) {
			for _, x := range prs {
				if !x.Detected {
					continue
				}
				c.v.PairsDetected++
				m, err := dict.Diagnose(ga.mach, x.Syndrome)
				if err != nil {
					return struct{}{}, err
				}
				if m.Class == debug.ClassPair && m.Confirmed {
					c.v.PairsDiagnosed++
				}
			}
			return struct{}{}, nil
		})
		return err
	case service.FaultModelSEU:
		u := faults.Universe(ga.nl)
		wu := faults.WindowUniverse(u, sp.Patterns*sp.Cycles, 2*sp.Cycles, seuMaxFaults, sp.Seed)
		perm := make([]faults.Fault, len(wu))
		for i, f := range wu {
			f.From, f.To = 0, 0
			perm[i] = f
		}
		wres, err := scan(wu)
		if err != nil {
			return err
		}
		if _, err := scan(perm); err != nil {
			return err
		}
		c.v.FaultsTotal, c.v.FaultBatches = len(wu), 2*batchesOf(len(wu))
		tally(wres)
	case service.FaultModelInterconnect:
		iu, err := faults.InterconnectUniverse(ga.nl, faults.InterconnectConfig{Seed: sp.Seed})
		if err != nil {
			return err
		}
		rs, err := scan(iu)
		if err != nil {
			return err
		}
		c.v.FaultsTotal, c.v.FaultBatches = len(iu), batchesOf(len(iu))
		tally(rs)
	default:
		u := faults.Universe(ga.nl)
		rs, err := scan(u)
		if err != nil {
			return err
		}
		c.v.FaultsTotal, c.v.FaultBatches = len(u), batchesOf(len(u))
		tally(rs)
	}
	return nil
}
