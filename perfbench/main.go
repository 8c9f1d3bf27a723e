// Command perfbench is the campaign benchmark of fpgadbg: a closed-loop
// load generator that drives a freshly started fpgadbgd over HTTP the way
// fpgadbg -remote does (POST /campaigns, stream the events to the end,
// GET the verdict) and reports POST-to-verdict latency and throughput.
// Each of its clients sends the next campaign only after its previous
// verdict arrived; the client count equals the daemon's -workers.
//
// Workloads (generated from -seed; the daemon sees only the specs):
//
//	cold-bugs  debug and repair campaigns, overlay off and on, on 9sym,
//	           c880 and c499, each on a fault the daemon has not seen:
//	           every campaign builds its layout, baseline and overlay;
//	           set-up builds each design's fault dictionary.
//	warm-fsm   exact re-runs of a fixed catalog of bugs on the sequential
//	           designs styr, sand, planet1 and s9234: every artifact is
//	           cached and the loop itself is the work.
//	faultscan  single, seu and interconnect scans on 9sym, c880, s9234
//	           and DES at 64 and 512 lanes, plus a pair scan on 9sym.
//
// Set-up boots the daemon and runs the workload's warm-up, a fixed number
// of times per workload (cold-bugs 5; faultscan and warm-fsm, whose
// passes take ~5 s and ~28 s, once), and setup_s is the median; the last
// daemon serves the measured phase. That phase runs a fixed number
// of whole cycles of the workload's mix, sized so it lasts about -seconds
// on the reference host, so every commit measures the same campaigns.
// Every verdict is checked (verdict.go).
//
// With -trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with -trace 1 the run is followed by a traced
// in-process replay of the same specs (traced.go) and the object carries
// the per-layer metrics instead. Run it through run.sh, which builds the
// daemon and this program from the checkout first:
//
//	bash perfbench/run.sh --workload warm-fsm --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fpgadbg/internal/service"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", fmt.Sprintf("traffic mix, one of %v", workloadNames))
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "length of the measured phase on the reference host")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
		bin      = flag.String("daemon", "", "fpgadbgd binary built from this checkout")
		out      = flag.String("out", ".bench_build", "directory for the daemon log and the span dump")
	)
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return fmt.Errorf("need -daemon, -seconds >= 1 and -trace 0|1")
	}
	p, err := newPlan(*workload, *seed)
	if err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	workers := min(runtime.NumCPU(), 2)
	st, _ := json.Marshal(newStamp(root, *workload, *seed, workers))
	fmt.Printf("stamp %s\n", st)

	dr, err := runDaemon(p, *bin, workers, p.cycles(*seconds), filepath.Join(*out, "fpgadbgd.log"))
	if err != nil {
		return err
	}
	if err := writeSamples(filepath.Join(*out, fmt.Sprintf("samples-%s-%d.ndjson", *workload, *seed)), dr.measured); err != nil {
		return err
	}
	fmt.Printf("measured %d campaigns (%d cycles) in %.2fs\n", len(dr.measured), p.cycles(*seconds), dr.wall.Seconds())
	perClass(dr.measured)
	rep := report{Metrics: map[string]metric{}}
	rep.Attempted, rep.Failed = dr.verdicts()
	if *trace == 0 {
		dr.endToEnd(rep.Metrics)
	} else {
		tr, err := replay(dr, workers, filepath.Join(*out, fmt.Sprintf("spans-%s-%d.ndjson", *workload, *seed)))
		if err != nil {
			return err
		}
		dr.serviceLayer(rep.Metrics)
		tr.layers(rep.Metrics)
		printLayerTable(rep.Metrics)
		rep.Failed += tr.disagreements
	}
	rep.Correct = rep.Failed == 0
	// fail_frac is a result, not a metric: it is 0 on a correct run, so
	// no bound could be a share of it. The JSON carries it as failed and
	// attempted.
	fmt.Printf("%-32s %14.4f ratio (%d of %d campaigns)\n", "fail_frac", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	printMetrics(rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// daemonRun is everything the untraced daemon run observed.
type daemonRun struct {
	setupS      []float64 // per set-up repetition: boot-to-ready + warm-up
	setup       []sample  // every set-up campaign, all repetitions
	lastSetup   []sample  // the set-up campaigns of the measured daemon
	measured    []sample
	wall        time.Duration
	rssMB       float64
	cacheBefore service.CacheStats
	cacheAfter  service.CacheStats
}

func runDaemon(p *plan, bin string, workers, cycles int, logPath string) (*daemonRun, error) {
	dr := &daemonRun{}
	var d *daemon
	for rep := 0; rep < p.setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		var (
			ready time.Duration
			err   error
		)
		d, ready, err = startDaemon(bin, workers, logPath)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		warm := drive(d.client, workers, len(p.setup), func(i int) service.Spec { return p.setup[i] })
		dr.setupS = append(dr.setupS, (ready + time.Since(t0)).Seconds())
		dr.setup = append(dr.setup, warm...)
		dr.lastSetup = warm
	}
	defer d.stop()

	var err error
	if dr.cacheBefore, err = cacheStats(d.client); err != nil {
		return nil, err
	}
	t0 := time.Now()
	dr.measured = drive(d.client, workers, cycles*len(p.mix), p.spec)
	for _, s := range dr.measured {
		if e := s.end.Sub(t0); e > dr.wall {
			dr.wall = e
		}
	}
	if dr.cacheAfter, err = cacheStats(d.client); err != nil {
		return nil, err
	}
	if dr.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	return dr, nil
}

// verdicts checks every campaign of the run and prints each failure.
func (dr *daemonRun) verdicts() (attempted, failed int) {
	c := newChecker()
	for _, group := range [][]sample{dr.setup, dr.measured} {
		for i := range group {
			s := &group[i]
			attempted++
			if why := c.check(s); why != "" {
				failed++
				fmt.Printf("FAIL %s: %s\n", specKey(s.spec), why)
			}
		}
	}
	return attempted, failed
}

// endToEnd fills the user-visible metrics of the measured phase.
func (dr *daemonRun) endToEnd(m map[string]metric) {
	var lat []float64
	faults := 0
	for i := range dr.measured {
		s := &dr.measured[i]
		lat = append(lat, s.latencyMs())
		switch {
		case s.status.Result == nil:
		case s.spec.Kind == service.KindFaultScan:
			faults += s.status.Result.FaultsTotal
		default:
			faults++ // a debug or repair campaign handles its one injected fault
		}
	}
	wall := dr.wall.Seconds()
	tv, pct := tail(lat)
	m["latency_p50_ms"] = metric{median(lat), "ms"}
	m["latency_tail_ms"] = metric{tv, "ms"}
	m["campaigns_per_s"] = metric{float64(len(dr.measured)) / wall, "1/s"}
	m["faults_per_s"] = metric{float64(faults) / wall, "1/s"}
	m["setup_s"] = metric{median(dr.setupS), "s"}
	m["rss_peak_mb"] = metric{dr.rssMB, "MB"}
	fmt.Printf("latency tail is p%d of %d samples\n", pct, len(lat))
}

// perClass prints the median latency of each spec class, the check on
// where the latency percentiles fall in the workload's mix.
func perClass(ss []sample) {
	by := map[string][]float64{}
	for i := range ss {
		sp := ss[i].spec
		k := fmt.Sprintf("%s/%s/ov=%v/%s/l%d", sp.Design, sp.Kind, sp.Overlay, sp.FaultModel, sp.SimLanes)
		by[k] = append(by[k], ss[i].latencyMs())
	}
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  class %-40s n=%-3d p50 %9.1f ms\n", k, len(by[k]), median(by[k]))
	}
}

func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// writeSamples dumps the measured campaigns as NDJSON: spec, client
// latency and the daemon's service time.
func writeSamples(path string, ss []sample) error {
	type row struct {
		Spec      service.Spec `json:"spec"`
		LatencyMs float64      `json:"latency_ms"`
		ServiceMs float64      `json:"service_ms"`
	}
	rows := make([]row, len(ss))
	for i := range ss {
		rows[i] = row{ss[i].spec, ss[i].latencyMs(), ss[i].serviceMs()}
	}
	return writeNDJSON(path, rows)
}

func writeNDJSON[T any](path string, rows []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
