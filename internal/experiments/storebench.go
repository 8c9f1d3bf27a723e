package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"fpgadbg/internal/coord"
	"fpgadbg/internal/service"
	"fpgadbg/internal/store"
)

// The durable-store benchmark: what persistence costs and what it buys.
// Four measurements, serialized to BENCH_store.json by cmd/benchrepro
// -json-store:
//
//   - journal append throughput, fsync-per-record vs NoSync — the price
//     of the durability guarantee itself;
//   - recovery (replay) time as a function of journal length — how fast
//     a restarted daemon gets back to serving;
//   - warm resume: campaigns re-run after a restart against the spilled
//     netlist blobs, with the digest-equality check that makes resume
//     trustworthy and the spill hit rate that makes it fast;
//   - shard balance: the routing split a design-affinity coordinator
//     produces over a mixed submission burst, plus its steal count.

// AppendRate is one journal append-throughput measurement.
type AppendRate struct {
	Records    int     `json:"records"`
	Bytes      int64   `json:"bytes"`
	WallMs     float64 `json:"wall_ms"`
	RecsPerSec float64 `json:"records_per_sec"`
	MBPerSec   float64 `json:"mb_per_sec"`
}

// RecoveryPoint is one journal-replay timing: open a store holding
// Records valid records and fold them into the recovery view.
type RecoveryPoint struct {
	Records   int     `json:"records"`
	RecoverMs float64 `json:"recover_ms"`
}

// StoreBenchReport is the -json-store document.
type StoreBenchReport struct {
	// Journal throughput, with and without the per-record fsync.
	SyncAppend   AppendRate `json:"sync_append"`
	NoSyncAppend AppendRate `json:"nosync_append"`
	// SyncPenalty is the NoSync/sync throughput ratio — how much of the
	// append budget the durability fsync consumes.
	SyncPenalty float64 `json:"sync_penalty"`
	// Recovery time vs journal length (records replayed at open).
	Recovery []RecoveryPoint `json:"recovery"`
	// Warm resume across a daemon restart: the same specs resubmitted to
	// a service reopened on the same data directory.
	ResumeCampaigns   int     `json:"resume_campaigns"`
	ResumeDigestsOK   bool    `json:"resume_digests_ok"`
	ResumeSpillHits   int64   `json:"resume_spill_hits"`
	ResumeSpillMisses int64   `json:"resume_spill_misses"`
	ResumeHitRate     float64 `json:"resume_hit_rate"`
	// MemDiskParity: a campaign's digest is identical on an in-memory
	// store, a disk store, and no store at all.
	MemDiskParity bool `json:"mem_disk_parity"`
	// Shard balance over a mixed burst through the coordinator.
	Replicas     int     `json:"replicas"`
	Routed       []int64 `json:"routed"`
	Steals       int64   `json:"steals"`
	ShardBalance float64 `json:"shard_balance"` // min/max routed share
}

// benchRecord is a representative journal payload: a submit record
// carrying a realistic campaign spec.
func benchRecord(i int) store.Record {
	spec, _ := json.Marshal(service.Spec{
		Design: "9sym", FaultSeed: int64(i),
		PlaceEffort: 0.3, TileFrac: 0.25, Words: 4, Cycles: 2,
	})
	return store.Record{Kind: store.KindSubmit, ID: fmt.Sprintf("c%06d", i+1), Spec: spec}
}

// measureAppend writes n representative records to a fresh disk store.
func measureAppend(n int, noSync bool) (AppendRate, error) {
	dir, err := os.MkdirTemp("", "storebench")
	if err != nil {
		return AppendRate{}, err
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenDisk(dir, store.DiskOptions{NoSync: noSync})
	if err != nil {
		return AppendRate{}, err
	}
	defer st.Close()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := st.Append(benchRecord(i)); err != nil {
			return AppendRate{}, err
		}
	}
	wall := time.Since(start)
	s := st.Stats()
	rate := AppendRate{
		Records: n,
		Bytes:   s.JournalBytes,
		WallMs:  float64(wall.Microseconds()) / 1000,
	}
	if sec := wall.Seconds(); sec > 0 {
		rate.RecsPerSec = float64(n) / sec
		rate.MBPerSec = float64(s.JournalBytes) / (1 << 20) / sec
	}
	return rate, nil
}

// measureRecovery times a full journal replay for each length: write n
// records (NoSync — the write is scaffolding, the replay is the
// measurement), reopen the directory and fold.
func measureRecovery(lengths []int) ([]RecoveryPoint, error) {
	var out []RecoveryPoint
	for _, n := range lengths {
		dir, err := os.MkdirTemp("", "storebench")
		if err != nil {
			return nil, err
		}
		st, err := store.OpenDisk(dir, store.DiskOptions{NoSync: true})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		for i := 0; i < n; i++ {
			if _, err := st.Append(benchRecord(i)); err != nil {
				st.Close()
				os.RemoveAll(dir)
				return nil, err
			}
		}
		st.Close()

		start := time.Now()
		st2, err := store.OpenDisk(dir, store.DiskOptions{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		rec, err := st2.Recover()
		replay := time.Since(start)
		st2.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		if rec.Records != n {
			return nil, fmt.Errorf("experiments: recovery folded %d records, wrote %d", rec.Records, n)
		}
		out = append(out, RecoveryPoint{Records: n, RecoverMs: float64(replay.Microseconds()) / 1000})
	}
	return out, nil
}

// storeSpecs is the campaign mix for the resume and sharding phases:
// two fault seeds over at least two catalog designs. The defaults land
// on different FNV shards of 2, so the shard-balance phase measures a
// genuine split rather than a degenerate all-on-one-replica burst.
func storeSpecs(cfg Config) []service.Spec {
	designs := cfg.Designs
	if len(designs) < 2 {
		designs = []string{"9sym", "c880"}
	}
	var specs []service.Spec
	for _, d := range designs {
		for fs := int64(1); fs <= 2; fs++ {
			specs = append(specs, service.Spec{
				Design: d, FaultSeed: fs, Seed: cfg.Seed,
				PlaceEffort: cfg.PlaceEffort, TileFrac: 0.25, Words: 4, Cycles: 2,
			})
		}
	}
	return specs
}

// specKey names a campaign by design and fault seed.
func specKey(sp service.Spec) string {
	return fmt.Sprintf("%s/%d", sp.Design, sp.FaultSeed)
}

// runAll submits every spec to api and returns design/seed-keyed digests.
func runAll(api service.API, specs []service.Spec) (map[string]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	type waiter interface {
		Wait(ctx context.Context, id string) (*service.Result, error)
	}
	w, ok := api.(waiter)
	if !ok {
		return nil, fmt.Errorf("experiments: API %T cannot wait", api)
	}
	digests := make(map[string]string)
	for _, sp := range specs {
		id, err := api.Submit(sp)
		if err != nil {
			return nil, err
		}
		res, err := w.Wait(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("experiments: campaign %s (%s): %w", id, specKey(sp), err)
		}
		digests[specKey(sp)] = res.Digest
	}
	return digests, nil
}

// StoreBench runs all four measurements. records sizes the journal
// throughput arms (default 2000); the recovery curve uses 1/8, 1/2 and
// the full count.
func StoreBench(cfg Config, records int) (*StoreBenchReport, error) {
	cfg = cfg.withDefaults()
	if records <= 0 {
		records = 2000
	}
	rep := &StoreBenchReport{}

	var err error
	if rep.SyncAppend, err = measureAppend(records, false); err != nil {
		return nil, err
	}
	if rep.NoSyncAppend, err = measureAppend(records, true); err != nil {
		return nil, err
	}
	if rep.SyncAppend.RecsPerSec > 0 {
		rep.SyncPenalty = rep.NoSyncAppend.RecsPerSec / rep.SyncAppend.RecsPerSec
	}

	lengths := []int{records / 8, records / 2, records}
	if rep.Recovery, err = measureRecovery(lengths); err != nil {
		return nil, err
	}

	// Warm resume across a restart.
	specs := storeSpecs(cfg)
	rep.ResumeCampaigns = len(specs)
	dir, err := os.MkdirTemp("", "storebench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return nil, err
	}
	svc, err := service.Open(service.Config{Workers: cfg.Workers, Store: st})
	if err != nil {
		return nil, err
	}
	before, err := runAll(svc, specs)
	if err != nil {
		svc.Close()
		return nil, err
	}
	svc.Close()

	st2, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return nil, err
	}
	svc2, err := service.Open(service.Config{Workers: cfg.Workers, Store: st2})
	if err != nil {
		return nil, err
	}
	after, err := runAll(svc2, specs)
	if err != nil {
		svc2.Close()
		return nil, err
	}
	stats := svc2.Stats()
	svc2.Close()
	rep.ResumeDigestsOK = true
	for key, d := range before {
		if after[key] != d {
			rep.ResumeDigestsOK = false
		}
	}
	rep.ResumeSpillHits = stats.SpillHits
	rep.ResumeSpillMisses = stats.SpillMisses
	if total := stats.SpillHits + stats.SpillMisses; total > 0 {
		rep.ResumeHitRate = float64(stats.SpillHits) / float64(total)
	}

	// Mem/disk/none parity on the first spec.
	memSvc, err := service.Open(service.Config{Workers: cfg.Workers, Store: store.NewMem()})
	if err != nil {
		return nil, err
	}
	memDigests, err := runAll(memSvc, specs[:1])
	memSvc.Close()
	if err != nil {
		return nil, err
	}
	bare := service.New(service.Config{Workers: cfg.Workers})
	bareDigests, err := runAll(bare, specs[:1])
	bare.Close()
	if err != nil {
		return nil, err
	}
	key := specKey(specs[0])
	rep.MemDiskParity = memDigests[key] == before[key] && bareDigests[key] == before[key]

	// Shard balance: the mixed burst through a 2-replica coordinator.
	co, err := coord.New(coord.Config{Replicas: 2, Service: service.Config{Workers: cfg.Workers}})
	if err != nil {
		return nil, err
	}
	burst := make([]service.Spec, 0, 4*len(specs))
	for i := 0; i < 4; i++ {
		burst = append(burst, specs...)
	}
	if _, err := runAll(co, burst); err != nil {
		co.Close()
		return nil, err
	}
	rs := co.RouteStats()
	co.Close()
	rep.Replicas = len(rs.Routed)
	rep.Routed = rs.Routed
	rep.Steals = rs.Steals
	minR, maxR := rs.Routed[0], rs.Routed[0]
	for _, n := range rs.Routed {
		if n < minR {
			minR = n
		}
		if n > maxR {
			maxR = n
		}
	}
	if maxR > 0 {
		rep.ShardBalance = float64(minR) / float64(maxR)
	}
	return rep, nil
}

// FormatStoreBench renders the report.
func FormatStoreBench(r *StoreBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Durable store benchmark\n")
	fmt.Fprintf(&b, "%-8s %8s %10s %12s %10s\n", "journal", "records", "wall", "records/s", "MB/s")
	row := func(name string, a AppendRate) {
		fmt.Fprintf(&b, "%-8s %8d %8.0fms %12.0f %10.2f\n", name, a.Records, a.WallMs, a.RecsPerSec, a.MBPerSec)
	}
	row("fsync", r.SyncAppend)
	row("nosync", r.NoSyncAppend)
	fmt.Fprintf(&b, "fsync costs %.1fx throughput\n", r.SyncPenalty)
	fmt.Fprintf(&b, "recovery: ")
	for i, p := range r.Recovery {
		if i > 0 {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "%d recs in %.1fms", p.Records, p.RecoverMs)
	}
	fmt.Fprintf(&b, "\nresume: %d campaigns, digests-ok=%v, spill hit rate %.0f%% (%d hits, %d misses), mem/disk parity=%v\n",
		r.ResumeCampaigns, r.ResumeDigestsOK, 100*r.ResumeHitRate,
		r.ResumeSpillHits, r.ResumeSpillMisses, r.MemDiskParity)
	fmt.Fprintf(&b, "sharding: %d replicas routed %v (%d steals), balance %.2f\n",
		r.Replicas, r.Routed, r.Steals, r.ShardBalance)
	return b.String()
}
