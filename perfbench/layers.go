package main

import (
	"fmt"
	"time"

	"fpgadbg/internal/service"
)

// serviceLayer fills the service rows of the per-layer metrics from the
// daemon run's measured phase: status timestamps and /metrics.
func (dr *daemonRun) serviceLayer(m map[string]metric) {
	var wait, httpMs []float64
	for i := range dr.measured {
		s := &dr.measured[i]
		if s.status.Result == nil {
			continue
		}
		wait = append(wait, ms(s.status.Started.Sub(s.status.Queued)))
		httpMs = append(httpMs, s.latencyMs()-ms(s.status.Finished.Sub(s.status.Queued)))
	}
	hits := dr.cacheAfter.Hits - dr.cacheBefore.Hits
	misses := dr.cacheAfter.Misses - dr.cacheBefore.Misses
	m["service.queue_wait_ms"] = metric{median(wait), "ms"}
	m["service.http_ms"] = metric{median(httpMs), "ms"}
	m["service.cache_hit_frac"] = metric{frac(float64(hits), float64(hits+misses)), "ratio"}
	m["service.cache_mb"] = metric{float64(dr.cacheAfter.Bytes) / (1 << 20), "MB"}
	m["service.cache_evictions"] = metric{float64(dr.cacheAfter.Evictions - dr.cacheBefore.Evictions), "count"}
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layers fills the traced run's per-layer metrics. A layer's time is its
// self time (span minus child spans) summed per campaign; "_ms" is the
// p50 over the campaigns in which the layer ran, in either pass, and
// "_share_pct" its share of the summed campaign time of the measured
// pass. Counts and ratios cover the measured pass.
func (tr *tracedRun) layers(m map[string]metric) {
	child := make([]time.Duration, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End.Sub(s.Start)
		}
	}
	self := map[string]map[string]float64{} // campaign → layer → ms
	for i, s := range tr.spans {
		if self[s.Campaign] == nil {
			self[s.Campaign] = map[string]float64{}
		}
		self[s.Campaign][s.Name] += ms(s.End.Sub(s.Start) - child[i])
	}

	var (
		total, scanNs                  float64
		wall, gaps                     []float64
		daemonTotal                    float64
		loops, rounds, diagnoses, hits float64
		moves, expansions              float64
		switches, fallbacks            float64
		corrections, cands, survivors  float64
		goldenFixes, repaired, eco     float64
		faultCycles, laneSlots, nFault float64
	)
	for _, c := range tr.campaigns {
		if !c.measured {
			continue
		}
		total += c.wallMs
		wall = append(wall, c.wallMs)
		if d := tr.daemonMs[specKey(c.daemon.spec)]; len(d) > 0 {
			dm := median(d)
			gaps = append(gaps, dm-c.wallMs)
			daemonTotal += dm
		}
		k, sp := c.c, c.spec
		if sp.Kind != service.KindFaultScan {
			loops++
			moves += float64(k.placeMoves)
			expansions += float64(k.routeExpansions)
			rounds += float64(c.v.Rounds)
		}
		if sp.UseDict {
			diagnoses += float64(k.diagnoses)
			hits += float64(c.v.DictResolved)
		}
		if sp.Overlay {
			switches += float64(c.v.OverlaySwitches)
			fallbacks += float64(c.v.OverlayFallbacks)
		}
		corrections += float64(k.corrections)
		cands += float64(k.candidates)
		survivors += float64(k.survivors)
		goldenFixes += float64(k.goldenFixes)
		repaired += float64(c.v.Repaired)
		eco += float64(k.ecoVerified)
		if k.faults > 0 {
			nFault += float64(k.faults)
			faultCycles += float64(k.faults * k.faultCycles)
			laneSlots += float64(k.batches * k.lanes)
			scanNs += self[c.id][spScan] * 1e6
		}
	}
	for _, l := range timedLayers {
		var per []float64
		share := 0.0
		for _, c := range tr.campaigns {
			v, ok := self[c.id][l]
			if !ok {
				continue
			}
			per = append(per, v)
			if c.measured {
				share += v
			}
		}
		m[l+"_ms"] = metric{median(per), "ms"}
		m[l+"_share_pct"] = metric{100 * frac(share, total), "%"}
	}
	m["core.place_moves"] = metric{frac(moves, loops), "count"}
	m["core.route_expansions"] = metric{frac(expansions, loops), "count"}
	m["overlay.switch_frac"] = metric{frac(switches, switches+fallbacks), "ratio"}
	m["debug.rounds"] = metric{frac(rounds, loops), "count"}
	m["debug.dict_hit_frac"] = metric{frac(hits, diagnoses), "ratio"}
	m["faults.ns_per_fault_cycle"] = metric{frac(scanNs, faultCycles), "ns"}
	m["faults.lane_fill"] = metric{frac(nFault, laneSlots), "ratio"}
	m["repair.candidates"] = metric{frac(cands, corrections), "count"}
	m["repair.survivor_frac"] = metric{frac(survivors, cands), "ratio"}
	m["repair.fallback_frac"] = metric{frac(goldenFixes, corrections), "ratio"}
	m["eco.verified_frac"] = metric{frac(eco, repaired), "ratio"}
	m["trace.campaign_ms"] = metric{median(wall), "ms"}
	m["trace.gap_ms"] = metric{median(gaps), "ms"}
	m["trace.gap_pct"] = metric{100 * frac(sum(gaps), daemonTotal), "%"}
}

// printLayerTable prints the timed layers side by side: p50 self time
// per campaign and share of the measured pass.
func printLayerTable(m map[string]metric) {
	fmt.Printf("%-22s %12s %9s\n", "layer", "p50 ms", "share %")
	for _, l := range timedLayers {
		fmt.Printf("%-22s %12.3f %9.2f\n", l, m[l+"_ms"].Value, m[l+"_share_pct"].Value)
	}
}
