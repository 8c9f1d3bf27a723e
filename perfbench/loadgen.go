package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fpgadbg/internal/service"
)

// campaignTimeout bounds one campaign from POST to verdict; a campaign
// past it counts as failed.
const campaignTimeout = 120 * time.Second

// sample is one campaign as a client saw it.
type sample struct {
	idx    int
	spec   service.Spec
	start  time.Time
	end    time.Time
	status service.Status
	err    error
}

func (s *sample) latencyMs() float64 { return ms(s.end.Sub(s.start)) }

// serviceMs is the daemon's own run time for the campaign.
func (s *sample) serviceMs() float64 { return ms(s.status.Finished.Sub(s.status.Started)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runOne drives one campaign the way fpgadbg -remote does: POST the
// spec, stream its events to the end, then GET the verdict.
func runOne(cl *service.Client, idx int, spec service.Spec) (s sample) {
	s = sample{idx: idx, spec: spec, start: time.Now()}
	defer func() { s.end = time.Now() }()
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		s.err = err
		return s
	}
	if err := cl.Events(ctx, st.ID, func(service.Event) {}); err != nil {
		s.err = err
		return s
	}
	if s.status, err = cl.Status(ctx, st.ID); err != nil {
		s.err = err
		return s
	}
	if !s.status.State.Terminal() {
		s.err = fmt.Errorf("event stream of %s ended in state %s", st.ID, s.status.State)
	}
	return s
}

// drive runs a closed loop over campaigns 0..n-1: each of clients
// goroutines sends its next campaign only after its previous verdict
// arrived. Samples come back in completion order.
func drive(cl *service.Client, clients, n int, spec func(int) service.Spec) []sample {
	var (
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := runOne(cl, i, spec(i))
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// cacheStats reads the daemon's artifact-cache counters from /metrics.
func cacheStats(cl *service.Client) (service.CacheStats, error) {
	var doc struct {
		Fpgadbgd struct {
			Cache service.CacheStats `json:"cache"`
		} `json:"fpgadbgd"`
	}
	resp, err := cl.HTTP.Get(cl.Base + "/metrics")
	if err != nil {
		return service.CacheStats{}, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.CacheStats{}, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return service.CacheStats{}, fmt.Errorf("decode /metrics: %w", err)
	}
	return doc.Fpgadbgd.Cache, nil
}
