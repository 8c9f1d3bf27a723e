package main

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"fpgadbg/internal/service"
)

// An in-process service stands in for the daemon: the closed loop drives
// it, every verdict passes the checker, and the traced replay reproduces
// each verdict and reports every per-layer metric.
func TestReplayReproducesServiceVerdicts(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := &service.Client{Base: srv.URL, HTTP: newHTTPClient()}

	p := &plan{seed: 3, cycleSeconds: 1}
	for _, sp := range []service.Spec{
		{Design: "9sym", Kind: service.KindDebug, FaultSeed: 4},
		{Design: "9sym", Kind: service.KindRepair, FaultSeed: 1, Overlay: true},
		{Design: "9sym", Kind: service.KindFaultScan, FaultModel: service.FaultModelSEU, SimLanes: 128},
		{Design: "9sym", Kind: service.KindFaultScan, FaultModel: service.FaultModelInterconnect},
		{Design: "9sym", Kind: service.KindFaultScan, FaultModel: service.FaultModelPair, Patterns: 16},
	} {
		p.setup = append(p.setup, sp)
		p.mix = append(p.mix, sp)
	}
	dr := &daemonRun{}
	dr.lastSetup = drive(cl, 2, len(p.setup), func(i int) service.Spec { return p.setup[i] })
	dr.setup = dr.lastSetup
	dr.measured = drive(cl, 2, 2*len(p.mix), p.spec)
	if attempted, failed := dr.verdicts(); attempted != 3*len(p.mix) || failed != 0 {
		t.Fatalf("verdicts: %d of %d campaigns failed", failed, attempted)
	}
	tr, err := replay(dr, 2, filepath.Join(t.TempDir(), "spans.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.disagreements != 0 {
		t.Fatalf("%d traced verdicts differ from the service's", tr.disagreements)
	}
	m := map[string]metric{}
	dr.serviceLayer(m)
	tr.layers(m)
	for _, name := range []string{"service.http_ms", "synth.techmap_ms", "core.build_ms", "debug.detect_ms",
		"debug.syndict_build_ms", "faults.scan_ms", "faults.lane_fill", "trace.campaign_ms"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
}
