package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fpgadbg/internal/service"
)

func done(spec service.Spec, res service.Result) sample {
	return sample{spec: spec, status: service.Status{State: service.StateDone, Result: &res}}
}

func TestCheckerFailureRules(t *testing.T) {
	debugSpec := service.Spec{Design: "9sym", FaultSeed: 3}
	scanSpec := service.Spec{Design: "9sym", Kind: service.KindFaultScan}
	for _, tc := range []struct {
		name   string
		first  *sample // an earlier verdict for the same spec
		s      sample
		reason string // "" = must pass
	}{
		{name: "clean", s: done(debugSpec, service.Result{Clean: true, Digest: "a"})},
		{name: "not clean", s: done(debugSpec, service.Result{Clean: false, Digest: "a"}), reason: "not clean"},
		{name: "failed state", s: sample{spec: debugSpec, status: service.Status{State: service.StateFailed, Error: "boom"}}, reason: "campaign failed"},
		{name: "canceled", s: sample{spec: debugSpec, status: service.Status{State: service.StateCanceled}}, reason: "canceled"},
		{name: "http error", s: sample{spec: debugSpec, err: errors.New("POST /campaigns: HTTP 503")}, reason: "http"},
		{name: "empty scan", s: done(scanSpec, service.Result{}), reason: "no faults"},
		{name: "scan", s: done(scanSpec, service.Result{FaultsTotal: 10, Digest: "s"})},
		{
			name:   "repeat with changed digest",
			first:  ptr(done(debugSpec, service.Result{Clean: true, Digest: "a"})),
			s:      done(debugSpec, service.Result{Clean: true, Digest: "b"}),
			reason: "digest",
		},
		{
			name:  "repeat with same digest",
			first: ptr(done(debugSpec, service.Result{Clean: true, Digest: "a"})),
			s:     done(debugSpec, service.Result{Clean: true, Digest: "a"}),
		},
	} {
		c := newChecker()
		if tc.first != nil {
			if why := c.check(tc.first); why != "" {
				t.Fatalf("%s: first verdict rejected: %s", tc.name, why)
			}
		}
		why := c.check(&tc.s)
		switch {
		case tc.reason == "" && why != "":
			t.Errorf("%s: rejected: %s", tc.name, why)
		case tc.reason != "" && !strings.Contains(why, tc.reason):
			t.Errorf("%s: got %q, want a failure mentioning %q", tc.name, why, tc.reason)
		}
	}
}

func ptr[T any](v T) *T { return &v }

// A daemon that refuses the spec with HTTP 400 yields a failed campaign.
func TestRefusedSpecCountsAsFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"service: unknown campaign kind"}`))
	}))
	defer srv.Close()
	s := runOne(&service.Client{Base: srv.URL}, 0, service.Spec{Design: "9sym"})
	why := newChecker().check(&s)
	if !strings.Contains(why, "unknown campaign kind") {
		t.Fatalf("refused spec: got %q, want the daemon's refusal", why)
	}
}
