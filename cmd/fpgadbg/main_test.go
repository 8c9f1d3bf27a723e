package main

import (
	"bytes"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fpgadbg/internal/service"
)

// resultSection returns the printed summary below "== result ==" without
// its artifact-cache line, whose cache counts and wall time depend on the
// service's history and the host, plus the digest that line carries.
func resultSection(t *testing.T, out string) (summary, digest string) {
	t.Helper()
	_, tail, ok := strings.Cut(out, "== result ==\n")
	if !ok {
		t.Fatalf("no result section in:\n%s", out)
	}
	var keep []string
	for _, line := range strings.Split(tail, "\n") {
		if rest, ok := strings.CutPrefix(line, "artifact cache: "); ok {
			_, digest, _ = strings.Cut(rest, "digest ")
			continue
		}
		if strings.HasPrefix(line, "scan rate ") {
			continue // wall-clock throughput
		}
		keep = append(keep, line)
	}
	if digest == "" {
		t.Fatalf("no digest in:\n%s", out)
	}
	return strings.Join(keep, "\n"), digest
}

// TestLocalAndRemoteAgree runs the same specs in-process and against a
// daemon over HTTP: both paths run one campaign pipeline, so they must
// print the same summary and digest.
func TestLocalAndRemoteAgree(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	pairLine := regexp.MustCompile(`(?m)^pairs: detected (\d+)/(\d+) `)
	for _, spec := range []service.Spec{
		{Design: "9sym", FaultSeed: 1, PlaceEffort: 0.3, TileFrac: 0.25, Words: 4, Cycles: 2},
		{Design: "9sym", Kind: service.KindFaultScan, FaultModel: service.FaultModelPair, Patterns: 32},
	} {
		var local, remote bytes.Buffer
		if err := runLocal(&local, "", spec); err != nil {
			t.Fatal(err)
		}
		if err := runRemote(&remote, srv.URL, "", spec); err != nil {
			t.Fatal(err)
		}
		ls, ld := resultSection(t, local.String())
		rs, rd := resultSection(t, remote.String())
		if ls != rs || ld != rd {
			t.Fatalf("%s/%s: local and remote disagree\nlocal (digest %s):\n%s\nremote (digest %s):\n%s",
				spec.Design, spec.Kind, ld, ls, rd, rs)
		}
		if spec.Kind == service.KindFaultScan {
			// The pair summary reports pairs, not the single-fault
			// counter the pair model never sets.
			m := pairLine.FindStringSubmatch(ls)
			if m == nil {
				t.Fatalf("no pair line in:\n%s", ls)
			}
			if n, _ := strconv.Atoi(m[1]); n == 0 {
				t.Fatalf("pair scan reports no detected pairs:\n%s", ls)
			}
		} else if !strings.Contains(ls, "clean=true") {
			t.Fatalf("debug campaign not clean:\n%s", ls)
		}
	}
}
