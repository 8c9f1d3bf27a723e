package main

import (
	"encoding/json"
	"fmt"

	"fpgadbg/internal/service"
)

// checker applies the benchmark's failure rules to campaign verdicts. A
// campaign fails on an HTTP error, refusal or timeout; a campaign state
// other than done; a debug or repair verdict that is not clean; a
// faultscan that scanned nothing; or a repeat of a spec whose digest
// differs from the first verdict for that spec.
type checker struct {
	first map[string]string // spec key → first digest seen
}

func newChecker() *checker { return &checker{first: make(map[string]string)} }

func specKey(sp service.Spec) string {
	b, err := json.Marshal(sp)
	if err != nil {
		panic(err) // Spec holds only scalars
	}
	return string(b)
}

// check returns why s failed, or "" when its verdict is correct.
func (c *checker) check(s *sample) string {
	if s.err != nil {
		return "http: " + s.err.Error()
	}
	st := s.status
	switch {
	case st.State == service.StateFailed:
		return "campaign failed: " + st.Error
	case st.State != service.StateDone:
		return fmt.Sprintf("campaign %s", st.State)
	case st.Result == nil:
		return "done without a result"
	}
	res := st.Result
	if s.spec.Kind == service.KindFaultScan {
		if res.FaultsTotal == 0 {
			return "faultscan scanned no faults"
		}
	} else if !res.Clean {
		return fmt.Sprintf("verdict not clean (%s, %d iterations)", res.Injected, res.Iterations)
	}
	key := specKey(s.spec)
	if d, ok := c.first[key]; !ok {
		c.first[key] = res.Digest
	} else if d != res.Digest {
		return fmt.Sprintf("repeat digest %s differs from first %s", res.Digest, d)
	}
	return ""
}
