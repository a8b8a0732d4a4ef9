package paratick

import (
	"testing"
	"time"
)

// FuzzParseWorkloadSpec checks that every workload spec either fails to
// parse or runs: ParseWorkloadSpec returns an error, or the workload runs
// as a Scenario under a short Duration cap — refused with an error, or to
// the cap — without a panic.
func FuzzParseWorkloadSpec(f *testing.F) {
	for _, c := range goodWorkloadSpecs {
		f.Add(c.spec)
	}
	for _, spec := range badWorkloadSpecs {
		f.Add(spec)
	}
	// The -workload values of paratick-sim's TestRunHostileFlags.
	for _, spec := range []string{
		"sync:2:NaN", "sync:2:+Inf", "sync:2:1e-300", "sync:2:1e300",
		"sync:1000000000:1000", "parsec-par:ferret:1000000000",
		"fio:rndr:18014398509481985:1", "fio:rndr:4:17592186044417",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := ParseWorkloadSpec(spec, time.Millisecond)
		if err != nil {
			return
		}
		_, _ = Run(Scenario{Workload: w, Duration: time.Millisecond})
	})
}
