package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// committedDigests pins the reference output of every workload at seeds
// 1..4, the first ops of a -seed 1 run. A change that alters any simulated
// result changes one of these.
var committedDigests = map[string][4]string{
	"tick-exits":   {"87980d02304fe332", "966161d8e293978b", "6b071811057817f5", "a28d8be9da4154e8"},
	"sync-wakeups": {"cedfe4979dbbcee6", "e4e24b53ef33f06f", "42c5b7219ec6b808", "4226cea1592c4709"},
	"io-lanes":     {"37232d2ca2eab648", "69f3b5cda96d56b8", "e9d1cb9565832a19", "493034d70152390e"},
	"paper-suite":  {"34a49044a192111d", "392fd8f9ec42b40a", "87461d9b292875f1", "68ffc0176550cc20"},
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(ms ...[]metric) []string {
	var out []string
	for _, list := range ms {
		for _, m := range list {
			out = append(out, m.name)
		}
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics %v, BENCHMARK.json declares %d %v", what, len(got), got, len(want), want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: metric %q, BENCHMARK.json declares %q", what, got[i], want[i])
		}
	}
}

func metricValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return -1
}

// TestWorkloads runs every workload with one warm op per round and its
// per-layer pass, checking outputs against the committed digests, the
// metric names against BENCHMARK.json, and that the ledger classifies
// every engine label.
func TestWorkloads(t *testing.T) {
	wantE2E, wantLayers := benchmarkNames(t)
	specs, err := workloads()
	if err != nil {
		t.Fatal(err)
	}
	shared, err := sharedProbes(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			s.warm = 1
			r := newWorkloadRun(s, 1)
			for i, want := range committedDigests[s.name] {
				d, err := r.ref(i)
				if err != nil {
					t.Fatal(err)
				}
				if d.String() != want {
					t.Errorf("seed %d: reference digest %v, committed %s", i+1, d, want)
				}
			}
			r.round()
			if r.failed > 0 {
				t.Errorf("%d of %d ops failed: %v", r.failed, len(r.ops), r.firstErr)
			}
			sameNames(t, "end to end", names(r.endToEnd()), wantE2E)

			lp, err := worldLayers(s, 1, 0, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if lp.failed > 0 {
				t.Errorf("%d of %d traced-pass runs failed: %v", lp.failed, lp.attempted, lp.firstErr)
			}
			if n := metricValue(lp.metrics, "other.events"); n != 0 {
				t.Errorf("other.events = %v: the ledger's class map misses an engine label", n)
			}
			sameNames(t, "per layer", names(lp.metrics, shared), wantLayers)
		})
	}
}

// TestTracedMatchesSession checks that a world built through the public
// constructors and run under the dispatch observer reproduces the pooled
// Session op exactly: same events, same result digest.
func TestTracedMatchesSession(t *testing.T) {
	specs, err := workloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if !s.session {
			continue
		}
		run := s.newRunner()
		for i := 0; i < 2; i++ { // cold, then pooled
			events, err := run.run(1)
			if err != nil {
				t.Fatal(err)
			}
			l, _, w, err := traceWorld(s.world, 1)
			if err != nil {
				t.Fatal(err)
			}
			if l.total() != events || w.se.Fired() != events {
				t.Errorf("%s: ledger %d and traced engine %d events, Session op %d", s.name, l.total(), w.se.Fired(), events)
			}
			if got, want := resultDigest(w.result()), run.digest(); got != want {
				t.Errorf("%s: traced digest %v, Session digest %v", s.name, got, want)
			}
		}
	}
}
