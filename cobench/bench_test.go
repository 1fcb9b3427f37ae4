package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// spec is the part of ../BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs a workload with a four-participant fleet for about a second.
func smoke(t *testing.T, workload string, trace, tamper bool) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: 1, seconds: 1, trace: trace,
		out: t.TempDir(), fleet: 4, setups: 1, tamper: tamper})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

// TestSmokeEmitsEveryMetric runs every workload cobench defines — those
// BENCHMARK.json names and navigate-join, which stays runnable outside it —
// untraced and traced, and checks that each run passes its audit and prints
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which cobench does not define", w.Name)
		}
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			res := smoke(t, name, trace, false)
			if !res.Correct {
				t.Errorf("%s (trace %v): audit failed: %v", name, trace, res.violations)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): metric %s in %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics printed, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestLayerMapCoversEveryMetric keeps layers.json, the rationale later
// changes cite, in step with the metrics BENCHMARK.json names.
func TestLayerMapCoversEveryMetric(t *testing.T) {
	s := loadSpec(t)
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]string          `json:"end_to_end"`
		PerLayer  map[string]json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Workloads {
		if _, ok := m.Workloads[w.Name]; !ok {
			t.Errorf("layers.json has no rationale for workload %s", w.Name)
		}
	}
	for _, x := range s.EndToEnd {
		if _, ok := m.EndToEnd[x.Name]; !ok {
			t.Errorf("layers.json does not define end-to-end metric %s", x.Name)
		}
	}
	for _, x := range s.PerLayer {
		if _, ok := m.PerLayer[x.Name]; !ok {
			t.Errorf("layers.json does not map per-layer metric %s", x.Name)
		}
	}
	if len(m.PerLayer) != len(s.PerLayer) || len(m.EndToEnd) != len(s.EndToEnd) {
		t.Errorf("layers.json maps %d+%d metrics, BENCHMARK.json names %d+%d",
			len(m.EndToEnd), len(m.PerLayer), len(s.EndToEnd), len(s.PerLayer))
	}
}

// TestGateTripsOnTamperedDocument alters one participant's document behind
// its snippet and requires the correctness gate to fail the run.
func TestGateTripsOnTamperedDocument(t *testing.T) {
	res := smoke(t, "edit-fanout", false, true)
	if res.Correct {
		t.Fatal("audit passed a run whose participant document was altered")
	}
	found := false
	for _, v := range res.violations {
		found = found || strings.Contains(v, "diverged from the reference")
	}
	if !found {
		t.Fatalf("audit failed for another reason: %v", res.violations)
	}
}

// TestSiteWalkNamesEachNavigation checks the property the navigation
// markers rely on: no site recurs within ten steps, and every site is
// visited equally often per round of the corpus.
func TestSiteWalkNamesEachNavigation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		walk := siteWalk(seed, "msn.com", 401)
		last := map[string]int{}
		for i, site := range walk {
			if j, ok := last[site]; ok && i-j <= 10 {
				t.Fatalf("seed %d: %s at steps %d and %d", seed, site, j, i)
			}
			last[site] = i
		}
		counts := map[string]int{}
		for _, site := range walk[1:] {
			counts[site]++
		}
		for site, n := range counts {
			if n < 19 || n > 21 {
				t.Errorf("seed %d: %s visited %d times in 400 steps", seed, site, n)
			}
		}
	}
}
