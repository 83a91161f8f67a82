package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// spec is the part of the repository's BENCHMARK.json these tests check
// the harness against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(s.Workloads), len(workloadTable))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadTable[i].name || w.Why != workloadTable[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloadTable[i].name, workloadTable[i].why)
		}
	}
}

// checkMetrics fails unless got has exactly the named metrics, with
// their units.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	var missing []string
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s in %s, BENCHMARK.json says %s", what, m.Name, g.Unit, m.Unit)
		}
	}
	if len(missing) > 0 || len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: missing %v; printed %v", what, missing, names)
	}
}

// TestRunsPrintTheMetricsOfBenchmarkJSON runs short end-to-end and
// traced runs and checks them against BENCHMARK.json and the span
// accounting: the layers' self times plus the unattributed remainder
// add up to the client latency.
func TestRunsPrintTheMetricsOfBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the serving stack")
	}
	s := loadSpec(t)
	for _, name := range []string{"small_direct", "small_routed"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res, rep, err := run(w, 1, time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || rep.Verified == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d verified=%d",
					name, traced, res.Correct, res.Attempted, res.Failed, rep.Verified)
			}
			if !traced {
				checkMetrics(t, name, res.Metrics, s.EndToEnd)
				continue
			}
			checkMetrics(t, name+" traced", res.Metrics, s.PerLayer)
			m := func(k string) float64 { return res.Metrics[k].Value }
			if routed := m("capcluster.route_us_p50") > 0; routed != w.routed {
				t.Errorf("%s: capcluster.route_us_p50 = %v", name, m("capcluster.route_us_p50"))
			}
			if m("trace_joined_ratio") < 0.9 {
				t.Errorf("%s: only %v of requests joined their spans", name, m("trace_joined_ratio"))
			}
			parts := m("unattributed_us_mean") + m("capcluster.self_us_mean") + m("capcluster.wire_us_mean") +
				m("capserve.overhead_us_mean") + m("workloads.compute_us_mean")
			if client := m("client_us_mean"); math.Abs(parts-client) > 1e-6*client {
				t.Errorf("%s: self times add up to %v us, client latency is %v us", name, parts, client)
			}
		}
	}
}
