package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{35, 20, 15, 50, 40} // sorted: 15 20 35 40 50
	for _, c := range []struct{ p, want float64 }{
		{5, 15},   // rank ceil(0.25) = 1
		{30, 20},  // rank ceil(1.5) = 2
		{40, 20},  // rank 2 exactly
		{50, 35},  // rank ceil(2.5) = 3
		{100, 50}, // rank 5
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %g, want 0", got)
	}
	// 99.9% of 1000 is rank 999 exactly, not 1000.
	if r := nearestRank(1000, 99.9); r != 999 {
		t.Errorf("nearestRank(1000, 99.9) = %d, want 999", r)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // median rank 10 leaves 9 beyond
		{20, 50, true}, // median rank 10 leaves 10; p75 rank 15 leaves 5
		{100, 90, true},
		{199, 90, true},  // p95 rank 190 leaves 9
		{200, 95, true},  // p95 rank 190 leaves 10
		{1000, 99, true}, // p99 rank 990 leaves 10; p99.5 leaves 5
		{200000, 99.99, true},
	} {
		p, ok := highestPercentile(c.n, 10)
		if p != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%g %v, want p%g %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
	// Hand-computed with the exclusive method of Python's
	// statistics.quantiles(n=4).
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{50, 10, 40, 20, 30}, 15, 30, 45},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g %v, want %g %g %g", c.in, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should fail")
	}
	if s := relSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != (8.25-2.75)/5.5 {
		t.Errorf("relSpread = %g, want 1", s)
	}
}

func TestErrorRateCountsRefusals(t *testing.T) {
	attempted, failed := 0, 0
	for _, status := range []int{200, 429, 200, 500, 200} {
		attempted++
		if !requestOK(status, true) {
			failed++
		}
	}
	if attempted++; !requestOK(200, false) { // a 200 whose output check failed
		failed++
	}
	if got := errorRate(attempted, failed); got != 0.5 {
		t.Errorf("error rate = %g, want 0.5 (429, 500 and a failed check out of 6)", got)
	}
	if got := errorRate(0, 0); got != 0 {
		t.Errorf("error rate of nothing = %g, want 0", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, program has %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestPassPercentile(t *testing.T) {
	// Three passes of 20; each pass's median is its 10th value.
	var lat []float64
	for _, base := range []float64{100, 300, 200} {
		for i := 0; i < 20; i++ {
			lat = append(lat, base+float64(i))
		}
	}
	if got := passPercentile(lat, 20, 50); got != 209 {
		t.Errorf("median of per-pass medians = %g, want 209", got)
	}
	// p90 of a 20-sample pass leaves 2 beyond, so all 60 samples are
	// used: rank 54 of the sorted set is 313.
	if got := passPercentile(lat, 20, 90); got != 313 {
		t.Errorf("p90 over all samples = %g, want 313", got)
	}
}
