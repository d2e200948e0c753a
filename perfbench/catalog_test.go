package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metrics the program prints
// in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{
		{"end_to_end", bench.EndToEnd, endToEnd},
		{"per_layer", bench.PerLayer, perLayer},
	} {
		if len(tc.declared) != len(tc.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", tc.kind, len(tc.declared), len(tc.printed))
		}
		printed := map[string]string{}
		for _, m := range tc.printed {
			printed[m.name] = m.unit
		}
		for _, m := range tc.declared {
			unit, ok := printed[m.Name]
			if !ok {
				t.Errorf("%s: %s is declared but not printed", tc.kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s: %s is declared in %s but printed in %s", tc.kind, m.Name, m.Unit, unit)
			}
		}
	}
}

func TestEmitPrintsEveryCatalogMetric(t *testing.T) {
	rep := newReport()
	rep.check(true, "")
	rep.set("wall_s", 1.5)
	var out lineWriter
	if err := rep.emit(&out, endToEnd); err != nil {
		t.Fatal(err)
	}
	var res resultLine
	if err := json.Unmarshal(out.last(), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted != 1 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result = %+v", res)
	}
	if m := res.Metrics["wall_s"]; m.Value != 1.5 || m.Unit != "s" {
		t.Fatalf("wall_s = %+v", m)
	}
}

func TestFailedCheckMakesResultIncorrect(t *testing.T) {
	rep := newReport()
	rep.check(true, "")
	rep.check(false, "expected failure in test")
	var out lineWriter
	if err := rep.emit(&out, endToEnd); err != nil {
		t.Fatal(err)
	}
	var res resultLine
	if err := json.Unmarshal(out.last(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("result = %+v", res)
	}
}

// lineWriter collects output and returns its last line.
type lineWriter struct{ lines [][]byte }

func (w *lineWriter) Write(p []byte) (int, error) {
	w.lines = append(w.lines, append([]byte(nil), p...))
	return len(p), nil
}

func (w *lineWriter) last() []byte { return w.lines[len(w.lines)-1] }
