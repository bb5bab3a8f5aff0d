package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Python: statistics.quantiles(v, n=4) gives [2.75, 5.5, 8.25] for 1..10
// and [1.0, 2.0, 3.0] for [3, 1, 2].
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// baseline is a document with every end-to-end metric at 100 ± 1.
func baseline() *document {
	wd := workloadDoc{Name: "stream-mem", EndToEnd: map[string]metric{}}
	for _, d := range endToEndDefs {
		wd.EndToEnd[d.name] = metric{Value: 100, Unit: d.unit, Q1: 99, Q3: 101, N: 20}
	}
	wd.EndToEnd["fail_ratio"] = metric{Unit: "ratio", N: 1000}
	return &document{Workloads: []workloadDoc{wd}}
}

func with(d *document, name string, m metric) *document {
	d.Workloads[0].EndToEnd[name] = m
	return d
}

func TestCompareVerdicts(t *testing.T) {
	cases := []struct {
		name                    string
		candidate               *document
		regressions, unresolved int
		row                     string // text the offending row must contain
	}{
		{"identical", baseline(), 0, 0, ""},
		{"throughput fell past its bound", with(baseline(), "read_mbps", metric{Value: 70, Q1: 69, Q3: 71}), 1, 0, "read_mbps"},
		{"throughput rose", with(baseline(), "read_mbps", metric{Value: 140, Q1: 139, Q3: 141}), 0, 0, ""},
		{"latency rose past its bound", with(baseline(), "write_p50_us", metric{Value: 130, Q1: 129, Q3: 131}), 1, 0, "write_p50_us"},
		{"latency fell", with(baseline(), "write_p50_us", metric{Value: 60, Q1: 59, Q3: 61}), 0, 0, ""},
		{"inside the bound but too noisy to call", with(baseline(), "read_cpu_ns_per_byte", metric{Value: 104, Q1: 80, Q3: 130}), 0, 1, verdictUnresolved},
		{"any rise of fail_ratio", with(baseline(), "fail_ratio", metric{Value: 0.001}), 1, 0, "fail_ratio"},
		{"workload missing", &document{}, 1, 0, "missing"},
	}
	for _, c := range cases {
		var out strings.Builder
		regressions, unresolved := compareDocs(baseline(), c.candidate, &out)
		if regressions != c.regressions || unresolved != c.unresolved {
			t.Errorf("%s: %d regressions %d unresolved, want %d and %d\n%s", c.name, regressions, unresolved, c.regressions, c.unresolved, out.String())
		}
		if c.row != "" {
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.Contains(line, c.row) && (strings.Contains(line, verdictRegression) || strings.Contains(line, verdictUnresolved)) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no flagged row mentions %q\n%s", c.name, c.row, out.String())
			}
		}
	}
}

func TestCompareExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, d *document) string {
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", baseline())
	same := write("same.json", baseline())
	worse := write("worse.json", with(baseline(), "write_mbps", metric{Value: 50, Q1: 49, Q3: 51}))
	var out, errOut strings.Builder
	if code := run([]string{"-compare", a, same}, &out, &errOut); code != 0 {
		t.Errorf("identical documents: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if code := run([]string{"-compare", a, worse}, &out, &errOut); code != 1 {
		t.Errorf("regressed document: exit %d", code)
	}
	if code := run([]string{"-compare", a, filepath.Join(dir, "absent.json")}, &out, &errOut); code != 2 {
		t.Errorf("unreadable document: exit %d", code)
	}
	if code := run([]string{"-compare", a}, &out, &errOut); code == 0 {
		t.Error("one document: exit 0")
	}
}

// BENCHMARK.json repeats the benchmark's tables for the driver; the two
// must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(contract.Workloads), len(workloads))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q)", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	// fail_ratio is 0 on a healthy tree and the contract wants metrics that
	// never are; it travels as failed/attempted instead.
	var defs []metricDef
	for _, d := range endToEndDefs {
		if d.name != "fail_ratio" {
			defs = append(defs, d)
		}
	}
	if len(contract.EndToEnd) != len(defs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, want %d", len(contract.EndToEnd), len(defs))
	}
	for i, m := range contract.EndToEnd {
		if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the benchmark %+v", i, m, d)
		}
	}
	layer := append(append([]metricDef(nil), tracedDefs...), rungDefs...)
	if len(contract.PerLayer) != len(layer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, want %d", len(contract.PerLayer), len(layer))
	}
	for i, m := range contract.PerLayer {
		if d := layer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the benchmark %+v", i, m, d)
		}
	}
}
