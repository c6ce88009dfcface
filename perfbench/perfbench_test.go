package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The self-test runs every workload at a tiny size, from the repository
// root (the goldens are read from their repository paths).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tinyScope shrinks every workload to a few seconds of work.
func tinyScope() scope {
	sc := fullScope()
	sc.benchmarks = []string{"olden.mst", "olden.power"}
	sc.bigScale = 2
	sc.streams = 1
	sc.streamOps = 3000
	sc.obsProgs = []string{"olden.power", "spec95.129.compress"}
	sc.setupReps, sc.setupSecs = 2, 0
	sc.minRequests, sc.minTurnarounds = 1, 1
	return sc
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs one workload at tiny size and parses its two output lines.
func runTiny(t *testing.T, name string, traced bool, sc scope) (result, map[string]any) {
	t.Helper()
	b := newBench(name, 7, 0.01, traced, sc)
	if err := workloads[name](b); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := b.writeChromeTrace(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	report, res, err := b.finish()
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal([]byte(res), &r); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Report map[string]any `json:"report"`
	}
	if err := json.Unmarshal([]byte(report), &rep); err != nil {
		t.Fatal(err)
	}
	return r, rep.Report
}

// Every declared metric prints, with its declared unit, and nothing else;
// a clean tiny run fails nothing.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	d := readDeclared(t)
	for _, name := range []string{"figures", "traffic", "observatory"} {
		for _, traced := range []bool{false, true} {
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			r, rep := runTiny(t, name, traced, tinyScope())
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					name, traced, r.Correct, r.Attempted, r.Failed, rep["failures"])
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
			if rep["sim_digest"] == "" {
				t.Errorf("%s traced=%v: no sim_digest", name, traced)
			}
		}
	}
}

// Each output check fires on a doctored input: a wrong golden value, a
// corrupted stream load and a mismatched memo-hit digest.
func TestChecksFire(t *testing.T) {
	golden, err := os.ReadFile(fullScope().goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(golden), `"traffic_reduction": 0.4001`, `"traffic_reduction": 0.6001`, 1)
	if doctored == string(golden) {
		t.Fatal("golden.json no longer has the olden.mst value this test doctors")
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		workload string
		doctor   func(*scope)
	}{
		{"figures", func(sc *scope) { sc.goldenPath = path }},
		{"traffic", func(sc *scope) { sc.tamper = "stream" }},
		{"observatory", func(sc *scope) { sc.tamper = "digest" }},
	}
	for _, c := range cases {
		sc := tinyScope()
		c.doctor(&sc)
		r, rep := runTiny(t, c.workload, false, sc)
		if r.Failed == 0 || r.Correct {
			t.Errorf("%s: doctored input not caught: attempted=%d failed=%d", c.workload, r.Attempted, r.Failed)
		}
		if ff, _ := rep["fail_frac"].(float64); ff <= 0 {
			t.Errorf("%s: fail_frac = %v, want > 0", c.workload, rep["fail_frac"])
		}
	}
}

// A fixed job's latency sample is its mean over the run's passes, one
// sample a job, so a percentile does not depend on how many passes the run
// made.
func TestJobLatenciesAreJobMeans(t *testing.T) {
	b := newBench("traffic", 1, 1, false, tinyScope())
	for _, ms := range []float64{2, 10, 3} {
		b.job("three-passes", ms)
	}
	for _, ms := range []float64{5, 7} {
		b.job("two-passes", ms)
	}
	req, turn := b.latencies()
	sort.Float64s(req)
	if len(req) != 2 || req[0] != 5 || req[1] != 6 {
		t.Errorf("request samples %v, want the job means [5 6]", req)
	}
	if len(turn) != len(req) {
		t.Errorf("%d turnaround samples, want one a job (%d)", len(turn), len(req))
	}
}
