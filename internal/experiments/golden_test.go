package experiments

// Golden regression pinning: the headline CPP-vs-BC metrics the paper
// reproduction reports (traffic reduction, L1 miss-rate reduction,
// speedup) are pinned to testdata/golden.json. The simulator is fully
// deterministic, so any drift here means a change to the modelled
// behaviour — intended changes regenerate the file with
//
//	go test ./internal/experiments -run TestGolden -update
//
// and the diff of golden.json becomes part of the review.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cppcache/internal/sim"
	"cppcache/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from current results")

// goldenTolerance is the allowed relative drift per metric. Runs are
// deterministic, so this only absorbs harmless cross-platform float
// variation; real model changes move these numbers by far more.
const goldenTolerance = 0.02

type goldenFile struct {
	Scale      int                           `json:"scale"`
	Benchmarks []string                      `json:"benchmarks"`
	Metrics    map[string]map[string]float64 `json:"metrics"`
}

// goldenMetrics computes the pinned CPP-vs-BC headline numbers for each
// benchmark row (including the geomean row).
func goldenMetrics(t *testing.T, s *Suite) map[string]map[string]float64 {
	t.Helper()
	traffic, err := s.MemoryTraffic()
	if err != nil {
		t.Fatal(err)
	}
	time, err := s.ExecutionTime()
	if err != nil {
		t.Fatal(err)
	}
	miss1, err := s.CacheMisses(1)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]float64{}
	for _, row := range traffic.Rows {
		out[row] = map[string]float64{
			"traffic_reduction": 1 - traffic.Get(row, "CPP"),
			"l1_miss_reduction": 1 - miss1.Get(row, "CPP"),
			"speedup":           1 / time.Get(row, "CPP"),
		}
	}
	return out
}

func TestGoldenHeadlineMetrics(t *testing.T) {
	benches := []string{"olden.treeadd", "olden.health", "olden.mst", "olden.perimeter"}
	s := NewSuite(Options{Scale: 1, Benchmarks: benches})
	got := goldenMetrics(t, s)
	path := filepath.Join("testdata", "golden.json")

	if *update {
		gf := goldenFile{Scale: 1, Benchmarks: benches, Metrics: got}
		data, err := json.MarshalIndent(gf, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Scale != s.Options().Scale {
		t.Fatalf("golden file pinned at scale %d, test runs scale %d", want.Scale, s.Options().Scale)
	}
	for row, metrics := range want.Metrics {
		for name, w := range metrics {
			g, ok := got[row][name]
			if !ok {
				t.Errorf("%s/%s: missing from current results", row, name)
				continue
			}
			if math.Abs(g-w) > goldenTolerance*math.Max(math.Abs(w), 0.05) {
				t.Errorf("%s/%s = %.4f, golden %.4f (tolerance %.0f%%); if intended, rerun with -update",
					row, name, g, w, 100*goldenTolerance)
			}
		}
	}
	for row := range got {
		if _, ok := want.Metrics[row]; !ok {
			t.Errorf("%s: present in results but not in golden file; rerun with -update", row)
		}
	}

	// Independent of exact pinned values, the paper's headline direction
	// must hold: CPP moves less off-chip data than BC on the geomean.
	if got["geomean"]["traffic_reduction"] <= 0 {
		t.Errorf("geomean traffic reduction %.4f, want > 0 (CPP must beat BC)",
			got["geomean"]["traffic_reduction"])
	}
}

// TestGoldenTraceTables pins the two tables computed from the traces
// alone, Figure 3 and the instruction mix, exactly: all 14 programs at
// scale 1, rendered as the CSV that cppbench -csv prints. Regenerate
// with
//
//	go test ./internal/experiments -run TestGoldenTraceTables -update
func TestGoldenTraceTables(t *testing.T) {
	s := NewSuite(Options{Scale: 1})
	var got bytes.Buffer
	for _, table := range []func() (*stats.Table, error){s.Compressibility, s.InstructionMix} {
		tb, err := table()
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString("# " + tb.Title + "\n" + tb.CSV())
	}
	path := filepath.Join("testdata", "trace_tables.csv")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("trace tables drifted from %s; if intended, rerun with -update\ngot:\n%s", path, got.Bytes())
	}
}

// TestGoldenTiming pins the OoO core's timing exactly, from one suite
// run over all 14 programs at scale 1 (the runs cppbench -related
// -scale 1 makes):
//
//   - testdata/timing_runs.csv holds every counter of cpu.Result for the
//     168 timing runs: 7 configs at full miss penalties and the paper's 5
//     configs at halved ones;
//   - testdata/timing_tables.csv holds every simulated table that
//     command prints, as the CSV that cppbench -csv prints.
//
// The rounded tables can hide a one-cycle drift; the counters cannot.
// Regenerate with
//
//	go test ./internal/experiments -run TestGoldenTiming -update
func TestGoldenTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: 168 timing runs")
	}
	s := NewSuite(Options{Scale: 1})
	var tables bytes.Buffer
	for _, table := range []func() (*stats.Table, error){
		s.MemoryTraffic, s.ExecutionTime,
		func() (*stats.Table, error) { return s.CacheMisses(1) },
		func() (*stats.Table, error) { return s.CacheMisses(2) },
		s.MissImportance, s.ReadyQueue,
		func() (*stats.Table, error) { return s.RelatedWork("time") },
		func() (*stats.Table, error) { return s.RelatedWork("traffic") },
		s.Energy,
	} {
		tb, err := table()
		if err != nil {
			t.Fatal(err)
		}
		tables.WriteString("# " + tb.Title + "\n" + tb.CSV())
	}

	// MissCycles also counts the ready-queue samples, so it stands for
	// both.
	var runs bytes.Buffer
	runs.WriteString("benchmark,config,halved,cycles,instructions,loads,stores," +
		"branches,mispredicts,icache_accesses,icache_misses,value_mismatches," +
		"miss_cycles,ready_queue_in_miss\n")
	full := append(append([]string(nil), sim.Configs()...), sim.ExtraConfigs()...)
	n := 0
	for _, halved := range []bool{false, true} {
		configs := full
		if halved {
			configs = sim.Configs()
		}
		for _, b := range s.opt.Benchmarks {
			for _, c := range configs {
				r, ok := s.results[runKey{b, c, halved}]
				if !ok {
					t.Fatalf("%s/%s halved=%v: not run by the tables", b, c, halved)
				}
				n++
				u := r.CPU
				fmt.Fprintf(&runs, "%s,%s,%v,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
					b, c, halved, u.Cycles, u.Instructions, u.Loads, u.Stores,
					u.Branches, u.Mispredicts, u.ICacheAccesses, u.ICacheMisses,
					u.ValueMismatches, u.MissCycles, u.ReadyQueueInMiss)
			}
		}
	}
	if n != 168 || len(s.results) != n {
		t.Fatalf("%d runs pinned of %d made, want 168", n, len(s.results))
	}

	for _, g := range []struct {
		name string
		got  []byte
	}{{"timing_runs.csv", runs.Bytes()}, {"timing_tables.csv", tables.Bytes()}} {
		path := filepath.Join("testdata", g.name)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(g.got, want) {
			gl, wl := bytes.Split(g.got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var a, b []byte
				if i < len(gl) {
					a = gl[i]
				}
				if i < len(wl) {
					b = wl[i]
				}
				if !bytes.Equal(a, b) {
					t.Errorf("%s line %d drifted; if intended, rerun with -update\ngot:  %s\nwant: %s",
						path, i+1, a, b)
					break
				}
			}
		}
	}
}
