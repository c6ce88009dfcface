package cppcache

// Per-scheme golden regression pinning: the headline BCC-vs-BC traffic
// metrics of every registered compression scheme, across all 14
// workloads, are pinned to testdata/golden_schemes.json. The simulator is
// fully deterministic, so drift here means the modelled behaviour of a
// codec or the bus accounting changed — intended changes regenerate the
// file with
//
//	go test -run TestGoldenSchemes -update-schemes
//
// and the diff of golden_schemes.json becomes part of the review.

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateSchemes = flag.Bool("update-schemes", false, "rewrite testdata/golden_schemes.json from current simulation results")

// schemesGoldenTolerance is the allowed relative drift per metric; see
// internal/experiments/golden_test.go for rationale.
const schemesGoldenTolerance = 0.02

type schemeGoldenEntry struct {
	TrafficWords float64 `json:"traffic_words"`
	TrafficRatio float64 `json:"traffic_ratio"` // vs uncompressed BC
}

type schemesGoldenFile struct {
	Scale int `json:"scale"`
	// Baseline is the uncompressed BC off-chip traffic per workload.
	Baseline map[string]float64 `json:"baseline_bc_traffic_words"`
	// Schemes maps scheme -> workload -> pinned metrics.
	Schemes map[string]map[string]schemeGoldenEntry `json:"schemes"`
}

// schemesGoldenResults runs every workload on BC and on BCC under each
// registered scheme (functional mode: traffic and misses are exact).
func schemesGoldenResults(t *testing.T, scale int) schemesGoldenFile {
	t.Helper()
	gf := schemesGoldenFile{
		Scale:    scale,
		Baseline: map[string]float64{},
		Schemes:  map[string]map[string]schemeGoldenEntry{},
	}
	for _, scheme := range Compressors() {
		gf.Schemes[scheme] = map[string]schemeGoldenEntry{}
	}
	for _, bench := range Benchmarks() {
		base, _, err := Run(context.Background(), bench, BC, Options{Scale: scale, FunctionalOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		gf.Baseline[bench] = base.MemTrafficWords
		for _, scheme := range Compressors() {
			r, _, err := Run(context.Background(), bench, BCC, Options{Scale: scale, FunctionalOnly: true, Compressor: scheme})
			if err != nil {
				t.Fatal(err)
			}
			gf.Schemes[scheme][bench] = schemeGoldenEntry{
				TrafficWords: r.MemTrafficWords,
				TrafficRatio: r.MemTrafficWords / base.MemTrafficWords,
			}
		}
	}
	return gf
}

// approx reports |got-want| within the golden tolerance (relative, with
// an absolute floor for near-zero values).
func approx(got, want float64) bool {
	return math.Abs(got-want) <= schemesGoldenTolerance*math.Max(math.Abs(want), 0.05)
}

func TestGoldenSchemes(t *testing.T) {
	const scale = 1
	got := schemesGoldenResults(t, scale)
	path := filepath.Join("testdata", "golden_schemes.json")

	if *updateSchemes {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
		t.Fatalf("%v (regenerate with -update-schemes)", err)
	}
	var want schemesGoldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Scale != scale {
		t.Fatalf("golden file pinned at scale %d, test runs scale %d", want.Scale, scale)
	}

	// Field-by-field diff, both directions: every pinned value must match
	// the current run, and every current value must be pinned.
	for bench, w := range want.Baseline {
		g, ok := got.Baseline[bench]
		if !ok {
			t.Errorf("baseline/%s: missing from current results", bench)
			continue
		}
		if !approx(g, w) {
			t.Errorf("baseline/%s = %.1f, golden %.1f; if intended, rerun with -update-schemes", bench, g, w)
		}
	}
	for bench := range got.Baseline {
		if _, ok := want.Baseline[bench]; !ok {
			t.Errorf("baseline/%s: present in results but not pinned; rerun with -update-schemes", bench)
		}
	}
	for scheme, benches := range want.Schemes {
		for bench, w := range benches {
			g, ok := got.Schemes[scheme][bench]
			if !ok {
				t.Errorf("%s/%s: missing from current results", scheme, bench)
				continue
			}
			if !approx(g.TrafficWords, w.TrafficWords) {
				t.Errorf("%s/%s traffic_words = %.1f, golden %.1f; if intended, rerun with -update-schemes",
					scheme, bench, g.TrafficWords, w.TrafficWords)
			}
			if !approx(g.TrafficRatio, w.TrafficRatio) {
				t.Errorf("%s/%s traffic_ratio = %.4f, golden %.4f; if intended, rerun with -update-schemes",
					scheme, bench, g.TrafficRatio, w.TrafficRatio)
			}
		}
	}
	for scheme, benches := range got.Schemes {
		for bench := range benches {
			if _, ok := want.Schemes[scheme][bench]; !ok {
				t.Errorf("%s/%s: present in results but not pinned; rerun with -update-schemes", scheme, bench)
			}
		}
	}

	// Independent of the exact pinned values, the structural facts must
	// hold: every scheme compresses relative to BC on every workload
	// (ratio in (0, 1]), and the paper's scheme sits in [0.5, 1] — each
	// word moves one or two halves, never less.
	for scheme, benches := range got.Schemes {
		for bench, e := range benches {
			if e.TrafficRatio <= 0 || e.TrafficRatio > 1 {
				t.Errorf("%s/%s ratio %.4f outside (0, 1]", scheme, bench, e.TrafficRatio)
			}
		}
		if scheme == DefaultCompressor() {
			for bench, e := range benches {
				if e.TrafficRatio < 0.5 {
					t.Errorf("paper/%s ratio %.4f below the half-word floor", bench, e.TrafficRatio)
				}
			}
		}
	}
}
