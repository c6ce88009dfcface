package verify

// Exact goldens of every hierarchy's full statistics block. The figure
// and scheme goldens allow a 2% drift and the attribution golden covers a
// single program; these pin every memsys.Stats counter, with no
// tolerance, on all 14 workloads at scale 1 (functional replay) plus four
// seeded random streams: testdata/cpp_stats_golden.json for CPP and
// testdata/hier_stats_golden.json for the other hierarchies and the
// compressor variants of BCC. Any change to what a hierarchy stores,
// moves or counts shows up here. Intended changes regenerate the files
// with
//
//	go test ./internal/verify -run StatsGolden -update
//
// and their diff becomes part of the review.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/sim"
	"cppcache/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the statistics goldens under testdata/ from the current hierarchies")

// goldenStreamOps is the length of each seeded random stream.
const goldenStreamOps = 20000

// hierGoldenConfigs are the hierarchies pinned by hier_stats_golden.json:
// every configuration but CPP, and BCC under each non-default scheme.
var hierGoldenConfigs = []string{"BC", "BCC", "BCC@cpack", "BCC@fpc", "BCC@bdi", "HAC", "BCP", "VC", "LCC"}

// goldenStats runs the named configuration on every pinned input and
// returns its final statistics keyed by input name, each prefixed with
// prefix.
func goldenStats(t *testing.T, config, prefix string, out map[string]memsys.Stats) {
	t.Helper()
	lat := memsys.DefaultLatencies()
	for _, name := range workload.Names() {
		bm, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunFunctional(bm.Build(1), config, lat)
		if err != nil {
			t.Fatal(err)
		}
		out[prefix+name] = res.Mem
	}
	for _, seed := range Seeds(1, 4) {
		s := RandomStream(seed, goldenStreamOps)
		m := mem.New()
		sys, err := sim.NewSystem(config, m, lat)
		if err != nil {
			t.Fatal(err)
		}
		if d := Check(sys, m, s, Options{}); d != nil {
			t.Fatalf("%v", d)
		}
		out[fmt.Sprintf("%srandom.seed%d", prefix, seed)] = *sys.Stats()
	}
}

// checkStatsGolden compares stats with testdata/file, rewriting the file
// first under -update, and reports every drifted entry.
func checkStatsGolden(t *testing.T, file string, stats map[string]memsys.Stats) {
	t.Helper()
	got, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var pinned map[string]memsys.Stats
	if err := json.Unmarshal(want, &pinned); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if p, ok := pinned[name]; !ok {
			t.Errorf("%s: not pinned; rerun with -update if intended", name)
		} else if st := stats[name]; st != p {
			t.Errorf("%s: stats drifted\n got  %+v\n want %+v", name, st, p)
		}
	}
	t.Errorf("statistics differ from %s; rerun with -update only if the change is intended", path)
}

func TestCPPStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 14 workloads")
	}
	stats := map[string]memsys.Stats{}
	goldenStats(t, "CPP", "", stats)
	checkStatsGolden(t, "cpp_stats_golden.json", stats)
}

// TestHierarchyStatsGolden pins the hierarchies CPP is compared against,
// keyed "config/input".
func TestHierarchyStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 14 workloads on every hierarchy")
	}
	stats := map[string]memsys.Stats{}
	for _, config := range hierGoldenConfigs {
		goldenStats(t, config, config+"/", stats)
	}
	checkStatsGolden(t, "hier_stats_golden.json", stats)
}
