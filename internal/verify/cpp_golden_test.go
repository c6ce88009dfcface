package verify

// Exact golden of the CPP hierarchy's full statistics block. The figure
// and scheme goldens allow a 2% drift and the attribution golden covers a
// single program; this one pins every memsys.Stats counter of CPP, with
// no tolerance, on all 14 workloads at scale 1 (functional replay) plus
// four seeded random streams. Any change to what CPP stores, moves or
// counts shows up here. Intended changes regenerate the file with
//
//	go test ./internal/verify -run TestCPPStatsGolden -update
//
// and the diff of testdata/cpp_stats_golden.json becomes part of the
// review.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/sim"
	"cppcache/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/cpp_stats_golden.json from the current CPP statistics")

// cppGoldenStreamOps is the length of each seeded random stream.
const cppGoldenStreamOps = 20000

// cppGoldenStats runs CPP on every pinned input and returns its final
// statistics keyed by input name.
func cppGoldenStats(t *testing.T) map[string]memsys.Stats {
	t.Helper()
	lat := memsys.DefaultLatencies()
	out := map[string]memsys.Stats{}
	for _, name := range workload.Names() {
		bm, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunFunctional(bm.Build(1), "CPP", lat)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = res.Mem
	}
	for _, seed := range Seeds(1, 4) {
		s := RandomStream(seed, cppGoldenStreamOps)
		m := mem.New()
		sys, err := sim.NewSystem("CPP", m, lat)
		if err != nil {
			t.Fatal(err)
		}
		if d := Check(sys, m, s, Options{}); d != nil {
			t.Fatalf("%v", d)
		}
		out[fmt.Sprintf("random.seed%d", seed)] = *sys.Stats()
	}
	return out
}

func TestCPPStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 14 workloads")
	}
	stats := cppGoldenStats(t)
	got, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "cpp_stats_golden.json")
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
	if !bytes.Equal(got, want) {
		var pinned map[string]memsys.Stats
		if err := json.Unmarshal(want, &pinned); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for name, st := range stats {
			if p, ok := pinned[name]; !ok {
				t.Errorf("%s: not pinned; rerun with -update if intended", name)
			} else if st != p {
				t.Errorf("%s: CPP stats drifted\n got  %+v\n want %+v", name, st, p)
			}
		}
		t.Errorf("CPP statistics differ from %s; rerun with -update only if the change is intended", path)
	}
}
