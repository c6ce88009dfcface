package experiments

import (
	"strings"
	"testing"
)

// twoBench keeps the suite tests fast.
func twoBench() Options {
	return Options{Scale: 1, Benchmarks: []string{"olden.treeadd", "olden.health"}}
}

func TestOptionsDefaults(t *testing.T) {
	opt := Options{}.withDefaults()
	if opt.Scale == 0 || len(opt.Benchmarks) != 14 || opt.Workers == 0 {
		t.Errorf("withDefaults() = %+v", opt)
	}
}

func TestCompressibilityFractionsSum(t *testing.T) {
	s := NewSuite(twoBench())
	tab, err := s.Compressibility()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		sum := tab.Get(r, "small") + tab.Get(r, "pointer") + tab.Get(r, "incompressible")
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %v", r, sum)
		}
	}
}

func TestSharedRunsAcrossFigures(t *testing.T) {
	// Figures 10-13 must reuse the same cached runs: generating all four
	// must not change any cell of the first.
	s := NewSuite(twoBench())
	t10a, err := s.MemoryTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecutionTime(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CacheMisses(1); err != nil {
		t.Fatal(err)
	}
	t10b, err := s.MemoryTraffic()
	if err != nil {
		t.Fatal(err)
	}
	for i := range t10a.Rows {
		for j := range t10a.Cols {
			if t10a.Cells[i][j] != t10b.Cells[i][j] {
				t.Fatalf("cached results changed: %v vs %v", t10a.Cells[i][j], t10b.Cells[i][j])
			}
		}
	}
}

func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := NewSuite(twoBench())

	t10, err := s.MemoryTraffic()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"olden.treeadd", "olden.health"} {
		if t10.Get(r, "BC") != 1.0 {
			t.Errorf("%s: BC traffic not normalised", r)
		}
		if bcc := t10.Get(r, "BCC"); bcc >= 1.0 {
			t.Errorf("%s: BCC traffic %v >= BC", r, bcc)
		}
		if cpp := t10.Get(r, "CPP"); cpp >= 1.0 {
			t.Errorf("%s: CPP traffic %v >= BC (the paper's headline)", r, cpp)
		}
	}

	t11, err := s.ExecutionTime()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"olden.treeadd", "olden.health"} {
		if bc, bcc := t11.Get(r, "BC"), t11.Get(r, "BCC"); bc != bcc {
			t.Errorf("%s: BC (%v) and BCC (%v) must have identical timing", r, bc, bcc)
		}
		if cpp := t11.Get(r, "CPP"); cpp > 1.05 {
			t.Errorf("%s: CPP execution %v well above BC", r, cpp)
		}
	}
}

func TestCacheMissesRejectsBadLevel(t *testing.T) {
	s := NewSuite(twoBench())
	if _, err := s.CacheMisses(3); err == nil {
		t.Error("level 3 accepted")
	}
}

func TestMissImportance(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: doubles the runs")
	}
	s := NewSuite(Options{Scale: 1, Benchmarks: []string{"olden.treeadd"}})
	tab, err := s.MissImportance()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"BC", "CPP"} {
		f := tab.Get("olden.treeadd", c)
		if f <= 0 || f >= 1 {
			t.Errorf("%s: Fraction_enhanced = %v outside (0,1)", c, f)
		}
	}
	if tab.Get("olden.treeadd", "BC") != tab.Get("olden.treeadd", "BCC") {
		t.Error("BC and BCC importance must match")
	}
}

func TestReadyQueue(t *testing.T) {
	s := NewSuite(Options{Scale: 1, Benchmarks: []string{"olden.treeadd"}})
	tab, err := s.ReadyQueue()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Get("olden.treeadd", "HAC") <= 0 || tab.Get("olden.treeadd", "CPP") <= 0 {
		t.Error("queue lengths should be positive")
	}
}

func TestInstructionMix(t *testing.T) {
	s := NewSuite(twoBench())
	tab, err := s.InstructionMix()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if tab.Get(r, "load") <= 0 || tab.Get(r, "total(k)") <= 0 {
			t.Errorf("%s: empty mix", r)
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	s := NewSuite(Options{Scale: 1, Benchmarks: []string{"nope"}})
	if _, err := s.Compressibility(); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := s.MemoryTraffic(); err == nil {
		t.Error("unknown benchmark accepted by runs")
	}
}

func TestBaselineTable(t *testing.T) {
	s := BaselineTable()
	for _, want := range []string{"4 issue", "bimod, 2048", "8 entries", "100 cycles"} {
		if !strings.Contains(s, want) {
			t.Errorf("baseline table missing %q", want)
		}
	}
}
