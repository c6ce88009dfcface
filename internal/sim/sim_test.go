package sim

import (
	"context"
	"errors"
	"testing"

	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/obs"
	"cppcache/internal/workload"
)

func TestConfigs(t *testing.T) {
	want := []string{"BC", "BCC", "HAC", "BCP", "CPP"}
	got := Configs()
	if len(got) != len(want) {
		t.Fatalf("Configs() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Configs()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestNewSystemAll(t *testing.T) {
	names := append(append(Configs(), ExtraConfigs()...), "BCC@fpc", "LCC@bdi",
		CPPVariant(0x2, false), CPPVariant(0x4, true), CPPVariant(1, false))
	for _, name := range names {
		sys, err := NewSystem(name, mem.New(), memsys.DefaultLatencies())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sys.Name() != name {
			t.Errorf("Name() = %s, want %s", sys.Name(), name)
		}
		rebuilt, err := NewSystem(sys.Name(), mem.New(), memsys.DefaultLatencies())
		if err != nil || rebuilt.Name() != name {
			t.Errorf("NewSystem(%q) did not rebuild %s: %v", sys.Name(), name, err)
		}
		sys.Write(0x1000, 7)
		if v, _ := sys.Read(0x1000); v != 7 {
			t.Errorf("%s: read back %d", name, v)
		}
	}
	// Only CPPVariant's spelling of a CPP design is a config name.
	for _, name := range []string{"XYZ", "CPP(mask=0x1)", "CPP(mask=2)", "CPPX"} {
		if _, err := NewSystem(name, mem.New(), memsys.DefaultLatencies()); err == nil {
			t.Errorf("config %q accepted", name)
		}
	}
}

func TestRunMatchesFunctionalStats(t *testing.T) {
	// The pipeline model reorders accesses slightly, but both modes must
	// replay the same loads/stores; spot-check that miss counts agree
	// within a small tolerance for the in-order-friendly BC config.
	bm, err := workload.ByName("olden.treeadd")
	if err != nil {
		t.Fatal(err)
	}
	p := bm.Build(1)
	full, err := Run(p, "BC", memsys.DefaultLatencies(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fun, err := RunFunctional(p, "BC", memsys.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if full.Mem.L1.Accesses != fun.Mem.L1.Accesses {
		t.Errorf("access counts differ: %d vs %d", full.Mem.L1.Accesses, fun.Mem.L1.Accesses)
	}
	ratio := float64(full.Mem.L1.Misses) / float64(fun.Mem.L1.Misses)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("miss counts diverge: pipeline %d vs functional %d", full.Mem.L1.Misses, fun.Mem.L1.Misses)
	}
	if full.CPU.Cycles == 0 || fun.CPU.Cycles != 0 {
		t.Error("cycle accounting wrong between modes")
	}
}

func TestRunAllConfigsVerifiesValues(t *testing.T) {
	// sim.Run fails loudly on any load value mismatch: run every config
	// over a real workload to prove the data paths are sound end-to-end.
	bm, err := workload.ByName("spec95.129.compress")
	if err != nil {
		t.Fatal(err)
	}
	p := bm.Build(1)
	for _, cfg := range Configs() {
		if _, err := Run(p, cfg, memsys.DefaultLatencies(), Options{}); err != nil {
			t.Errorf("%s: %v", cfg, err)
		}
	}
}

func TestRunCPPVariant(t *testing.T) {
	bm, _ := workload.ByName("olden.mst")
	p := bm.Build(1)
	base, err := Run(p, CPPVariant(0x1, true), memsys.DefaultLatencies(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Config != "CPP" {
		t.Errorf("default variant name = %s", base.Config)
	}
	v, err := Run(p, CPPVariant(0x2, false), memsys.DefaultLatencies(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Config != "CPP(mask=0x2)-novictim" {
		t.Errorf("variant name = %s", v.Config)
	}
	if v.Mem.AffPlacements != 0 {
		t.Error("victim placement disabled but placements recorded")
	}
}

func TestBCAndBCCSameTiming(t *testing.T) {
	// §4.1: "BC and BCC have the same performance since BCC only changes
	// the format in which the data is stored and transmitted."
	bm, _ := workload.ByName("olden.perimeter")
	p := bm.Build(1)
	bc, err := Run(p, "BC", memsys.DefaultLatencies(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bcc, err := Run(p, "BCC", memsys.DefaultLatencies(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bc.CPU.Cycles != bcc.CPU.Cycles {
		t.Errorf("BC %d cycles vs BCC %d cycles", bc.CPU.Cycles, bcc.CPU.Cycles)
	}
	if bcc.Mem.MemTrafficWords() >= bc.Mem.MemTrafficWords() {
		t.Errorf("BCC traffic %.0f not below BC %.0f",
			bcc.Mem.MemTrafficWords(), bc.Mem.MemTrafficWords())
	}
}

// TestFillEventsMatchStats: every hierarchy traces one fill-l1 event per
// L1 install (a demand miss, a prefetch- or victim-cache hit, or a CPP
// promotion), and those whose L2 fills only on a demand miss (all but BCP
// and CPP) trace one fill-l2 event per L2 miss.
func TestFillEventsMatchStats(t *testing.T) {
	bm, err := workload.ByName("olden.treeadd")
	if err != nil {
		t.Fatal(err)
	}
	p := bm.Build(1)
	for _, config := range append(Configs(), ExtraConfigs()...) {
		rec := obs.New(obs.Config{Trace: true, TraceCap: 1 << 18})
		res, err := Run(p, config, memsys.DefaultLatencies(), Options{Functional: true, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		if d := rec.TraceDropped(); d != 0 {
			t.Fatalf("%s: the event ring dropped %d events", config, d)
		}
		var fillL1, fillL2 int64
		for _, e := range rec.TraceEvents() {
			switch e.Kind {
			case obs.EvFillL1:
				fillL1++
			case obs.EvFillL2:
				fillL2++
			}
		}
		s := res.Mem
		if want := s.L1.Misses + s.PfBufHitsL1 + s.Promotions; fillL1 != want {
			t.Errorf("%s: %d fill-l1 events, want %d (L1 misses + L1 buffer hits + promotions)", config, fillL1, want)
		}
		if config != "BCP" && config != "CPP" && fillL2 != s.L2.Misses {
			t.Errorf("%s: %d fill-l2 events, want %d (L2 misses)", config, fillL2, s.L2.Misses)
		}
	}
}

// TestCancelMidRun: a run whose context is canceled from inside the
// simulation, at the recorder's first interval snapshot, ends with
// context.Canceled at the next cooperative poll, long before the program
// ends. It covers BC and CPP in functional and pipeline mode.
func TestCancelMidRun(t *testing.T) {
	bm, err := workload.ByName("olden.treeadd")
	if err != nil {
		t.Fatal(err)
	}
	p := bm.Build(1)
	const interval = 5000
	// stopAt runs p and returns the time of its last snapshot: the cycle
	// (the op, in functional mode) at which the run stopped.
	stopAt := func(config string, functional, cancelAtSnapshot bool) (int64, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var last int64
		rec := obs.New(obs.Config{Interval: interval, OnSnapshot: func(s obs.Snapshot) {
			last = s.Cycle
			if cancelAtSnapshot {
				cancel()
			}
		}})
		_, err := Run(p, config, memsys.DefaultLatencies(), Options{Functional: functional, Recorder: rec, Ctx: ctx})
		return last, err
	}
	for _, config := range []string{"BC", "CPP"} {
		for _, functional := range []bool{true, false} {
			end, err := stopAt(config, functional, false)
			if err != nil {
				t.Fatal(err)
			}
			stop, err := stopAt(config, functional, true)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s functional=%v: err = %v, want context.Canceled", config, functional, err)
				continue
			}
			// The functional loop polls every funcCancelCheckEvery ops, so
			// it stops at the first poll past the snapshot. The core polls
			// every cancelCheckEvery scheduler iterations, each of which may
			// skip idle cycles, so only "early" is pinned there.
			if want := int64(interval/funcCancelCheckEvery+1) * funcCancelCheckEvery; functional && stop != want {
				t.Errorf("%s functional: stopped at op %d, want %d", config, stop, want)
			}
			if stop < interval || stop >= end/4 {
				t.Errorf("%s functional=%v: stopped at %d of %d, want in [%d, %d)",
					config, functional, stop, end, interval, end/4)
			}
		}
	}
}
