package verify

// Every invariant the harness asserts has a test here demonstrating that a
// deliberately injected fault is caught — otherwise a checker could be
// vacuously green. Faults are injected three ways: wrapping the System
// (wrong load value, dropped write), mutating live state through
// Options.Hook (counter rollback, bus counter skew, CPP corruption via
// core.(*Hierarchy).CorruptForTest), or calling a checker directly with a
// broken input (codec, occupancy report).

import (
	"strings"
	"testing"

	"cppcache/internal/compress"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/sim"
)

// mustSystem builds a fresh config over a fresh memory.
func mustSystem(t *testing.T, config string) (memsys.System, *mem.Memory) {
	t.Helper()
	m := mem.New()
	sys, err := sim.NewSystem(config, m, memsys.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	return sys, m
}

// requireDivergence asserts d fired with the expected invariant.
func requireDivergence(t *testing.T, d *Divergence, inv string) {
	t.Helper()
	if d == nil {
		t.Fatalf("injected %s fault was not detected", inv)
	}
	if d.Invariant != inv {
		t.Fatalf("injected %s fault reported as %s: %v", inv, d.Invariant, d)
	}
}

// --- oracle-value -----------------------------------------------------------

func TestOracleValueCatchesWrongLoad(t *testing.T) {
	for _, config := range []string{"BC", "CPP"} {
		sys, m := mustSystem(t, config)
		wrapped := &flipSystem{System: sys, n: 40}
		d := Check(wrapped, m, RandomStream(5, 1000), Options{})
		requireDivergence(t, d, InvOracleValue)
		if d.Step >= 1000 {
			t.Fatalf("divergence reported at end of run, want mid-stream: %v", d)
		}
	}
}

// --- compress-roundtrip -----------------------------------------------------

func TestRoundtripCatchesBrokenDecompressor(t *testing.T) {
	badDecomp := func(c compress.Compressed, a mach.Addr) mach.Word {
		return compress.Decompress(c, a) ^ 1
	}
	if err := CheckRoundtrip(42, 0x1000, nil, badDecomp); err == nil {
		t.Fatal("lossy decompressor not detected")
	} else if !strings.Contains(err.Error(), InvCompressRoundtrip) {
		t.Fatalf("wrong invariant name in %v", err)
	}
	// A codec that refuses a compressible value disagrees with Compressible.
	badComp := func(v mach.Word, a mach.Addr) (compress.Compressed, bool) {
		return 0, false
	}
	if err := CheckRoundtrip(42, 0x1000, badComp, nil); err == nil {
		t.Fatal("compressibility disagreement not detected")
	}
	// Sanity: the production codec passes on all classes.
	for _, v := range []mach.Word{0, 42, ^mach.Word(0), 16383, 0x1000_0040, 0xDEAD_BEEF} {
		if err := CheckRoundtrip(v, 0x1000_0000, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// --- stats-monotonic --------------------------------------------------------

func TestMonotonicCatchesCounterRollback(t *testing.T) {
	sys, m := mustSystem(t, "BC")
	opt := Options{Hook: func(step int, s memsys.System) {
		if step == 200 {
			s.Stats().L1.Accesses -= 10
		}
	}}
	d := Check(sys, m, RandomStream(6, 1000), opt)
	requireDivergence(t, d, InvStatsMonotonic)
}

func TestMonotonicCatchesMissesOverAccesses(t *testing.T) {
	prev, cur := &memsys.Stats{}, &memsys.Stats{}
	cur.L1.Accesses, cur.L1.Misses = 5, 6
	if err := CheckMonotonic(prev, cur); err == nil {
		t.Fatal("misses > accesses not detected")
	}
}

// --- occupancy --------------------------------------------------------------

func TestOccupancyCatchesOverCapacity(t *testing.T) {
	good := []memsys.Occupancy{{Level: "L1", Lines: 128, LineCap: 128, Halves: 4096, HalfCap: 4096}}
	if err := CheckOccupancy(good); err != nil {
		t.Fatal(err)
	}
	overLines := []memsys.Occupancy{{Level: "L1", Lines: 129, LineCap: 128, Halves: 0, HalfCap: 4096}}
	if err := CheckOccupancy(overLines); err == nil {
		t.Fatal("line over-capacity not detected")
	}
	// The CPP failure mode: affiliated words squeezed in past the freed
	// half-slots would overflow the half-word budget.
	overHalves := []memsys.Occupancy{{Level: "L2", Lines: 100, LineCap: 128, Halves: 4097, HalfCap: 4096}}
	if err := CheckOccupancy(overHalves); err == nil {
		t.Fatal("half-word over-capacity not detected")
	}
}

// corrupter is the fault-injection hook core.(*Hierarchy) exposes.
type corrupter interface {
	CorruptForTest(kind string) bool
}

// corruptOnce flips CPP-internal state after enough stream has run to
// populate affiliated words, returning a hook for Options.
func corruptOnce(t *testing.T, kind string, after int, done *bool) func(int, memsys.System) {
	t.Helper()
	return func(step int, sys memsys.System) {
		if *done || step < after {
			return
		}
		c, ok := sys.(corrupter)
		if !ok {
			t.Fatalf("%s does not expose CorruptForTest", sys.Name())
		}
		*done = c.CorruptForTest(kind)
	}
}

// --- aff-mirror -------------------------------------------------------------

func TestAffMirrorCatchesCorruptedAffWord(t *testing.T) {
	sys, m := mustSystem(t, "CPP")
	var done bool
	opt := Options{DeepEvery: 1, Hook: corruptOnce(t, "aff-word", 400, &done)}
	d := Check(sys, m, RandomStream(9, 1500), opt)
	if !done {
		t.Fatal("stream produced no affiliated words to corrupt; pick another seed")
	}
	requireDivergence(t, d, InvAffMirror)
}

// --- structural -------------------------------------------------------------

func TestStructuralCatchesOrphanAAFlag(t *testing.T) {
	sys, m := mustSystem(t, "CPP")
	var done bool
	opt := Options{DeepEvery: 1, Hook: corruptOnce(t, "aa-orphan", 400, &done)}
	d := Check(sys, m, RandomStream(9, 1500), opt)
	if !done {
		t.Fatal("stream produced no uncompressed primary word to orphan; pick another seed")
	}
	requireDivergence(t, d, InvStructural)
}

// TestStructuralCatchesFlagOverflow covers the failure mode of bitmask
// flags: a PA/VCP/AA bit at or above the line's word count names a slot
// the frame does not have.
func TestStructuralCatchesFlagOverflow(t *testing.T) {
	sys, m := mustSystem(t, "CPP")
	var done bool
	opt := Options{DeepEvery: 1, Hook: corruptOnce(t, "flag-overflow", 400, &done)}
	d := Check(sys, m, RandomStream(9, 1500), opt)
	if !done {
		t.Fatal("no resident line to corrupt; pick another seed")
	}
	requireDivergence(t, d, InvStructural)
	if !strings.Contains(d.Detail, "past the line's") {
		t.Errorf("divergence %q is not the flag-overflow check", d.Detail)
	}
}

// --- traffic-accounting -----------------------------------------------------

func TestTrafficCatchesSkewedBusCounter(t *testing.T) {
	sys, m := mustSystem(t, "BC")
	opt := Options{DeepEvery: 16, Hook: func(step int, s memsys.System) {
		if step == 300 {
			s.Stats().MemReadHalves++ // phantom half-word on the bus
		}
	}}
	d := Check(sys, m, RandomStream(4, 1000), opt)
	requireDivergence(t, d, InvTrafficAccounting)
}

func TestTrafficCatchesOrphanL2Access(t *testing.T) {
	sys, m := mustSystem(t, "CPP")
	opt := Options{DeepEvery: 16, Hook: func(step int, s memsys.System) {
		if step == 300 {
			s.Stats().L2.Accesses++ // an L2 probe no L1 miss explains
		}
	}}
	d := Check(sys, m, RandomStream(4, 1000), opt)
	requireDivergence(t, d, InvTrafficAccounting)
}

// --- drain-conservation -----------------------------------------------------

// dropWriteSystem swallows the Nth write without telling anyone — the
// classic lost-update bug a write-back path can have.
type dropWriteSystem struct {
	memsys.System
	n      int
	writes int
}

func (d *dropWriteSystem) Write(a mach.Addr, v mach.Word) int {
	d.writes++
	if d.writes == d.n {
		return 1
	}
	return d.System.Write(a, v)
}

func (d *dropWriteSystem) Drain() {
	if dr, ok := d.System.(drainer); ok {
		dr.Drain()
	}
}

func TestDrainConservationCatchesLostWrite(t *testing.T) {
	for _, config := range []string{"BC", "CPP"} {
		sys, m := mustSystem(t, config)
		wrapped := &dropWriteSystem{System: sys, n: 12}
		// Writes to distinct addresses, never read back: only the end-of-run
		// conservation sweep can notice one went missing.
		s := &Stream{Name: "distinct-writes"}
		for i := 0; i < 64; i++ {
			s.Ops = append(s.Ops, Op{
				Write: true,
				Addr:  mach.Addr(0x2000_0000 + i*4),
				Val:   mach.Word(100 + i),
			})
		}
		d := Check(wrapped, m, s, Options{})
		requireDivergence(t, d, InvDrainConservation)
		if d.Step != len(s.Ops) {
			t.Fatalf("%s: conservation fault at step %d, want end of run %d", config, d.Step, len(s.Ops))
		}
	}
}
