package verify

// The differential-test battery parameterized over the compressor zoo:
// every registered scheme runs the full oracle/invariant harness clean on
// the configurations that accept it (BCC and LCC), and each fault class
// is re-injected per scheme to prove the checkers stay sharp when the
// codec changes underneath them. The CPP-specific invariants (affiliated
// mirrors, structural half-slot rules) are exercised in
// invariants_test.go only: CPP is architecturally tied to the paper's
// per-word codec, so there is nothing scheme-shaped to parameterize.

import (
	"slices"
	"strings"
	"testing"

	"cppcache/internal/compress"
	"cppcache/internal/isa"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/sim"
	"cppcache/internal/workload"
)

// schemeConfigs enumerates every (config, scheme) pair the simulator
// accepts: each compressing config crossed with each registered scheme.
func schemeConfigs() []string {
	var out []string
	for _, config := range sim.CompressorConfigs() {
		for _, scheme := range compress.Schemes() {
			out = append(out, sim.WithCompressor(config, scheme))
		}
	}
	return out
}

// nonDefaultSchemes returns the registered schemes other than the paper's.
func nonDefaultSchemes() []string {
	var out []string
	for _, s := range compress.Schemes() {
		if s != compress.Default().Name() {
			out = append(out, s)
		}
	}
	return out
}

// TestCheckConfigCleanPerScheme runs the whole harness — oracle loads,
// line roundtrips through the live codec, occupancy/tag-metadata bounds,
// scheme-aware traffic envelopes, drain conservation — clean on every
// accepted config x scheme pair.
func TestCheckConfigCleanPerScheme(t *testing.T) {
	for _, config := range schemeConfigs() {
		config := config
		t.Run(config, func(t *testing.T) {
			t.Parallel()
			for _, seed := range Seeds(100, 2) {
				d, err := CheckConfig(config, RandomStream(seed, 2000), Options{DeepEvery: 64})
				if err != nil {
					t.Fatal(err)
				}
				if d != nil {
					t.Fatalf("seed %d: %v", seed, d)
				}
			}
		})
	}
}

// TestSchemeRejectedConfigs pins the validation matrix: non-default
// schemes are refused by CPP (wedded to the per-word VC-flag codec) and
// by the configurations that never compress transfers.
func TestSchemeRejectedConfigs(t *testing.T) {
	for _, scheme := range nonDefaultSchemes() {
		for _, config := range []string{"CPP", "BC", "HAC", "BCP", "VC"} {
			if err := sim.ValidateCompressor(config, scheme); err == nil {
				t.Errorf("%s@%s accepted, want rejection", config, scheme)
			}
			if _, err := CheckConfig(config+"@"+scheme, RandomStream(1, 10), Options{}); err == nil {
				t.Errorf("CheckConfig(%s@%s) accepted, want error", config, scheme)
			}
		}
		// And the accepting side of the matrix, for contrast.
		for _, config := range sim.CompressorConfigs() {
			if err := sim.ValidateCompressor(config, scheme); err != nil {
				t.Errorf("%s@%s rejected: %v", config, scheme, err)
			}
		}
	}
	if _, err := CheckConfig("BCC@nonesuch", RandomStream(1, 10), Options{}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestOracleValueCatchesWrongLoadPerScheme re-injects the wrong-load
// fault under every scheme-qualified config.
func TestOracleValueCatchesWrongLoadPerScheme(t *testing.T) {
	for _, config := range schemeConfigs() {
		sys, m := mustSystem(t, config)
		wrapped := &flipSystem{System: sys, n: 40}
		d := Check(wrapped, m, RandomStream(5, 1000), Options{})
		requireDivergence(t, d, InvOracleValue)
	}
}

// TestMonotonicCatchesRollbackPerScheme re-injects the counter-rollback
// fault under every scheme-qualified config.
func TestMonotonicCatchesRollbackPerScheme(t *testing.T) {
	for _, config := range schemeConfigs() {
		sys, m := mustSystem(t, config)
		opt := Options{Hook: func(step int, s memsys.System) {
			if step == 200 {
				s.Stats().L1.Accesses -= 10
			}
		}}
		d := Check(sys, m, RandomStream(6, 1000), opt)
		requireDivergence(t, d, InvStatsMonotonic)
	}
}

// TestTrafficCatchesSkewedBusCounterPerScheme skews the bus counter far
// past any scheme's worst-case envelope and demands the (widened,
// scheme-aware) traffic rule still fires.
func TestTrafficCatchesSkewedBusCounterPerScheme(t *testing.T) {
	for _, config := range schemeConfigs() {
		sys, m := mustSystem(t, config)
		opt := Options{DeepEvery: 16, Hook: func(step int, s memsys.System) {
			if step == 300 {
				// Far beyond WorstCaseHalves(words) x misses for any scheme.
				s.Stats().MemReadHalves += 1 << 40
			}
		}}
		d := Check(sys, m, RandomStream(4, 1000), opt)
		requireDivergence(t, d, InvTrafficAccounting)
	}
}

// TestDrainConservationCatchesLostWritePerScheme re-injects the
// swallowed-write fault under every scheme-qualified config.
func TestDrainConservationCatchesLostWritePerScheme(t *testing.T) {
	for _, config := range schemeConfigs() {
		sys, m := mustSystem(t, config)
		wrapped := &dropWriteSystem{System: sys, n: 12}
		s := &Stream{Name: "distinct-writes"}
		for i := 0; i < 64; i++ {
			s.Ops = append(s.Ops, Op{Write: true, Addr: mach.Addr(0x2000_0000 + i*4), Val: mach.Word(100 + i)})
		}
		d := Check(wrapped, m, s, Options{})
		requireDivergence(t, d, InvDrainConservation)
	}
}

// lossyScheme wraps a real Compressor with a decompressor that flips one
// bit — the fault CheckLineRoundtrip exists to catch.
type lossyScheme struct{ compress.Compressor }

func (l lossyScheme) DecompressLine(enc compress.Encoded, base mach.Addr, out []mach.Word) error {
	if err := l.Compressor.DecompressLine(enc, base, out); err != nil {
		return err
	}
	if len(out) > 0 {
		out[0] ^= 1
	}
	return nil
}

// sizeLyingScheme wraps a real Compressor with a size function that
// disagrees with the emitted image.
type sizeLyingScheme struct{ compress.Compressor }

func (s sizeLyingScheme) LineHalves(words []mach.Word, base mach.Addr) int {
	return s.Compressor.LineHalves(words, base) + 1
}

// TestLineRoundtripCatchesBrokenCodecPerScheme feeds each registered
// scheme, wrapped to be lossy or to misreport its size, through the
// line-level differential oracle.
func TestLineRoundtripCatchesBrokenCodecPerScheme(t *testing.T) {
	words := []mach.Word{0, 1, 0xDEAD_BEEF, 0x1000_0040, 42, 42, 0xFFFF_FFFF, 7}
	base := mach.Addr(0x1000_0040)
	for _, scheme := range compress.Schemes() {
		c, err := compress.Get(scheme)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckLineRoundtrip(c, words, base); err != nil {
			t.Fatalf("%s: clean codec flagged: %v", scheme, err)
		}
		if err := CheckLineRoundtrip(lossyScheme{c}, words, base); err == nil {
			t.Errorf("%s: lossy decompressor not detected", scheme)
		} else if !strings.Contains(err.Error(), InvCompressRoundtrip) {
			t.Errorf("%s: wrong invariant name in %v", scheme, err)
		}
		if err := CheckLineRoundtrip(sizeLyingScheme{c}, words, base); err == nil {
			t.Errorf("%s: size misreport not detected", scheme)
		}
	}
}

// TestOccupancyCompCatchesMetadataOverrun drives the tag-metadata bound
// directly for each scheme: a CompHalves total past Lines x worst case is
// unreachable for a correct hierarchy and must be flagged.
func TestOccupancyCompCatchesMetadataOverrun(t *testing.T) {
	for _, scheme := range compress.Schemes() {
		c, err := compress.Get(scheme)
		if err != nil {
			t.Fatal(err)
		}
		const lines, words = 10, 32
		ok := []memsys.Occupancy{{
			Level: "L2", Lines: lines, LineCap: 128,
			Halves: lines * 2 * words, HalfCap: 128 * 2 * words,
			CompHalves: lines * c.WorstCaseHalves(words),
		}}
		if err := CheckOccupancyComp(ok, c); err != nil {
			t.Fatalf("%s: in-bounds metadata flagged: %v", scheme, err)
		}
		over := []memsys.Occupancy{{
			Level: "L2", Lines: lines, LineCap: 128,
			Halves: lines * 2 * words, HalfCap: 128 * 2 * words,
			CompHalves: lines*c.WorstCaseHalves(words) + 1,
		}}
		if err := CheckOccupancyComp(over, c); err == nil {
			t.Errorf("%s: metadata overrun not detected", scheme)
		}
		negative := []memsys.Occupancy{{Level: "L2", LineCap: 1, HalfCap: 64, CompHalves: -1}}
		if err := CheckOccupancyComp(negative, c); err == nil {
			t.Errorf("%s: negative CompHalves not detected", scheme)
		}
	}
}

// TestWorkloadStreamsPerScheme runs the workload-derived streams (not
// just random ones) through the harness for each non-default scheme on
// BCC, the configuration the paper's traffic studies use.
func TestWorkloadStreamsPerScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("workload streams are slow")
	}
	for _, scheme := range nonDefaultSchemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			s, err := WorkloadStream("olden.mst", 1)
			if err != nil {
				t.Fatal(err)
			}
			d, err := CheckConfig(sim.WithCompressor("BCC", scheme), s, Options{DeepEvery: 256})
			if err != nil {
				t.Fatal(err)
			}
			if d != nil {
				t.Fatal(d)
			}
		})
	}
}

// TestSchemeSizingOnProgramData checks every scheme's size function
// against its encoder on the data the programs write. Each scale-1
// program's stores are replayed into a memory; at four checkpoints, and
// at the end, every 32-word (L2) line written since the previous
// checkpoint, and both of its 16-word (L1) halves, must size exactly as
// the scheme's image and decode back to itself. Random lines rarely fill
// a 16-entry C-Pack dictionary or fit a BDI delta mode; program data
// does both, so the test also requires some lines to take a BDI delta
// mode.
func TestSchemeSizingOnProgramData(t *testing.T) {
	if testing.Short() {
		t.Skip("replays all 14 programs")
	}
	var schemes []compress.Compressor
	for _, name := range compress.Schemes() {
		c, err := compress.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, c)
	}
	bdi, err := compress.Get("bdi")
	if err != nil {
		t.Fatal(err)
	}
	l1 := mach.LineGeom{LineBytes: 64}
	l2 := mach.LineGeom{LineBytes: 128}
	// The L2 line, then its two L1 halves, as (first word, words).
	parts := [][2]int{{0, l2.Words()}, {0, l1.Words()}, {l1.Words(), l1.Words()}}
	buf := make([]mach.Word, l2.Words())
	out := make([]mach.Word, l2.Words())
	lines, deltaLines := 0, 0
	for _, name := range workload.Names() {
		bm, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		insts := bm.Build(1).Insts()
		m := mem.New()
		written := map[mach.Addr]bool{} // L2 line bases
		check := func() {
			for base := range written {
				m.ReadLine(base, buf)
				for _, p := range parts {
					words := buf[p[0] : p[0]+p[1]]
					b := base + mach.Addr(p[0]*mach.WordBytes)
					for _, c := range schemes {
						enc := c.CompressLine(words, b)
						if h := c.LineHalves(words, b); h != enc.Halves() {
							t.Fatalf("%s: %s line %#x (%d words): LineHalves %d, image %d halves",
								name, c.Name(), b, len(words), h, enc.Halves())
						}
						if err := c.DecompressLine(enc, b, out[:len(words)]); err != nil || !slices.Equal(out[:len(words)], words) {
							t.Fatalf("%s: %s line %#x (%d words) does not decode back (%v)", name, c.Name(), b, len(words), err)
						}
						// A BDI image starts with its 4-bit selector;
						// selectors 2 to 7 are the base-delta modes.
						if sel := enc.Bits[0] & 0xF; c == bdi && sel >= 2 && sel <= 7 {
							deltaLines++
						}
					}
					lines++
				}
			}
			clear(written)
		}
		stores := 0
		for _, in := range insts {
			if in.Op == isa.OpStore {
				stores++
			}
		}
		seen := 0
		for _, in := range insts {
			if in.Op != isa.OpStore {
				continue
			}
			m.WriteWord(in.Addr, in.Value)
			written[l2.LineAddr(in.Addr)] = true
			if seen++; seen%(stores/4+1) == 0 {
				check()
			}
		}
		check()
	}
	t.Logf("%d lines checked, %d of them BDI base-delta", lines, deltaLines)
	if deltaLines == 0 {
		t.Error("no program line took a BDI base-delta mode")
	}
}
