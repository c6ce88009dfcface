package hier

import (
	"math/rand"
	"testing"

	"cppcache/internal/compress"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
)

func TestBaselineConfigMatchesPaper(t *testing.T) {
	c := BaselineConfig()
	if c.L1.SizeBytes != 8<<10 || c.L1.Assoc != 1 || c.L1.LineBytes != 64 {
		t.Errorf("BC L1 = %+v, want 8K direct-mapped 64B", c.L1)
	}
	if c.L2.SizeBytes != 64<<10 || c.L2.Assoc != 2 || c.L2.LineBytes != 128 {
		t.Errorf("BC L2 = %+v, want 64K 2-way 128B", c.L2)
	}
	if c.Lat != (memsys.Latencies{L1Hit: 1, AffHit: 2, L2Hit: 10, Mem: 100}) {
		t.Errorf("latencies = %+v", c.Lat)
	}
	h := HighAssocConfig()
	if h.L1.Assoc != 2 || h.L2.Assoc != 4 {
		t.Errorf("HAC assoc = %d/%d, want 2/4", h.L1.Assoc, h.L2.Assoc)
	}
	p, err := NewPrefetch(PrefetchConfig(), mem.New())
	if err != nil {
		t.Fatal(err)
	}
	if n1, n2 := p.pf1.Params().Assoc, p.pf2.Params().Assoc; n1 != 8 || n2 != 32 {
		t.Errorf("BCP buffers = %d/%d entries, want 8/32", n1, n2)
	}
}

func TestStandardReadAfterWrite(t *testing.T) {
	m := mem.New()
	h, err := NewStandard(BaselineConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(0x1000, 42)
	v, lat := h.Read(0x1000)
	if v != 42 {
		t.Fatalf("read %d, want 42", v)
	}
	if lat != 1 {
		t.Errorf("hit latency %d, want 1", lat)
	}
}

func TestStandardLatencies(t *testing.T) {
	m := mem.New()
	m.WriteWord(0x1000, 7)
	h, _ := NewStandard(BaselineConfig(), m)
	if _, lat := h.Read(0x1000); lat != 100 {
		t.Errorf("cold miss latency %d, want 100 (memory)", lat)
	}
	if _, lat := h.Read(0x1004); lat != 1 {
		t.Errorf("same-line hit latency %d, want 1", lat)
	}
	// Evict the L1 line (direct mapped: same set 8K apart) but keep L2.
	h.Read(0x1000 + 8<<10)
	if _, lat := h.Read(0x1000); lat != 10 {
		t.Errorf("L1 miss / L2 hit latency %d, want 10", lat)
	}
}

func TestStandardMissCounting(t *testing.T) {
	m := mem.New()
	h, _ := NewStandard(BaselineConfig(), m)
	h.Read(0x4000) // cold: L1 miss, L2 miss
	h.Read(0x4004) // hit
	h.Read(0x4040) // next L1 line, same L2 line: L1 miss, L2 hit
	s := h.Stats()
	if s.L1.Accesses != 3 || s.L1.Misses != 2 {
		t.Errorf("L1 stats = %+v", s.L1)
	}
	if s.L2.Accesses != 2 || s.L2.Misses != 1 {
		t.Errorf("L2 stats = %+v", s.L2)
	}
	if s.MemReadHalves != 64 { // one 128B line uncompressed = 32 words = 64 halves
		t.Errorf("MemReadHalves = %d, want 64", s.MemReadHalves)
	}
}

func TestBCCTrafficCompressed(t *testing.T) {
	m := mem.New()
	// Line full of small values: every word compressible -> half traffic.
	for i := 0; i < 64; i++ {
		m.WriteWord(mach.Addr(0x8000+i*4), 5)
	}
	bc, _ := NewStandard(BaselineConfig(), mem.New())
	_ = bc
	bcc, _ := NewStandard(CompressedConfig(), m)
	bcc.Read(0x8000)
	if got := bcc.Stats().MemReadHalves; got != 32 {
		t.Errorf("BCC compressible line read = %d halves, want 32", got)
	}
	// A line of incompressible values costs the full 64 halves.
	for i := 0; i < 32; i++ {
		m.WriteWord(mach.Addr(0x20000+i*4), 0x5A5A0000+mach.Word(i)<<16)
	}
	bcc.Read(0x20000)
	if got := bcc.Stats().MemReadHalves - 32; got != 64 {
		t.Errorf("BCC incompressible line read = %d halves, want 64", got)
	}
}

func TestBCCSameMissBehaviourAsBC(t *testing.T) {
	// BCC must have identical hit/miss behaviour to BC on any access
	// sequence; only the traffic differs.
	mA, mB := mem.New(), mem.New()
	bc, _ := NewStandard(BaselineConfig(), mA)
	bcc, _ := NewStandard(CompressedConfig(), mB)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		a := mach.Addr(rng.Intn(1<<17)) &^ 3
		if rng.Intn(2) == 0 {
			v := rng.Uint32()
			bc.Write(a, v)
			bcc.Write(a, v)
		} else {
			v1, l1 := bc.Read(a)
			v2, l2 := bcc.Read(a)
			if v1 != v2 || l1 != l2 {
				t.Fatalf("divergence at %#x: BC (%d,%d) vs BCC (%d,%d)", a, v1, l1, v2, l2)
			}
		}
	}
	sa, sb := bc.Stats(), bcc.Stats()
	if sa.L1 != sb.L1 || sa.L2 != sb.L2 {
		t.Errorf("miss stats diverge: %+v vs %+v", sa, sb)
	}
	if sb.MemReadHalves >= sa.MemReadHalves {
		t.Errorf("BCC traffic (%d) not below BC (%d) on random values", sb.MemReadHalves, sa.MemReadHalves)
	}
}

func TestStandardCoherenceRandom(t *testing.T) {
	for _, cfg := range []Config{BaselineConfig(), CompressedConfig(), HighAssocConfig()} {
		t.Run(cfg.Name, func(t *testing.T) {
			m := mem.New()
			h, err := NewStandard(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			shadow := map[mach.Addr]mach.Word{}
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 100000; i++ {
				a := mach.Addr(rng.Intn(1<<16)) &^ 3
				if rng.Intn(2) == 0 {
					v := rng.Uint32()
					h.Write(a, v)
					shadow[a] = v
				} else if v, _ := h.Read(a); v != shadow[a] {
					t.Fatalf("iter %d: %#x = %d, want %d", i, a, v, shadow[a])
				}
			}
			h.Drain()
			for a, want := range shadow {
				if got := m.ReadWord(a); got != want {
					t.Fatalf("after drain, mem[%#x] = %d, want %d", a, got, want)
				}
			}
		})
	}
}

func TestHACFewerConflictMisses(t *testing.T) {
	// Two lines mapping to the same direct-mapped set ping-pong in BC but
	// coexist in HAC's 2-way L1.
	mA, mB := mem.New(), mem.New()
	bc, _ := NewStandard(BaselineConfig(), mA)
	hac, _ := NewStandard(HighAssocConfig(), mB)
	a, b := mach.Addr(0x0000), mach.Addr(0x2000) // 8K apart: same BC set
	for i := 0; i < 100; i++ {
		bc.Read(a)
		bc.Read(b)
		hac.Read(a)
		hac.Read(b)
	}
	if bcMiss, hacMiss := bc.Stats().L1.Misses, hac.Stats().L1.Misses; bcMiss <= hacMiss {
		t.Errorf("BC misses (%d) should exceed HAC misses (%d) on a conflict pattern", bcMiss, hacMiss)
	}
}

func TestPrefetchNextLineHit(t *testing.T) {
	m := mem.New()
	h, err := NewPrefetch(PrefetchConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	h.Read(0x1000) // miss; prefetches 0x1040 into the L1 buffer
	if h.pf1.Probe(0x1040) == nil {
		t.Fatal("next line not in L1 prefetch buffer")
	}
	s := h.Stats()
	misses := s.L1.Misses
	h.Read(0x1040) // should hit the buffer, not count as a miss
	if s.L1.Misses != misses {
		t.Errorf("buffer hit counted as a miss")
	}
	if s.PfBufHitsL1 != 1 {
		t.Errorf("PfBufHitsL1 = %d, want 1", s.PfBufHitsL1)
	}
}

func TestPrefetchStreamBehaviour(t *testing.T) {
	// A sequential sweep should turn most L1 misses into buffer hits.
	m := mem.New()
	h, _ := NewPrefetch(PrefetchConfig(), m)
	for a := mach.Addr(0); a < 1<<14; a += 4 {
		h.Read(a)
	}
	s := h.Stats()
	if s.PfBufHitsL1 < 100 {
		t.Errorf("stream produced only %d L1 buffer hits", s.PfBufHitsL1)
	}
	if s.L1.Misses > s.PfBufHitsL1 {
		t.Errorf("stream misses (%d) exceed buffer hits (%d)", s.L1.Misses, s.PfBufHitsL1)
	}
}

func TestPrefetchIncreasesTraffic(t *testing.T) {
	// Random-ish pointer chasing: prefetches are wasted, traffic grows
	// well beyond BC's (the paper reports +80% on average).
	mA, mB := mem.New(), mem.New()
	bc, _ := NewStandard(BaselineConfig(), mA)
	bcp, _ := NewPrefetch(PrefetchConfig(), mB)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		a := mach.Addr(rng.Intn(1<<20)) &^ 3
		bc.Read(a)
		bcp.Read(a)
	}
	if tb, tp := bc.Stats().MemReadHalves, bcp.Stats().MemReadHalves; tp <= tb {
		t.Errorf("BCP traffic (%d) not above BC (%d) on random accesses", tp, tb)
	}
}

func TestPrefetchCoherenceRandom(t *testing.T) {
	m := mem.New()
	h, _ := NewPrefetch(PrefetchConfig(), m)
	shadow := map[mach.Addr]mach.Word{}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100000; i++ {
		// Mix of sequential and random accesses to exercise the buffers.
		var a mach.Addr
		if rng.Intn(4) != 0 {
			a = mach.Addr(rng.Intn(1<<12)) &^ 3
		} else {
			a = mach.Addr(rng.Intn(1<<16)) &^ 3
		}
		if rng.Intn(2) == 0 {
			v := rng.Uint32()
			h.Write(a, v)
			shadow[a] = v
		} else if v, _ := h.Read(a); v != shadow[a] {
			t.Fatalf("iter %d: %#x = %d, want %d", i, a, v, shadow[a])
		}
	}
}

func TestPrefetchWriteToBufferedLine(t *testing.T) {
	m := mem.New()
	h, _ := NewPrefetch(PrefetchConfig(), m)
	h.Read(0x1000) // prefetches 0x1040
	if h.pf1.Probe(0x1040) == nil {
		t.Fatal("expected 0x1040 buffered")
	}
	h.Write(0x1040, 123) // write moves the buffered line into L1
	if h.pf1.Probe(0x1040) != nil {
		t.Error("buffer entry not invalidated after write")
	}
	if v, _ := h.Read(0x1040); v != 123 {
		t.Errorf("read back %d, want 123", v)
	}
}

func TestStandardSteadyStateAllocationFree(t *testing.T) {
	// The demand path reads and writes the L1 line in place, fills move
	// words between preallocated slabs, and every compressor sizes a
	// line without allocating. A miss-heavy mix — conflict misses, dirty
	// write-backs at both levels — must not allocate in steady state, on
	// BC or on BCC under any scheme.
	configs := []Config{BaselineConfig()}
	for _, name := range compress.Schemes() {
		c := CompressedConfig()
		c.Comp, _ = compress.Get(name)
		configs = append(configs, c)
	}
	for _, cfg := range configs {
		scheme := "uncompressed"
		if cfg.Comp != nil {
			scheme = cfg.Comp.Name()
		}
		h, err := NewStandard(cfg, mem.New())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		batch := func() {
			for i := 0; i < 2000; i++ {
				a := mach.Addr(rng.Intn(1<<18)) &^ 3
				if rng.Intn(3) == 0 {
					h.Write(a, rng.Uint32()>>uint(rng.Intn(32)))
				} else {
					h.Read(a)
				}
			}
		}
		batch() // warm-up: cache storage and obs state settle
		if s := h.Stats(); s.L1.Writebacks == 0 || s.L2.Writebacks == 0 {
			t.Fatalf("%s: batch exercised no write-backs at both levels: %+v", cfg.Name, *s)
		}
		if avg := testing.AllocsPerRun(10, batch); avg > 0 {
			t.Errorf("steady-state %s batch (%s) allocated %.1f times, want 0", cfg.Name, scheme, avg)
		}
	}
}

func TestVictimSteadyStateAllocationFree(t *testing.T) {
	// A victim-cache hit swaps the line back into the L1 by copying it
	// straight out of the victim cache's storage, so it allocates
	// nothing. Four lines ping-ponging in one L1 set hit the victim cache
	// on nearly every access; the random accesses add conflict misses
	// and dirty write-backs.
	h, err := NewVictim(VictimConfig(), mem.New())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	batch := func() {
		for i := 0; i < 2000; i++ {
			a := mach.Addr(i%4) * 8 << 10 // one L1 set
			if rng.Intn(4) == 0 {
				a = mach.Addr(rng.Intn(1<<18)) &^ 3
			}
			if rng.Intn(3) == 0 {
				h.Write(a, rng.Uint32())
			} else {
				h.Read(a)
			}
		}
	}
	batch() // warm-up: cache storage and obs state settle
	if s := h.Stats(); s.PfBufHitsL1 == 0 || s.L1.Writebacks == 0 {
		t.Fatalf("batch exercised no victim-cache hits or write-backs: %+v", *s)
	}
	if avg := testing.AllocsPerRun(10, batch); avg > 0 {
		t.Errorf("steady-state VC batch allocated %.1f times, want 0", avg)
	}
}

func TestPrefetchSteadyStateAllocationFree(t *testing.T) {
	// The prefetch path moves lines between the buffers and the caches
	// without line copies of its own, and stages memory reads for the
	// L2 buffer in one reused scratch line; in steady state a miss-heavy
	// access pattern — buffer hits, promotes, prefetch-throughs,
	// write-backs — must not allocate at all. This pins the BCP
	// allocation fix (~20k -> ~1k allocations per simulated run).
	m := mem.New()
	h, err := NewPrefetch(PrefetchConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	batch := func() {
		for i := 0; i < 2000; i++ {
			var a mach.Addr
			if rng.Intn(3) == 0 {
				a = mach.Addr(rng.Intn(1<<18)) &^ 3 // conflict misses + write-backs
			} else {
				a = mach.Addr(i*4) & (1<<16 - 1) // sequential: buffer hits
			}
			if rng.Intn(4) == 0 {
				h.Write(a, rng.Uint32())
			} else {
				h.Read(a)
			}
		}
	}
	batch() // warm-up: cache/buffer storage and obs state settle
	if avg := testing.AllocsPerRun(10, batch); avg > 0 {
		t.Errorf("steady-state BCP batch allocated %.1f times, want 0", avg)
	}
}

func TestLCCSteadyStateAllocationFree(t *testing.T) {
	// LCC reuses a memory-fetch buffer and two evicted-line scratch
	// copies instead of allocating per miss, and fills L1 straight from
	// the L2 line. A miss-heavy mix — conflict misses, frame sharing,
	// compressible -> incompressible writes that evict a frame-mate, and
	// dirty write-backs — must not allocate in steady state.
	m := mem.New()
	h, err := NewLCC(LCCConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	batch := func() {
		for i := 0; i < 2000; i++ {
			a := mach.Addr(rng.Intn(1<<18)) &^ 3
			if rng.Intn(3) == 0 {
				v := mach.Word(rng.Intn(100)) // compressible
				if rng.Intn(4) == 0 {
					v = rng.Uint32() | 0x4000_0000 // breaks the line's fit
				}
				h.Write(a, v)
			} else {
				h.Read(a)
			}
		}
	}
	batch() // warm-up: cache storage and obs state settle
	if h.Stats().ConflictEvictions == 0 || h.Stats().L1.Writebacks == 0 {
		t.Fatalf("batch exercised no frame-mate evictions or write-backs: %+v", *h.Stats())
	}
	if avg := testing.AllocsPerRun(10, batch); avg > 0 {
		t.Errorf("steady-state LCC batch allocated %.1f times, want 0", avg)
	}
}
