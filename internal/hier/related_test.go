package hier

import (
	"math/rand"
	"testing"

	"cppcache/internal/mach"
	"cppcache/internal/mem"
)

// ---- Victim cache ----

func TestVictimConfig(t *testing.T) {
	h, err := NewVictim(VictimConfig(), mem.New())
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "VC" || h.vc.Params().Assoc != 8 {
		t.Errorf("VC = %s with a %d-entry victim cache, want VC with 8", h.Name(), h.vc.Params().Assoc)
	}
}

func TestVictimRecoversConflictMiss(t *testing.T) {
	m := mem.New()
	m.WriteWord(0x1000, 7)
	h, err := NewVictim(VictimConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	h.Read(0x1000)         // fetch
	h.Read(0x1000 + 8<<10) // conflict: 0x1000's line spills to the VC
	s := h.Stats()
	misses := s.L1.Misses
	if v, lat := h.Read(0x1000); v != 7 || lat != 2 {
		t.Fatalf("VC hit: v=%d lat=%d, want 7, 2", v, lat)
	}
	if s.L1.Misses != misses {
		t.Error("VC hit counted as a miss")
	}
	if s.PfBufHitsL1 != 1 {
		t.Errorf("VC hits = %d, want 1", s.PfBufHitsL1)
	}
}

func TestVictimBeatsBCOnPingPong(t *testing.T) {
	mA, mB := mem.New(), mem.New()
	bc, _ := NewStandard(BaselineConfig(), mA)
	vc, _ := NewVictim(VictimConfig(), mB)
	a, b := mach.Addr(0x0000), mach.Addr(0x2000)
	for i := 0; i < 200; i++ {
		bc.Read(a)
		bc.Read(b)
		vc.Read(a)
		vc.Read(b)
	}
	if bcM, vcM := bc.Stats().L1.Misses, vc.Stats().L1.Misses; vcM >= bcM {
		t.Errorf("VC misses (%d) not below BC (%d) on a ping-pong pattern", vcM, bcM)
	}
}

func TestVictimCoherenceRandom(t *testing.T) {
	m := mem.New()
	h, _ := NewVictim(VictimConfig(), m)
	shadow := map[mach.Addr]mach.Word{}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 120000; i++ {
		a := mach.Addr(rng.Intn(1<<15)) &^ 3
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
}

// ---- Line-level compression cache (LCC) ----

func TestLCCSharesCompressibleLines(t *testing.T) {
	m := mem.New()
	// Two conflicting, fully compressible lines.
	for i := 0; i < 16; i++ {
		m.WriteWord(mach.Addr(0x1000+i*4), mach.Word(i))
		m.WriteWord(mach.Addr(0x1000+8<<10)+mach.Addr(i*4), mach.Word(100+i))
	}
	h, err := NewLCC(LCCConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	h.Read(0x1000)
	h.Read(0x1000 + 8<<10) // conflicting but compressible: co-resides
	misses := h.Stats().L1.Misses
	if v, lat := h.Read(0x1000); v != 0 || lat != 1 {
		t.Fatalf("first line evicted despite sharing: v=%d lat=%d", v, lat)
	}
	if h.Stats().L1.Misses != misses {
		t.Error("shared line re-missed")
	}
	if h.SharedResidencies() == 0 {
		t.Error("no shared residency recorded")
	}
}

func TestLCCIncompressibleLineOwnsFrame(t *testing.T) {
	m := mem.New()
	for i := 0; i < 16; i++ {
		m.WriteWord(mach.Addr(0x1000+i*4), 0x70008000|mach.Word(i)) // incompressible
		m.WriteWord(mach.Addr(0x1000+8<<10)+mach.Addr(i*4), mach.Word(i))
	}
	h, _ := NewLCC(LCCConfig(), m)
	h.Read(0x1000)
	h.Read(0x1000 + 8<<10)
	misses := h.Stats().L1.Misses
	h.Read(0x1000) // the incompressible line was evicted: miss again
	if h.Stats().L1.Misses != misses+1 {
		t.Error("incompressible conflicting lines should not co-reside")
	}
}

func TestLCCWriteBreaksCompression(t *testing.T) {
	m := mem.New()
	for i := 0; i < 16; i++ {
		m.WriteWord(mach.Addr(0x1000+i*4), mach.Word(i))
		m.WriteWord(mach.Addr(0x1000+8<<10)+mach.Addr(i*4), mach.Word(100+i))
	}
	h, _ := NewLCC(LCCConfig(), m)
	h.Read(0x1000)
	h.Read(0x1000 + 8<<10) // co-resident
	// An incompressible store to line A evicts its frame-mate.
	h.Write(0x1000, 0xDEAD8001)
	misses := h.Stats().L1.Misses
	h.Read(0x1000 + 8<<10)
	if h.Stats().L1.Misses != misses+1 {
		t.Error("frame-mate survived an incompressible store")
	}
	if v, _ := h.Read(0x1000); v != 0xDEAD8001 {
		t.Errorf("store lost: %#x", v)
	}
	if h.Stats().ConflictEvictions == 0 {
		t.Error("conflict eviction not recorded")
	}
}

func TestLCCCoherenceRandom(t *testing.T) {
	m := mem.New()
	h, _ := NewLCC(LCCConfig(), m)
	shadow := map[mach.Addr]mach.Word{}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 120000; i++ {
		a := mach.Addr(rng.Intn(1<<15)) &^ 3
		switch rng.Intn(4) {
		case 0: // small value
			v := mach.Word(rng.Intn(1000))
			h.Write(a, v)
			shadow[a] = v
		case 1: // incompressible value
			v := rng.Uint32() | 0x40008000
			h.Write(a, v)
			shadow[a] = v
		default:
			if v, _ := h.Read(a); v != shadow[a] {
				t.Fatalf("iter %d: %#x = %#x, want %#x", i, a, v, shadow[a])
			}
		}
	}
	h.Drain()
	for a, want := range shadow {
		if got := m.ReadWord(a); got != want {
			t.Fatalf("after drain, mem[%#x] = %#x, want %#x", a, got, want)
		}
	}
}

func TestLCCCompressedTraffic(t *testing.T) {
	m := mem.New()
	for i := 0; i < 64; i++ {
		m.WriteWord(mach.Addr(0x8000+i*4), 5)
	}
	h, _ := NewLCC(LCCConfig(), m)
	h.Read(0x8000)
	if got := h.Stats().MemReadHalves; got != 32 {
		t.Errorf("compressible line read = %d halves, want 32", got)
	}
}
