package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cppcache/internal/mach"
)

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	if got := m.ReadWord(0x1000); got != 0 {
		t.Errorf("fresh memory read %#x, want 0", got)
	}
	m.WriteWord(0x1000, 42)
	if got := m.ReadWord(0x1000); got != 42 {
		t.Errorf("read back %d, want 42", got)
	}
}

func TestReadAfterWrite(t *testing.T) {
	m := New()
	f := func(a mach.Addr, v mach.Word) bool {
		m.WriteWord(a, v)
		return m.ReadWord(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUnalignedAccessesAlias(t *testing.T) {
	m := New()
	m.WriteWord(0x2001, 7) // aligns down to 0x2000
	if got := m.ReadWord(0x2003); got != 7 {
		t.Errorf("unaligned read got %d, want 7", got)
	}
	if got := m.ReadWord(0x2004); got != 0 {
		t.Errorf("neighbouring word got %d, want 0", got)
	}
}

func TestAdjacentWordsIndependent(t *testing.T) {
	m := New()
	for i := mach.Addr(0); i < 64; i++ {
		m.WriteWord(0x8000+i*4, mach.Word(i+1))
	}
	for i := mach.Addr(0); i < 64; i++ {
		if got := m.ReadWord(0x8000 + i*4); got != mach.Word(i+1) {
			t.Fatalf("word %d = %d, want %d", i, got, i+1)
		}
	}
}

func TestLineRoundTripAcrossPages(t *testing.T) {
	m := New()
	// A line straddling the 4 KiB page boundary.
	base := mach.Addr(pageBytes - 8)
	src := []mach.Word{1, 2, 3, 4}
	m.WriteLine(base, src)
	dst := make([]mach.Word, 4)
	m.ReadLine(base, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
	if m.PagesTouched() != 2 {
		t.Errorf("PagesTouched = %d, want 2", m.PagesTouched())
	}
}

func TestHighAddresses(t *testing.T) {
	m := New()
	m.WriteWord(0xFFFFFFFC, 0xDEADBEEF)
	if got := m.ReadWord(0xFFFFFFFC); got != 0xDEADBEEF {
		t.Errorf("top-of-memory word = %#x", got)
	}
}

// mapMemory is the original map-backed sparse store, kept as the reference
// model for the radix page table's property test.
type mapMemory struct {
	pages map[mach.Addr]*page
}

func (m *mapMemory) readWord(a mach.Addr) mach.Word {
	a = mach.WordAlign(a)
	p := m.pages[a>>pageShift]
	if p == nil {
		return 0
	}
	return p[(a&pageMask)/mach.WordBytes]
}

func (m *mapMemory) writeWord(a mach.Addr, v mach.Word) {
	a = mach.WordAlign(a)
	key := a >> pageShift
	p := m.pages[key]
	if p == nil {
		p = new(page)
		m.pages[key] = p
	}
	p[(a&pageMask)/mach.WordBytes] = v
}

// TestRadixMatchesMapModel drives the radix store and the old map store
// with the same random access stream — word and line ops, clustered and
// scattered addresses, including the top of the address space — and
// requires identical observable behaviour.
func TestRadixMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New()
	ref := &mapMemory{pages: map[mach.Addr]*page{}}

	randAddr := func() mach.Addr {
		switch rng.Intn(4) {
		case 0: // clustered low heap
			return mach.Addr(rng.Intn(1 << 16))
		case 1: // page-boundary neighbourhood
			return mach.Addr(rng.Intn(64))*pageBytes + pageBytes - 32 + mach.Addr(rng.Intn(64))
		case 2: // top of the 32-bit space (wraparound territory)
			return 0xFFFF_FF00 + mach.Addr(rng.Intn(0x100))
		default: // anywhere
			return mach.Addr(rng.Uint32())
		}
	}

	line := make([]mach.Word, 32)
	got := make([]mach.Word, 32)
	for op := 0; op < 20000; op++ {
		a := randAddr()
		switch rng.Intn(4) {
		case 0:
			v := mach.Word(rng.Uint32())
			m.WriteWord(a, v)
			ref.writeWord(a, v)
		case 1:
			if g, w := m.ReadWord(a), ref.readWord(a); g != w {
				t.Fatalf("op %d: ReadWord(%#x) = %#x, map model says %#x", op, a, g, w)
			}
		case 2:
			n := 1 + rng.Intn(len(line))
			for i := 0; i < n; i++ {
				line[i] = mach.Word(rng.Uint32())
			}
			m.WriteLine(a, line[:n])
			base := mach.WordAlign(a)
			for i := 0; i < n; i++ {
				ref.writeWord(base+mach.Addr(i*mach.WordBytes), line[i])
			}
		default:
			n := 1 + rng.Intn(len(line))
			m.ReadLine(a, got[:n])
			base := mach.WordAlign(a)
			for i := 0; i < n; i++ {
				if w := ref.readWord(base + mach.Addr(i*mach.WordBytes)); got[i] != w {
					t.Fatalf("op %d: ReadLine(%#x)[%d] = %#x, map model says %#x", op, a, i, got[i], w)
				}
			}
		}
	}
	if m.PagesTouched() != len(ref.pages) {
		t.Errorf("PagesTouched = %d, map model allocated %d", m.PagesTouched(), len(ref.pages))
	}
}

func TestLineWraparound(t *testing.T) {
	// A line starting near 2^32 wraps to address 0, exactly as per-word
	// Addr arithmetic does.
	m := New()
	src := []mach.Word{10, 20, 30, 40}
	m.WriteLine(0xFFFF_FFF8, src)
	if got := m.ReadWord(0xFFFF_FFF8); got != 10 {
		t.Errorf("word at 0xFFFFFFF8 = %d, want 10", got)
	}
	if got := m.ReadWord(0xFFFF_FFFC); got != 20 {
		t.Errorf("word at 0xFFFFFFFC = %d, want 20", got)
	}
	if got := m.ReadWord(0); got != 30 {
		t.Errorf("word at 0 = %d, want 30 (wrapped)", got)
	}
	if got := m.ReadWord(4); got != 40 {
		t.Errorf("word at 4 = %d, want 40 (wrapped)", got)
	}
	dst := make([]mach.Word, 4)
	m.ReadLine(0xFFFF_FFF8, dst)
	for i, v := range src {
		if dst[i] != v {
			t.Errorf("ReadLine wrap [%d] = %d, want %d", i, dst[i], v)
		}
	}
}

func TestLineStraddlesLeafBoundary(t *testing.T) {
	// The radix leaf covers 1024 pages = 4 MiB; a line crossing that
	// boundary exercises a root-level switch mid-line.
	m := New()
	leafSpan := mach.Addr(leafSize) * pageBytes
	base := leafSpan - 8
	src := []mach.Word{1, 2, 3, 4}
	m.WriteLine(base, src)
	dst := make([]mach.Word, 4)
	m.ReadLine(base, dst)
	for i, v := range src {
		if dst[i] != v {
			t.Fatalf("leaf-straddling line [%d] = %d, want %d", i, dst[i], v)
		}
	}
	if m.PagesTouched() != 2 {
		t.Errorf("PagesTouched = %d, want 2", m.PagesTouched())
	}
}

func TestLastPageCacheInvalidation(t *testing.T) {
	// Alternate between two pages so the last-page cache repeatedly
	// invalidates; values must never bleed between pages.
	m := New()
	for i := 0; i < 100; i++ {
		m.WriteWord(0x0000+mach.Addr(i*4), mach.Word(i))
		m.WriteWord(0x4000+mach.Addr(i*4), mach.Word(1000+i))
	}
	for i := 0; i < 100; i++ {
		if got := m.ReadWord(0x0000 + mach.Addr(i*4)); got != mach.Word(i) {
			t.Fatalf("page A word %d = %d", i, got)
		}
		if got := m.ReadWord(0x4000 + mach.Addr(i*4)); got != mach.Word(1000+i) {
			t.Fatalf("page B word %d = %d", i, got)
		}
	}
}

func BenchmarkWriteWord(b *testing.B) {
	m := New()
	for i := 0; i < b.N; i++ {
		m.WriteWord(mach.Addr(i*4)&0xFFFFF, mach.Word(i))
	}
}

func BenchmarkReadWord(b *testing.B) {
	m := New()
	for i := 0; i < 1<<18; i += 4 {
		m.WriteWord(mach.Addr(i), mach.Word(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ReadWord(mach.Addr(i*4) & 0x3FFFF)
	}
}
