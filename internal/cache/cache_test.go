package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cppcache/internal/mach"
)

func params8kDM() Params  { return Params{SizeBytes: 8 << 10, Assoc: 1, LineBytes: 64} }
func params64k2W() Params { return Params{SizeBytes: 64 << 10, Assoc: 2, LineBytes: 128} }

// readWord and writeWord are a demand access of one word: an LRU touch,
// then the word in place. ok is false when the line is not resident.
func readWord(c *Cache, a mach.Addr) (v mach.Word, ok bool) {
	l := c.Access(a)
	if l == nil {
		return 0, false
	}
	return l.Data[c.Geom().WordIndex(a)], true
}

func writeWord(c *Cache, a mach.Addr, v mach.Word) bool {
	l := c.Access(a)
	if l == nil {
		return false
	}
	l.Data[c.Geom().WordIndex(a)] = v
	l.Dirty = true
	return true
}

func lineData(c *Cache, seed mach.Word) []mach.Word {
	d := make([]mach.Word, c.Geom().Words())
	for i := range d {
		d[i] = seed + mach.Word(i)
	}
	return d
}

func TestParamsValidate(t *testing.T) {
	good := []Params{params8kDM(), params64k2W(), {SizeBytes: 1 << 10, Assoc: 4, LineBytes: 32}}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", p, err)
		}
	}
	bad := []Params{
		{SizeBytes: 8 << 10, Assoc: 0, LineBytes: 64},
		{SizeBytes: 8 << 10, Assoc: 1, LineBytes: 48},
		{SizeBytes: 100, Assoc: 1, LineBytes: 64},
		{SizeBytes: 3 * 64, Assoc: 1, LineBytes: 64}, // 3 sets: not pow2
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted bad params", p)
		}
	}
}

func TestSets(t *testing.T) {
	if got := params8kDM().Sets(); got != 128 {
		t.Errorf("8K DM 64B sets = %d, want 128", got)
	}
	if got := params64k2W().Sets(); got != 256 {
		t.Errorf("64K 2-way 128B sets = %d, want 256", got)
	}
}

func TestFillProbeReadWrite(t *testing.T) {
	c := MustNew(params8kDM())
	a := mach.Addr(0x12340)
	if c.Probe(a) != nil {
		t.Fatal("empty cache probe hit")
	}
	l, ev := c.Fill(a, lineData(c, 100))
	if ev.Valid {
		t.Fatal("fill into empty set evicted something")
	}
	if l != c.Probe(a) {
		t.Fatal("Fill did not return the installed line")
	}
	v, ok := readWord(c, a+8)
	if !ok || v != 102 {
		t.Fatalf("readWord = %d, %v; want 102, true", v, ok)
	}
	if !writeWord(c, a+8, 999) {
		t.Fatal("writeWord missed resident line")
	}
	if v, _ := readWord(c, a+8); v != 999 {
		t.Fatalf("read back %d, want 999", v)
	}
	if l := c.Probe(a); !l.Dirty {
		t.Error("line not dirty after write")
	}
}

func TestConflictEvictionDirectMapped(t *testing.T) {
	c := MustNew(params8kDM())
	a := mach.Addr(0x0040)
	b := a + 8<<10 // same set, different tag
	c.Fill(a, lineData(c, 1))
	writeWord(c, a, 42)
	_, ev := c.Fill(b, lineData(c, 2))
	if !ev.Valid || !ev.Dirty {
		t.Fatalf("evicted = %+v, want valid dirty", ev)
	}
	if ev.Data[0] != 42 {
		t.Errorf("evicted data[0] = %d, want 42", ev.Data[0])
	}
	if got := c.Geom().NumberToAddr(ev.Tag); got != a {
		t.Errorf("evicted addr = %#x, want %#x", got, a)
	}
	if c.Probe(a) != nil {
		t.Error("old line still resident")
	}
}

func TestFillAcceptsEvictedWords(t *testing.T) {
	// An eviction hands out the victim's own slot, and the next Fill of
	// that set takes the spare slot, which may be the very slot passed
	// in as data: line a goes out and comes back from its evicted words.
	c := MustNew(params8kDM())
	a, b := mach.Addr(0x0040), mach.Addr(0x0040+8<<10) // same set
	c.Fill(a, lineData(c, 100))
	_, evA := c.Fill(b, lineData(c, 200))
	l, evB := c.Fill(a, evA.Data)
	for i, v := range l.Data {
		if want := mach.Word(100 + i); v != want {
			t.Fatalf("refilled line word %d = %d, want %d", i, v, want)
		}
	}
	if !evB.Valid || c.Geom().NumberToAddr(evB.Tag) != b {
		t.Fatalf("second eviction = %+v, want line %#x", evB, b)
	}
	for i, v := range evB.Data {
		if want := mach.Word(200 + i); v != want {
			t.Fatalf("evicted word %d = %d, want %d", i, v, want)
		}
	}
}

func TestLRUReplacement(t *testing.T) {
	c := MustNew(Params{SizeBytes: 4 * 64, Assoc: 4, LineBytes: 64}) // one set, 4 ways
	addrs := []mach.Addr{0x0000, 0x1000, 0x2000, 0x3000}
	for _, a := range addrs {
		c.Fill(a, lineData(c, mach.Word(a)))
	}
	// Touch all but 0x1000 so it becomes LRU.
	c.Access(0x0000)
	c.Access(0x2000)
	c.Access(0x3000)
	_, ev := c.Fill(0x4000, lineData(c, 9))
	if !ev.Valid || c.Geom().NumberToAddr(ev.Tag) != 0x1000 {
		t.Fatalf("evicted %#x, want 0x1000", c.Geom().NumberToAddr(ev.Tag))
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(params64k2W())
	a := mach.Addr(0x8000)
	c.Fill(a, lineData(c, 5))
	writeWord(c, a, 77)
	ev := c.Invalidate(a)
	if !ev.Valid || !ev.Dirty || ev.Data[0] != 77 {
		t.Fatalf("Invalidate returned %+v", ev)
	}
	if c.Probe(a) != nil {
		t.Error("line survives invalidation")
	}
	if ev2 := c.Invalidate(a); ev2.Valid {
		t.Error("double invalidate returned valid line")
	}
}

func TestCount(t *testing.T) {
	c := MustNew(params64k2W())
	for i := 0; i < 10; i++ {
		c.Fill(mach.Addr(i*128), lineData(c, mach.Word(i)))
	}
	if got := c.Count(); got != 10 {
		t.Errorf("Count = %d, want 10", got)
	}
}

// Property: a cache behaves as a subset of memory — every read hit returns
// the most recently written value for that address.
func TestCoherenceAgainstShadow(t *testing.T) {
	c := MustNew(Params{SizeBytes: 1 << 10, Assoc: 2, LineBytes: 32})
	shadow := map[mach.Addr]mach.Word{}
	rng := rand.New(rand.NewSource(11))
	geom := c.Geom()
	for i := 0; i < 50000; i++ {
		a := mach.Addr(rng.Intn(1<<14)) &^ 3
		switch rng.Intn(3) {
		case 0: // fill from "memory" (shadow)
			base := geom.LineAddr(a)
			data := make([]mach.Word, geom.Words())
			for w := range data {
				data[w] = shadow[base+mach.Addr(w*4)]
			}
			_, ev := c.Fill(a, data)
			if ev.Valid && ev.Dirty { // write back
				evBase := geom.NumberToAddr(ev.Tag)
				for w, v := range ev.Data {
					shadow[evBase+mach.Addr(w*4)] = v
				}
			}
		case 1: // write if resident
			v := rng.Uint32()
			if writeWord(c, a, v) {
				// resident: shadow updated lazily via writeback; track via read check below
				// To keep the shadow exact we update it here too: cache value == latest value.
				shadow[a] = v
			}
		default: // read if resident
			if v, ok := readWord(c, a); ok {
				if want := shadow[a]; v != want {
					t.Fatalf("iter %d: read %#x = %d, want %d", i, a, v, want)
				}
			}
		}
	}
}

func TestFillWrongSizePanics(t *testing.T) {
	c := MustNew(params8kDM())
	defer func() {
		if recover() == nil {
			t.Error("Fill with wrong word count did not panic")
		}
	}()
	c.Fill(0, make([]mach.Word, 3))
}

func TestSetOfQuick(t *testing.T) {
	c := MustNew(params64k2W())
	f := func(a mach.Addr) bool {
		s := c.SetOf(a)
		return s >= 0 && s < c.Params().Sets() && s == c.SetOf(c.Geom().LineAddr(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkProbeHit(b *testing.B) {
	c := MustNew(params64k2W())
	c.Fill(0x1000, lineData(c, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Probe(0x1000)
	}
}

func BenchmarkFill(b *testing.B) {
	c := MustNew(params64k2W())
	d := lineData(c, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(mach.Addr(i*128), d)
	}
}
