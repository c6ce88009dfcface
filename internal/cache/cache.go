// Package cache implements a generic set-associative, write-back,
// write-allocate cache with per-line data storage and true-LRU
// replacement. It is the building block for the conventional hierarchies
// (BC, BCC, HAC and BCP's caches and prefetch buffers); the CPP compression
// cache in internal/core uses its own line structure because it needs
// per-word availability and compressibility state.
package cache

import (
	"fmt"

	"cppcache/internal/compress"
	"cppcache/internal/mach"
	"cppcache/internal/memsys"
)

// Params sizes one cache.
type Params struct {
	SizeBytes int // total data capacity
	Assoc     int // ways per set; 1 = direct mapped
	LineBytes int // bytes per line
}

// Validate reports an error for impossible parameter combinations.
func (p Params) Validate() error {
	g := mach.LineGeom{LineBytes: p.LineBytes}
	if err := g.Validate(); err != nil {
		return err
	}
	if p.Assoc < 1 {
		return fmt.Errorf("cache: associativity %d < 1", p.Assoc)
	}
	if p.SizeBytes <= 0 || p.SizeBytes%(p.LineBytes*p.Assoc) != 0 {
		return fmt.Errorf("cache: size %d is not a multiple of assoc*line = %d", p.SizeBytes, p.LineBytes*p.Assoc)
	}
	if sets := p.SizeBytes / (p.LineBytes * p.Assoc); !mach.IsPow2(sets) {
		return fmt.Errorf("cache: number of sets %d is not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the parameters.
func (p Params) Sets() int { return p.SizeBytes / (p.LineBytes * p.Assoc) }

// Line is one resident cache line. Data holds the line's words; Tag is the
// full line number (address / line size), which uniquely identifies the
// line without recomputing set bits.
type Line struct {
	Valid bool
	Dirty bool
	Tag   mach.Addr // line number, not just the tag bits
	Data  []mach.Word
	used  uint64 // LRU timestamp
}

// Addr returns the base byte address of the line.
func (l *Line) Addr(g mach.LineGeom) mach.Addr { return g.NumberToAddr(l.Tag) }

// Evicted describes a line displaced by Fill or Invalidate. Data aliases a
// scratch buffer owned by the cache: it is valid until that cache's next
// Fill or Invalidate, which is as long as every write-back path needs it.
// Callers that retain the words longer must copy them.
type Evicted struct {
	Valid bool
	Dirty bool
	Tag   mach.Addr // line number
	Data  []mach.Word
}

// Cache is a set-associative cache. The zero value is not usable; call New.
type Cache struct {
	p       Params
	geom    mach.LineGeom
	sets    [][]Line
	tick    uint64
	setMask mach.Addr
	evBuf   []mach.Word // backs Evicted.Data; see Evicted
}

// New builds a cache, validating the parameters.
func New(p Params) (*Cache, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		p:       p,
		geom:    mach.LineGeom{LineBytes: p.LineBytes},
		setMask: mach.Addr(p.Sets() - 1),
	}
	c.sets = make([][]Line, p.Sets())
	words := c.geom.Words()
	c.evBuf = make([]mach.Word, words)
	for i := range c.sets {
		ways := make([]Line, p.Assoc)
		for w := range ways {
			ways[w].Data = make([]mach.Word, words)
		}
		c.sets[i] = ways
	}
	return c, nil
}

// MustNew is New but panics on invalid parameters; for tests and constants.
func MustNew(p Params) *Cache {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Params returns the construction parameters.
func (c *Cache) Params() Params { return c.p }

// Geom returns the cache's line geometry.
func (c *Cache) Geom() mach.LineGeom { return c.geom }

// SetOf returns the set index for a byte address.
func (c *Cache) SetOf(a mach.Addr) int {
	return int(c.geom.LineNumber(a) & c.setMask)
}

// Probe returns the resident line holding address a, or nil. It does not
// touch LRU state, so it is safe for inspection.
func (c *Cache) Probe(a mach.Addr) *Line {
	n := c.geom.LineNumber(a)
	set := c.sets[int(n&c.setMask)]
	for i := range set {
		if set[i].Valid && set[i].Tag == n {
			return &set[i]
		}
	}
	return nil
}

// Access is Probe plus an LRU touch on hit.
func (c *Cache) Access(a mach.Addr) *Line {
	l := c.Probe(a)
	if l != nil {
		c.tick++
		l.used = c.tick
	}
	return l
}

// victim selects the replacement candidate in the set of address a:
// an invalid way if any, else the least recently used.
func (c *Cache) victim(a mach.Addr) *Line {
	set := c.sets[c.SetOf(a)]
	best := &set[0]
	for i := range set {
		l := &set[i]
		if !l.Valid {
			return l
		}
		if l.used < best.used {
			best = l
		}
	}
	return best
}

// Fill installs the line holding address a with the given words (copied),
// returning the displaced line if it was valid. data must have exactly one
// line's worth of words. The new line is installed clean and most recently
// used.
func (c *Cache) Fill(a mach.Addr, data []mach.Word) Evicted {
	if len(data) != c.geom.Words() {
		panic(fmt.Sprintf("cache: Fill with %d words, line holds %d", len(data), c.geom.Words()))
	}
	v := c.victim(a)
	var ev Evicted
	if v.Valid {
		copy(c.evBuf, v.Data)
		ev = Evicted{Valid: true, Dirty: v.Dirty, Tag: v.Tag, Data: c.evBuf}
	}
	v.Valid = true
	v.Dirty = false
	v.Tag = c.geom.LineNumber(a)
	copy(v.Data, data)
	c.tick++
	v.used = c.tick
	return ev
}

// Invalidate drops the line holding address a if resident, returning its
// previous contents.
func (c *Cache) Invalidate(a mach.Addr) Evicted {
	l := c.Probe(a)
	if l == nil {
		return Evicted{}
	}
	copy(c.evBuf, l.Data)
	ev := Evicted{Valid: true, Dirty: l.Dirty, Tag: l.Tag, Data: c.evBuf}
	l.Valid = false
	l.Dirty = false
	return ev
}

// ReadWord returns the word at address a if the line is resident.
func (c *Cache) ReadWord(a mach.Addr) (mach.Word, bool) {
	l := c.Access(a)
	if l == nil {
		return 0, false
	}
	return l.Data[c.geom.WordIndex(a)], true
}

// WriteWord updates the word at address a if the line is resident, marking
// the line dirty.
func (c *Cache) WriteWord(a mach.Addr, v mach.Word) bool {
	l := c.Access(a)
	if l == nil {
		return false
	}
	l.Data[c.geom.WordIndex(a)] = v
	l.Dirty = true
	return true
}

// Lines calls fn for every valid line. For tests and debugging.
func (c *Cache) Lines(fn func(setIdx int, l *Line)) {
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].Valid {
				fn(s, &c.sets[s][w])
			}
		}
	}
}

// Count returns the number of valid lines.
func (c *Cache) Count() int {
	n := 0
	c.Lines(func(int, *Line) { n++ })
	return n
}

// Capacity returns the number of physical frames (sets x ways).
func (c *Cache) Capacity() int { return c.p.Sets() * c.p.Assoc }

// Occupancy reports the cache's physical usage under the given label.
// Lines store words uncompressed, so every valid line occupies its full
// two half-words per word. When comp is non-nil, CompHalves is the
// resident lines' compressed size under that scheme. The hardware keeps
// it as tag metadata; the model derives it from the data on demand,
// since only inspection reads it.
func (c *Cache) Occupancy(level string, comp compress.Compressor) memsys.Occupancy {
	lines, compHalves := 0, 0
	c.Lines(func(_ int, l *Line) {
		lines++
		if comp != nil {
			compHalves += comp.LineHalves(l.Data, l.Addr(c.geom))
		}
	})
	words := c.geom.Words()
	return memsys.Occupancy{
		Level:      level,
		Lines:      lines,
		LineCap:    c.Capacity(),
		Halves:     lines * words * 2,
		HalfCap:    c.Capacity() * words * 2,
		CompHalves: compHalves,
	}
}
