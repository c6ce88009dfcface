// Package cache implements a generic set-associative, write-back,
// write-allocate cache with per-line data storage and true-LRU
// replacement. It is the building block for the conventional hierarchies:
// the caches of BC, BCC and HAC, BCP's caches and prefetch buffers, VC's
// caches and victim cache, and LCC's L2. The CPP compression cache in
// internal/core and LCC's paired-frame L1 use their own line structures,
// because they need per-word availability and compressibility state or
// two lines per frame.
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

// Line is the state of one resident cache line that its users read and
// write: its words and its dirty bit. The cache keeps the line's tag and
// LRU stamp in arrays of their own, so that a set search reads only tags.
type Line struct {
	Dirty bool
	Data  []mach.Word
}

// Evicted describes a line displaced by Fill or Invalidate. Data aliases
// the cache's own storage: it is valid until that cache's next Fill or
// Invalidate, which is as long as every write-back path needs it.
// Callers that retain the words longer must copy them.
type Evicted struct {
	Valid bool
	Dirty bool
	Tag   mach.Addr // line number
	Data  []mach.Word
}

// noTag marks an invalid way. It is no line number: a line holds at least
// one 4-byte word, so line numbers are below 2^30.
const noTag = ^mach.Addr(0)

// Cache is a set-associative cache. The zero value is not usable; call New.
//
// The ways are flat arrays indexed alike, set s at [s*Assoc, (s+1)*Assoc):
// tags holds each way's line number (address / line size), or noTag when
// the way is invalid; used holds its LRU stamp; lines holds the rest. The
// lines' words are slots of one slab, which has one slot more than there
// are lines: the spare. Fill hands a valid victim's slot out as
// Evicted.Data and takes the spare in its place, so an eviction moves no
// words.
type Cache struct {
	p       Params
	geom    mach.LineGeom
	tags    []mach.Addr
	used    []uint64
	lines   []Line
	spare   []mach.Word // the slab slot no line holds; see Fill
	tick    uint64
	setMask mach.Addr
	shift   uint // geom.Shift(), kept so that Access inlines
}

// New builds a cache, validating the parameters.
func New(p Params) (*Cache, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ways := p.Sets() * p.Assoc
	c := &Cache{
		p:       p,
		geom:    mach.LineGeom{LineBytes: p.LineBytes},
		tags:    make([]mach.Addr, ways),
		used:    make([]uint64, ways),
		lines:   make([]Line, ways),
		setMask: mach.Addr(p.Sets() - 1),
	}
	c.shift = c.geom.Shift()
	words := c.geom.Words()
	slab := make([]mach.Word, (ways+1)*words)
	slot := func(i int) []mach.Word { return slab[i*words : (i+1)*words : (i+1)*words] }
	for i := range c.lines {
		c.tags[i] = noTag
		c.lines[i].Data = slot(i)
	}
	c.spare = slot(ways)
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
	return int(a >> c.shift & c.setMask)
}

// find returns the way holding line n, or -1.
func (c *Cache) find(n mach.Addr) int {
	s := int(n&c.setMask) * c.p.Assoc
	for i, t := range c.tags[s : s+c.p.Assoc] {
		if t == n {
			return s + i
		}
	}
	return -1
}

// Probe returns the resident line holding address a, or nil. It does not
// touch LRU state, so it is safe for inspection.
func (c *Cache) Probe(a mach.Addr) *Line {
	if i := c.find(a >> c.shift); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Access is Probe plus an LRU touch on hit. A demand access reads or
// writes the returned line's Data in place (setting Dirty on a write), so
// a hit costs one tag search.
func (c *Cache) Access(a mach.Addr) *Line {
	i := c.find(a >> c.shift)
	if i < 0 {
		return nil
	}
	c.tick++
	c.used[i] = c.tick
	return &c.lines[i]
}

// victim selects the replacement way in line n's set: an invalid way if
// any, else the least recently used.
func (c *Cache) victim(n mach.Addr) int {
	s := int(n&c.setMask) * c.p.Assoc
	best := s
	for i := s; i < s+c.p.Assoc; i++ {
		if c.tags[i] == noTag {
			return i
		}
		if c.used[i] < c.used[best] {
			best = i
		}
	}
	return best
}

// Fill installs the line holding address a with the given words (copied)
// and returns it, with the displaced line if that was valid. data must
// have exactly one line's worth of words; it may alias an Evicted.Data of
// this cache. The new line is installed clean and most recently used.
func (c *Cache) Fill(a mach.Addr, data []mach.Word) (*Line, Evicted) {
	if len(data) != len(c.spare) {
		panic(fmt.Sprintf("cache: Fill with %d words, line holds %d", len(data), len(c.spare)))
	}
	n := a >> c.shift
	i := c.victim(n)
	v := &c.lines[i]
	var ev Evicted
	if c.tags[i] != noTag {
		ev = Evicted{Valid: true, Dirty: v.Dirty, Tag: c.tags[i], Data: v.Data}
		v.Data, c.spare = c.spare, v.Data
	}
	c.tags[i] = n
	v.Dirty = false
	copy(v.Data, data)
	c.tick++
	c.used[i] = c.tick
	return v, ev
}

// Invalidate drops the line holding address a if resident, returning its
// previous contents. The words stay in the invalid way's slot until a
// Fill reuses it.
func (c *Cache) Invalidate(a mach.Addr) Evicted {
	i := c.find(a >> c.shift)
	if i < 0 {
		return Evicted{}
	}
	l := &c.lines[i]
	ev := Evicted{Valid: true, Dirty: l.Dirty, Tag: c.tags[i], Data: l.Data}
	c.tags[i] = noTag
	l.Dirty = false
	return ev
}

// Lines calls fn for every valid line with the line's base byte address.
// For write-back flushes, inspection and tests.
func (c *Cache) Lines(fn func(base mach.Addr, l *Line)) {
	for i, t := range c.tags {
		if t != noTag {
			fn(c.geom.NumberToAddr(t), &c.lines[i])
		}
	}
}

// Count returns the number of valid lines.
func (c *Cache) Count() int {
	n := 0
	c.Lines(func(mach.Addr, *Line) { n++ })
	return n
}

// Capacity returns the number of physical frames (sets x ways).
func (c *Cache) Capacity() int { return len(c.lines) }

// Occupancy reports the cache's physical usage under the given label.
// Lines store words uncompressed, so every valid line occupies its full
// two half-words per word. When comp is non-nil, CompHalves is the
// resident lines' compressed size under that scheme. The hardware keeps
// it as tag metadata; the model derives it from the data on demand,
// since only inspection reads it.
func (c *Cache) Occupancy(level string, comp compress.Compressor) memsys.Occupancy {
	lines, compHalves := 0, 0
	c.Lines(func(base mach.Addr, l *Line) {
		lines++
		if comp != nil {
			compHalves += comp.LineHalves(l.Data, base)
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
