package core

import (
	"fmt"
	"math/bits"

	"cppcache/internal/cache"
	"cppcache/internal/compress"
	"cppcache/internal/mach"
)

// frame is one physical cache frame of the compression cache (Figure 7).
// It hosts a primary line (tag) and, in the half-slots freed by compressed
// primary words, compressible words of the affiliated line tag^mask.
//
// The three flag bits of every word slot are held as per-frame bitmasks,
// bit i for slot i. The words themselves live in the level's slabs
// (cpc.pd, cpc.ad) at [off, off+words). Storage is faithful to the
// hardware: a compressible primary word and any affiliated word are held
// in their 16-bit compressed form and decompressed with the accessing
// address on each read.
type frame struct {
	tag   mach.Addr // primary line number
	used  uint64    // LRU timestamp
	valid bool
	dirty bool // primary line dirty (affiliated copies are always clean)

	pa uint64 // PA: primary word available
	pc uint64 // VCP: primary word stored compressed (implies pa)
	aa uint64 // AA: affiliated word present (implies pa && pc)

	off int // first slot of this frame's storage in the level's slabs
}

// window is a partial line in transit between the levels, or arriving
// from memory: per-slot availability and compressibility as bitmasks
// plus each slot's stored form — its 16-bit compressed value when
// compressible, its raw word otherwise. Words are compressed once, where
// they enter the hierarchy, and keep that form while they move between
// primary slots, affiliated half-slots and levels: no move changes a
// word's address, so the form stays valid. Windows are scratch buffers
// owned by the Hierarchy and reused across accesses, so the steady state
// allocates nothing.
type window struct {
	present uint64
	comp    uint64
	vals    []mach.Word
}

func newWindow(words int) window {
	return window{vals: make([]mach.Word, words)}
}

// reset empties the window for reuse.
func (w *window) reset() { w.present, w.comp = 0, 0 }

// has reports whether slot i holds a value.
func (w *window) has(i int) bool { return w.present&(1<<uint(i)) != 0 }

// full reports whether every slot is present.
func (w *window) full() bool { return w.present == lowMask(len(w.vals)) }

// count returns the number of present slots.
func (w *window) count() int { return bits.OnesCount64(w.present) }

// lowMask returns a mask of the low n bits (n <= 64).
func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// evicted describes a primary line displaced by install, in its stored
// form. Each cpc owns one evicted scratch, valid until that level's next
// install.
type evicted struct {
	window
	tag   mach.Addr
	dirty bool
}

// cpc is one level of the compression cache: a set-associative array of
// frames with true-LRU replacement and primary/affiliated lookup.
type cpc struct {
	p       cache.Params
	geom    mach.LineGeom
	mask    mach.Addr
	setMask mach.Addr
	frames  []frame // set s occupies frames[s*Assoc : (s+1)*Assoc]
	tick    uint64

	// Slabs holding every frame's words: pd the primary slots (16-bit
	// form in the low half when VCP is set, the raw word otherwise), ad
	// the affiliated half-slots.
	pd []mach.Word
	ad []compress.Compressed

	// evScratch backs the *evicted returned by install; it is valid until
	// this level's next install.
	evScratch evicted
}

func newCPC(p cache.Params, mask mach.Addr) (*cpc, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &cpc{
		p:       p,
		geom:    mach.LineGeom{LineBytes: p.LineBytes},
		mask:    mask,
		setMask: mach.Addr(p.Sets() - 1),
	}
	words := c.geom.Words()
	if words > 64 {
		// Frames and transfer windows track per-slot state in 64-bit
		// masks; 64 words (256-byte lines) is far beyond every geometry
		// the paper sweeps.
		return nil, fmt.Errorf("core: line size %d B exceeds the 64-word window limit", p.LineBytes)
	}
	c.evScratch.vals = make([]mach.Word, words)
	c.frames = make([]frame, p.Sets()*p.Assoc)
	for i := range c.frames {
		c.frames[i].off = i * words
	}
	c.pd = make([]mach.Word, len(c.frames)*words)
	c.ad = make([]compress.Compressed, len(c.frames)*words)
	return c, nil
}

// set returns the ways of line n's set.
func (c *cpc) set(n mach.Addr) []frame {
	s := int(n&c.setMask) * c.p.Assoc
	return c.frames[s : s+c.p.Assoc]
}

// frameByTag returns the frame whose primary line is n, or nil.
func (c *cpc) frameByTag(n mach.Addr) *frame {
	set := c.set(n)
	for i := range set {
		if set[i].valid && set[i].tag == n {
			return &set[i]
		}
	}
	return nil
}

// touch marks the frame most recently used.
func (c *cpc) touch(f *frame) {
	c.tick++
	f.used = c.tick
}

// victim selects the replacement frame in n's set: an invalid way if any,
// else the least recently used.
func (c *cpc) victim(n mach.Addr) *frame {
	set := c.set(n)
	best := &set[0]
	for i := range set {
		f := &set[i]
		if !f.valid {
			return f
		}
		if f.used < best.used {
			best = f
		}
	}
	return best
}

// wordAddr returns the byte address of word w of line n.
func (c *cpc) wordAddr(n mach.Addr, w int) mach.Addr {
	return c.geom.NumberToAddr(n) + mach.Addr(w*mach.WordBytes)
}

// readPrimary returns f's primary word at slot w, whose byte address is a,
// decompressing it if stored compressed. The caller must ensure PA.
func (c *cpc) readPrimary(f *frame, w int, a mach.Addr) mach.Word {
	v := c.pd[f.off+w]
	if f.pc&(1<<uint(w)) != 0 {
		return compress.Decompress(compress.Compressed(v), a)
	}
	return v
}

// readAff returns f's affiliated word at slot w, whose byte address is a.
// The caller must ensure AA.
func (c *cpc) readAff(f *frame, w int, a mach.Addr) mach.Word {
	return compress.Decompress(c.ad[f.off+w], a)
}

// writePrimary compresses v, a CPU store to f's slot w at byte address a,
// into the slot, setting PA and VCP. It reports whether v compressed. It
// does not touch the dirty bit or the affiliated half; callers handle the
// compressible -> incompressible interaction.
func (c *cpc) writePrimary(f *frame, w int, a mach.Addr, v mach.Word) bool {
	bit := uint64(1) << uint(w)
	cv, ok := compress.Compress(v, a)
	if ok {
		c.pd[f.off+w] = mach.Word(cv)
		f.pc |= bit
	} else {
		c.pd[f.off+w] = v
		f.pc &^= bit
	}
	f.pa |= bit
	return ok
}

// putPrimary stores the stored-form words of src selected by m (bit i of
// m is slot i of src) into f's primary slots starting at slot off, with
// VCP taken from src.comp. It returns the slots written, in f's indexing.
func (c *cpc) putPrimary(f *frame, off int, src *window, m uint64) uint64 {
	for r := m; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		c.pd[f.off+off+i] = src.vals[i]
	}
	placed := m << uint(off)
	f.pa |= placed
	f.pc = f.pc&^placed | src.comp<<uint(off)&placed
	return placed
}

// putAff stores the 16-bit forms of src's slots selected by m into f's
// affiliated half-slots and sets AA. Every selected slot must be
// compressible.
func (c *cpc) putAff(f *frame, src *window, m uint64) {
	for r := m; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		c.ad[f.off+i] = compress.Compressed(src.vals[i])
	}
	f.aa |= m
}

// install merges line n's payload pl into a resident partial frame, or
// installs a fresh frame (choosing and extracting a victim). aff carries
// prefetched words of line n^mask; they are accepted only into slots whose
// primary word is present and compressible, and are discarded wholesale if
// the partner line is primary-resident (§3.3: "the prefetched affiliated
// line is discarded if it is already in the cache"). install returns the
// displaced line, if any, for the hierarchy to write back and place.
func (c *cpc) install(n mach.Addr, pl, aff *window, prefCtr *int64) *evicted {
	partner := n ^ c.mask
	partnerResident := c.frameByTag(partner) != nil

	f := c.frameByTag(n)
	var ev *evicted
	if f == nil {
		f = c.victim(n)
		if f.valid {
			ev = &c.evScratch
			ev.tag = f.tag
			ev.dirty = f.dirty
			ev.present, ev.comp = f.pa, f.pc
			copy(ev.vals, c.pd[f.off:])
			// Eviction also drops the frame's affiliated copies (of
			// f.tag^mask); they are clean mirrors, safe to lose.
		}
		f.valid, f.dirty, f.tag = true, false, n
		f.pa, f.pc, f.aa = 0, 0, 0
		// The victim may have been the partner line itself; recompute.
		partnerResident = c.frameByTag(partner) != nil
	}

	// Merge payload into empty slots only: resident words are newer
	// (they may be dirty) than anything arriving from below.
	c.putPrimary(f, 0, pl, pl.present&^f.pa)

	// An affiliated copy of n elsewhere is now redundant: n is primary.
	// Salvage its words into still-missing slots first (they are clean
	// mirrors, at least as fresh as the payload), then drop it.
	if pf := c.frameByTag(partner); pf != nil {
		salvage := pf.aa &^ f.pa
		for r := salvage; r != 0; r &= r - 1 {
			i := bits.TrailingZeros64(r)
			c.pd[f.off+i] = mach.Word(c.ad[pf.off+i])
		}
		f.pa |= salvage
		f.pc |= salvage
		pf.aa = 0
	}

	// Accept affiliated prefetch data.
	if !partnerResident {
		accept := aff.present & aff.comp & f.pa & f.pc &^ f.aa
		c.putAff(f, aff, accept)
		if prefCtr != nil {
			*prefCtr += int64(bits.OnesCount64(accept))
		}
	}

	c.touch(f)
	return ev
}

// placeVictim salvages an evicted line's compressible words into its
// affiliated place — the frame whose primary line is the victim's partner
// — where that frame's primary words are present and compressible. Only a
// clean partial copy is kept (§3.3). It reports whether any word was
// placed.
func (c *cpc) placeVictim(ev *evicted) bool {
	target := c.frameByTag(ev.tag ^ c.mask)
	if target == nil {
		return false
	}
	place := ev.present & ev.comp & target.pa & target.pc
	c.putAff(target, &ev.window, place)
	return place != 0
}

// checkInvariants validates the structural invariants of the level.
func (c *cpc) checkInvariants(level string) error {
	words := c.geom.Words()
	beyond := ^lowMask(words)
	for k := range c.frames {
		f := &c.frames[k]
		if !f.valid {
			continue
		}
		s := k / c.p.Assoc
		if int(f.tag&c.setMask) != s {
			return fmt.Errorf("%s: frame tag %#x in wrong set %d", level, f.tag, s)
		}
		for _, g := range c.set(f.tag)[:k%c.p.Assoc] {
			if g.valid && g.tag == f.tag {
				return fmt.Errorf("%s: duplicate primary line %#x in set %d", level, f.tag, s)
			}
		}
		if m := (f.pa | f.pc | f.aa) & beyond; m != 0 {
			return fmt.Errorf("%s: line %#x: flag bit %d set past the line's %d words", level, f.tag, bits.TrailingZeros64(m), words)
		}
		if m := f.pc &^ f.pa; m != 0 {
			return fmt.Errorf("%s: line %#x word %d: VCP without PA", level, f.tag, bits.TrailingZeros64(m))
		}
		if m := f.aa &^ (f.pa & f.pc); m != 0 {
			return fmt.Errorf("%s: line %#x word %d: AA without compressible primary", level, f.tag, bits.TrailingZeros64(m))
		}
		for r := f.pa & f.pc; r != 0; r &= r - 1 {
			i := bits.TrailingZeros64(r)
			if stored := c.pd[f.off+i]; stored>>16 != 0 {
				return fmt.Errorf("%s: line %#x word %d: compressed slot holds %#x, wider than 16 bits", level, f.tag, i, stored)
			}
			a := c.wordAddr(f.tag, i)
			if v := c.readPrimary(f, i, a); !compress.Compressible(v, a) {
				return fmt.Errorf("%s: line %#x word %d: compressed slot holds incompressible value %#x", level, f.tag, i, v)
			}
		}
		// Single-copy: if this frame holds affiliated words of
		// f.tag^mask, that line must not be primary-resident.
		if f.aa != 0 && c.frameByTag(f.tag^c.mask) != nil {
			return fmt.Errorf("%s: line %#x resident both as primary and as affiliated copy", level, f.tag^c.mask)
		}
	}
	return nil
}
