package core

import (
	"math/bits"

	"cppcache/internal/mach"
	"cppcache/internal/memsys"
)

// This file exports read-only views of the compression cache's internal
// state for the differential-verification harness (internal/verify), plus
// a fault injector its tests use to prove the invariant checkers detect
// real corruption. Nothing here is on the simulation hot path.

// levelCPC maps 1 -> L1, 2 -> L2, panicking on anything else (programming
// error in a checker).
func (h *Hierarchy) levelCPC(level int) *cpc {
	switch level {
	case 1:
		return h.l1
	case 2:
		return h.l2
	}
	panic("core: cache level must be 1 or 2")
}

// Occupancies implements memsys.Inspector. Compressed primary words and
// affiliated words count one half-word each; uncompressed primary words
// count two. A correct CPP level can never exceed its physical half-word
// capacity — the freed half-slots are the only place affiliated data may
// live.
func (h *Hierarchy) Occupancies() []memsys.Occupancy {
	out := make([]memsys.Occupancy, 0, 2)
	for level, c := range []*cpc{h.l1, h.l2} {
		occ := memsys.Occupancy{
			Level:   [...]string{"L1", "L2"}[level],
			LineCap: len(c.frames),
			HalfCap: len(c.frames) * c.geom.Words() * 2,
		}
		for k := range c.frames {
			f := &c.frames[k]
			if !f.valid {
				continue
			}
			occ.Lines++
			occ.Halves += 2*bits.OnesCount64(f.pa&^f.pc) + bits.OnesCount64(f.pa&f.pc) + bits.OnesCount64(f.aa)
		}
		out = append(out, occ)
	}
	return out
}

// AffWords calls fn for every affiliated word resident at the given level
// (1 or 2) with its byte address and decompressed value.
func (h *Hierarchy) AffWords(level int, fn func(a mach.Addr, v mach.Word)) {
	c := h.levelCPC(level)
	for k := range c.frames {
		f := &c.frames[k]
		if !f.valid {
			continue
		}
		partner := f.tag ^ c.mask
		for r := f.aa; r != 0; r &= r - 1 {
			i := bits.TrailingZeros64(r)
			a := c.wordAddr(partner, i)
			fn(a, c.readAff(f, i, a))
		}
	}
}

// PrimaryProbe returns the primary-stored value of the word at address a
// at the given level, if that word is available there. It does not touch
// LRU state.
func (h *Hierarchy) PrimaryProbe(level int, a mach.Addr) (mach.Word, bool) {
	c := h.levelCPC(level)
	n := c.geom.LineNumber(a)
	w := c.geom.WordIndex(a)
	if f := c.frameByTag(n); f != nil && f.pa&(1<<uint(w)) != 0 {
		return c.readPrimary(f, w, a), true
	}
	return 0, false
}

// CorruptForTest deliberately damages internal state so that
// internal/verify's tests can demonstrate each invariant checker catches
// real corruption. It reports whether a suitable victim was found.
//
// Kinds:
//   - "aff-word": flip payload bits of the first resident affiliated word,
//     so it decompresses to a value that no longer mirrors memory.
//   - "aa-orphan": set an AA flag on a slot whose primary word is not
//     stored compressed, breaking the structural storage rule.
//   - "flag-overflow": set a PA flag one bit past the last word of a line
//     shorter than 64 words, a slot the frame does not have.
func (h *Hierarchy) CorruptForTest(kind string) bool {
	for _, c := range []*cpc{h.l1, h.l2} {
		words := c.geom.Words()
		for k := range c.frames {
			f := &c.frames[k]
			if !f.valid {
				continue
			}
			switch kind {
			case "aff-word":
				if f.aa != 0 {
					c.ad[f.off+bits.TrailingZeros64(f.aa)] ^= 0x1 // stays compressible, wrong value
					return true
				}
			case "aa-orphan":
				if m := f.pa &^ f.pc &^ f.aa; m != 0 {
					f.aa |= m & -m
					return true
				}
			case "flag-overflow":
				if words < 64 {
					f.pa |= 1 << uint(words)
					return true
				}
			default:
				panic("core: unknown corruption kind " + kind)
			}
		}
	}
	return false
}
