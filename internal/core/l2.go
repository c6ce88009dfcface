package core

import (
	"math/bits"

	"cppcache/internal/compress"
	"cppcache/internal/mach"
	"cppcache/internal/obs"
)

// probeL2Into fills dst with the on-chip availability of L1 line n at the
// L2: which of its words the L2 currently holds (as primary or affiliated
// data), in their stored form, and their compressibility. It never
// triggers a fetch — the L1<->L2 interface is word-based and a partial
// answer is acceptable (§3.1). The second result reports whether the words
// came from affiliated storage (for statistics). dst is one of the
// Hierarchy's scratch windows; the filled window is returned for
// convenience.
func (h *Hierarchy) probeL2Into(dst *window, n mach.Addr) (*window, bool) {
	words := h.l1.geom.Words()
	dst.reset()
	base := h.l1.geom.NumberToAddr(n)
	N := h.l2.geom.LineNumber(base)
	off := h.l2.geom.WordIndex(base)
	sel := lowMask(words)

	if f := h.l2.frameByTag(N); f != nil {
		dst.present = f.pa >> uint(off) & sel
		dst.comp = f.pc >> uint(off) & sel
		copy(dst.vals, h.l2.pd[f.off+off:])
		return dst, false
	}
	if af := h.l2.frameByTag(N ^ h.cfg.Mask); af != nil {
		// Affiliated words are compressible by construction.
		dst.present = af.aa >> uint(off) & sel
		dst.comp = dst.present
		for r := dst.present; r != 0; r &= r - 1 {
			i := bits.TrailingZeros64(r)
			dst.vals[i] = mach.Word(h.l2.ad[af.off+off+i])
		}
	}
	return dst, true
}

// serveFromL2 satisfies an L1 demand for word needWord of L1 line n.
// If the word is on chip (primary or affiliated storage, possibly a
// partial line), that is an L2 hit and only the available words are
// returned (§3.1: "we do not always enforce a complete line from the L2
// cache as long as the requested data item is found"). Otherwise the L2
// fetches from memory. Returns the payload and the total latency.
func (h *Hierarchy) serveFromL2(n mach.Addr, needWord int) (*window, int) {
	h.stats.L2.Accesses++
	pl, fromAff := h.probeL2Into(&h.probeW, n)
	if pl.has(needWord) {
		if fromAff {
			h.stats.AffHitsL2++
			h.obs.Event(obs.EvAffHitL2, h.l1.geom.NumberToAddr(n), 0)
			h.obs.AttrAffHit(h.l1.geom.NumberToAddr(n))
		}
		h.touchL2(n)
		return pl, h.cfg.Lat.L2Hit
	}
	h.stats.L2.Misses++
	base := h.l1.geom.NumberToAddr(n)
	h.fetchL2FromMem(h.l2.geom.LineNumber(base))
	pl, _ = h.probeL2Into(&h.probeW, n)
	if !pl.has(needWord) {
		panic("core: word absent after L2 memory fetch")
	}
	return pl, h.cfg.Lat.Mem
}

// touchL2 refreshes LRU state for the frame serving L1 line n.
func (h *Hierarchy) touchL2(n mach.Addr) {
	base := h.l1.geom.NumberToAddr(n)
	N := h.l2.geom.LineNumber(base)
	if f := h.l2.frameByTag(N); f != nil {
		h.l2.touch(f)
		return
	}
	if af := h.l2.frameByTag(N ^ h.cfg.Mask); af != nil {
		h.l2.touch(af)
	}
}

// fetchL2FromMem fetches L2 line N from memory together with its
// affiliated line N^Mask (§3.3, L2-memory interface: "both the primary and
// the affiliated lines are fetched. However, before returning the data,
// the cache lines are compressed and only available places from the
// primary line are used to store the compressible items from the
// affiliated line. The memory bandwidth is still the same as before.").
func (h *Hierarchy) fetchL2FromMem(N mach.Addr) {
	words := h.l2.geom.Words()
	base := h.l2.geom.NumberToAddr(N)
	partner := N ^ h.cfg.Mask
	pbase := h.l2.geom.NumberToAddr(partner)

	data := h.memLine
	h.mem.ReadLine(base, data)
	affData := h.memAff
	h.mem.ReadLine(pbase, affData)

	// Bus cost: exactly one uncompressed line's worth of bandwidth; the
	// affiliated words travel in the slack left by compressed words.
	h.stats.MemReadHalves += int64(2 * words)

	// Each word is compressed once, here, where it enters the hierarchy.
	// The affiliated word rides only in the half-slot a compressible
	// primary word frees.
	pl, aff := &h.l2Pl, &h.l2Aff
	pl.reset()
	aff.reset()
	for i := 0; i < words; i++ {
		bit := uint64(1) << uint(i)
		c, ok := compress.Compress(data[i], base+mach.Addr(i*mach.WordBytes))
		if !ok {
			pl.vals[i] = data[i]
			continue
		}
		pl.vals[i] = mach.Word(c)
		pl.comp |= bit
		if ca, ok := compress.Compress(affData[i], pbase+mach.Addr(i*mach.WordBytes)); ok {
			aff.vals[i] = mach.Word(ca)
			aff.present |= bit
		}
	}
	pl.present = lowMask(words)
	aff.comp = aff.present
	compCount := int64(bits.OnesCount64(pl.comp))
	h.obs.FillWords(int64(words), compCount)
	h.obs.AttrFillFail(base, int64(words)-compCount)

	h.installL2(N, pl, aff)
}

// writebackL2Victim writes a dirty L2 victim's available words to memory.
// The transfer is compressed: a compressible word costs one half-word on
// the bus.
func (h *Hierarchy) writebackL2Victim(ev *evicted) {
	h.stats.L2.Writebacks++
	base := h.l2.geom.NumberToAddr(ev.tag)
	var halves int64
	for r := ev.present; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		a := base + mach.Addr(i*mach.WordBytes)
		v := ev.vals[i]
		if ev.comp&(1<<uint(i)) != 0 {
			v = compress.Decompress(compress.Compressed(v), a)
			halves++
		} else {
			halves += 2
		}
		h.mem.WriteWord(a, v)
	}
	h.stats.MemWriteHalves += halves
}

// CheckInvariants validates the structural invariants of both levels plus
// the cross-level cleanliness rule. Tests call it periodically; it is not
// used on the hot path.
func (h *Hierarchy) CheckInvariants() error {
	if err := h.l1.checkInvariants("L1"); err != nil {
		return err
	}
	return h.l2.checkInvariants("L2")
}

// Drain flushes every dirty line down to memory, L1 first so the freshest
// data wins. Diagnostic only: traffic is not accounted.
func (h *Hierarchy) Drain() {
	flush := func(c *cpc) {
		for k := range c.frames {
			f := &c.frames[k]
			if !f.valid || !f.dirty {
				continue
			}
			for r := f.pa; r != 0; r &= r - 1 {
				i := bits.TrailingZeros64(r)
				a := c.wordAddr(f.tag, i)
				h.mem.WriteWord(a, c.readPrimary(f, i, a))
			}
			f.dirty = false
		}
	}
	// L2 first, then L1 overwrites with fresher words.
	flush(h.l2)
	flush(h.l1)
}
