// Package core implements the paper's contribution: the CPP
// (Compression-enabled Partial cache line Prefetching) two-level cache
// hierarchy (§3).
//
// Every physical cache frame holds a primary line and, in the half-slots
// freed by storing compressible words in 16-bit form, the compressible
// words of that line's affiliated line — the unique line whose number is
// the primary line's number XOR a mask (0x1, i.e. next-line prefetch).
// Each word slot carries three flag bits: PA (primary available), AA
// (affiliated available) and VCP (primary value compressible). A word can
// sit in the affiliated half-slot only if it is compressible and the
// primary word sharing its slot is compressible too.
//
// Values are genuinely stored compressed: a compressible primary word and
// every affiliated word live in the cache as 16-bit compress.Compressed
// values and are decompressed with the accessing address on every read, so
// a compression bug would surface as a wrong loaded value, not just a
// wrong statistic.
package core

import (
	"fmt"
	"math/bits"

	"cppcache/internal/cache"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/obs"
)

// Config describes a CPP hierarchy.
type Config struct {
	Name string
	L1   cache.Params
	L2   cache.Params
	Lat  memsys.Latencies

	// Mask selects the affiliated line: affiliated(n) = n XOR Mask on
	// line numbers. The paper uses 0x1 ("the primary and affiliated
	// cache lines are consecutive lines of data ... the next line
	// prefetch policy"). Other masks are an ablation knob.
	Mask mach.Addr

	// VictimPlacement enables salvaging an evicted primary line's
	// compressible words into its affiliated place (§3.3: "before
	// discarding a replaced cache line, we check to see if it is
	// possible to put the line into its affiliated place"). Disabling it
	// is an ablation.
	VictimPlacement bool
}

// DefaultConfig returns the paper's CPP configuration: the BC geometry
// (8K direct-mapped L1 with 64 B lines, 64K 2-way L2 with 128 B lines)
// with next-line affiliation and victim placement enabled.
func DefaultConfig() Config {
	return Config{
		Name:            "CPP",
		L1:              cache.Params{SizeBytes: 8 << 10, Assoc: 1, LineBytes: 64},
		L2:              cache.Params{SizeBytes: 64 << 10, Assoc: 2, LineBytes: 128},
		Lat:             memsys.DefaultLatencies(),
		Mask:            0x1,
		VictimPlacement: true,
	}
}

// Hierarchy is the CPP two-level cache hierarchy over main memory.
type Hierarchy struct {
	cfg   Config
	l1    *cpc
	l2    *cpc
	mem   *mem.Memory
	stats memsys.Stats

	// obs, when non-nil, receives structured events and fill-word
	// compressibility counts; a nil recorder costs one branch per hook.
	obs *obs.Recorder

	// Per-access scratch, reused so the steady-state access path performs
	// no heap allocation. Lifetimes are disjoint by construction: probeW
	// and affW carry L1-sized transfers into l1.install; wbPl/wbAff carry
	// an L1 write-back into l2.install; l2Pl/l2Aff (with the memLine
	// staging buffers) carry a memory fetch into l2.install.
	probeW  window
	affW    window
	wbPl    window
	wbAff   window
	l2Pl    window
	l2Aff   window
	memLine []mach.Word
	memAff  []mach.Word
}

var _ memsys.System = (*Hierarchy)(nil)

// New builds a CPP hierarchy over main memory m.
func New(cfg Config, m *mem.Memory) (*Hierarchy, error) {
	if cfg.Mask == 0 {
		return nil, fmt.Errorf("core: affiliated mask must be nonzero")
	}
	if cfg.L2.LineBytes < cfg.L1.LineBytes {
		return nil, fmt.Errorf("core: L2 line (%d B) smaller than L1 line (%d B)", cfg.L2.LineBytes, cfg.L1.LineBytes)
	}
	l1, err := newCPC(cfg.L1, cfg.Mask)
	if err != nil {
		return nil, fmt.Errorf("core: L1: %w", err)
	}
	l2, err := newCPC(cfg.L2, cfg.Mask)
	if err != nil {
		return nil, fmt.Errorf("core: L2: %w", err)
	}
	h := &Hierarchy{cfg: cfg, l1: l1, l2: l2, mem: m}
	w1, w2 := l1.geom.Words(), l2.geom.Words()
	h.probeW = newWindow(w1)
	h.affW = newWindow(w1)
	h.wbPl = newWindow(w2)
	h.wbAff = newWindow(w2)
	h.l2Pl = newWindow(w2)
	h.l2Aff = newWindow(w2)
	h.memLine = make([]mach.Word, w2)
	h.memAff = make([]mach.Word, w2)
	return h, nil
}

// Name implements memsys.System.
func (h *Hierarchy) Name() string { return h.cfg.Name }

// Stats implements memsys.System.
func (h *Hierarchy) Stats() *memsys.Stats { return &h.stats }

// SetRecorder implements obs.Attachable: it attaches the observability
// recorder (nil detaches) and connects the statistics block for interval
// snapshotting.
func (h *Hierarchy) SetRecorder(r *obs.Recorder) {
	h.obs = r
	r.AttachStats(&h.stats)
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Read implements memsys.System.
func (h *Hierarchy) Read(a mach.Addr) (mach.Word, int) { return h.access(a, false, 0) }

// Write implements memsys.System.
func (h *Hierarchy) Write(a mach.Addr, v mach.Word) int {
	_, lat := h.access(a, true, v)
	return lat
}

// access is the shared demand read/write path. Its three paths are a
// primary hit, an affiliated hit and a miss; the primary hit and the miss
// end on an available primary word, as does a write's affiliated hit,
// which first promotes the line. A write returns 0.
func (h *Hierarchy) access(a mach.Addr, write bool, v mach.Word) (mach.Word, int) {
	a = mach.WordAlign(a)
	h.stats.L1.Accesses++
	n := h.l1.geom.LineNumber(a)
	w := h.l1.geom.WordIndex(a)
	bit := uint64(1) << uint(w)

	lat := h.cfg.Lat.L1Hit
	f := h.l1.frameByTag(n)
	if f != nil && f.pa&bit != 0 {
		h.l1.touch(f)
	} else if af := h.l1.frameByTag(n ^ h.cfg.Mask); af != nil && af.aa&bit != 0 {
		// The affiliated place: frame whose primary line is n's partner.
		h.l1.touch(af)
		h.stats.AffHitsL1++
		lat = h.cfg.Lat.AffHit
		if !write {
			h.obs.Event(obs.EvAffHitL1, a, 0)
			h.obs.AttrAffHit(a)
			return h.l1.readAff(af, w, a), lat
		}
		// §3.3: "a write hit in the affiliated cache line will bring the
		// line to its primary place". The promoted line keeps the words
		// held in the affiliated place plus whatever the L2 has on chip;
		// no memory access is needed.
		h.stats.Promotions++
		h.obs.Event(obs.EvPromote, a, 0)
		h.obs.AttrAffHit(a)
		f = h.promoteL1(n)
	} else {
		h.stats.L1.Misses++
		h.obs.AttrMiss(a)
		f, lat = h.fillL1(n, w)
	}
	if f.pa&bit == 0 {
		panic("core: word absent after L1 fill or promotion")
	}
	if write {
		h.writePrimaryWord(f, w, a, v)
		return 0, lat
	}
	return h.l1.readPrimary(f, w, a), lat
}

// writePrimaryWord stores v into an available primary word, handling the
// compressible -> incompressible transition: the primary word wins the
// full slot and the affiliated word sharing it is evicted (§3.3).
func (h *Hierarchy) writePrimaryWord(f *frame, w int, a mach.Addr, v mach.Word) {
	bit := uint64(1) << uint(w)
	wasComp := f.pc&bit != 0
	if !h.l1.writePrimary(f, w, a, v) && wasComp && f.aa&bit != 0 {
		f.aa &^= bit
		h.stats.ConflictEvictions++
		h.obs.Event(obs.EvCompTransition, a, 0)
	}
	f.dirty = true
}

// fillL1 fetches L1 line n from the L2 side and installs it (merging into
// a partial resident line when one exists), returning its frame and the
// access latency. needWord is the word index that must be available
// afterwards.
func (h *Hierarchy) fillL1(n mach.Addr, needWord int) (*frame, int) {
	pl, lat := h.serveFromL2(n, needWord)

	// Affiliated prefetch data for line n^Mask rides along for free where
	// both halves of a slot are compressible (§3.1): keep exactly the
	// slots whose primary word is present and compressible — one mask
	// intersection over the precomputed per-line bitmaps.
	aff, _, _ := h.probeL2Into(&h.affW, n^h.cfg.Mask)
	aff.present &= aff.comp & pl.present & pl.comp

	return h.installL1(n, pl, aff), lat
}

// promoteL1 moves line n from its affiliated place to its primary place,
// combining the affiliated words with whatever the L2 holds on chip, and
// returns its frame.
func (h *Hierarchy) promoteL1(n mach.Addr) *frame {
	pl, _, _ := h.probeL2Into(&h.probeW, n) // on-chip words only; no memory access
	// No affiliated payload accompanies a promotion: the line's partner
	// is primary-resident in L1 (it hosted the affiliated copy), so its
	// data must not be duplicated.
	h.affW.reset()
	return h.installL1(n, pl, &h.affW)
}

// installL1 installs (or merges) line n with payload pl and affiliated
// payload aff, handling eviction, write-back and victim placement, and
// returns n's frame.
func (h *Hierarchy) installL1(n mach.Addr, pl, aff *window) *frame {
	var affBefore int64
	if h.obs.TraceEnabled() {
		affBefore = h.stats.AffWordsPrefetchedL1
	}
	f, ev := h.l1.install(n, pl, aff, &h.stats.AffWordsPrefetchedL1)
	if ev != nil {
		h.obs.Event(obs.EvEvictL1, h.l1.geom.NumberToAddr(ev.tag), b2i(ev.dirty))
		if ev.dirty {
			h.writebackL1Victim(ev)
		}
		if h.cfg.VictimPlacement {
			if h.l1.placeVictim(ev) {
				h.stats.AffPlacements++
				h.obs.Event(obs.EvVictimPlace, h.l1.geom.NumberToAddr(ev.tag), 0)
			}
		}
	}
	if h.obs.TraceEnabled() {
		h.obs.Event(obs.EvFillL1, h.l1.geom.NumberToAddr(n), int64(pl.count()))
		if d := h.stats.AffWordsPrefetchedL1 - affBefore; d > 0 {
			h.obs.Event(obs.EvAffPrefetch, h.l1.geom.NumberToAddr(n^h.cfg.Mask), d)
		}
	}
	if !pl.full() {
		h.stats.PartialFillsL1++
	}
	return f
}

// b2i renders a flag as an event-aux value.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// writebackL1Victim sends a dirty L1 victim's available words toward
// memory: merged into the L2 primary copy when resident, else written to
// memory (refreshing any clean affiliated mirror the L2 holds).
func (h *Hierarchy) writebackL1Victim(ev *evicted) {
	h.stats.L1.Writebacks++
	base := h.l1.geom.NumberToAddr(ev.tag)
	N := h.l2.geom.LineNumber(base)
	off := h.l2.geom.WordIndex(base)

	if f := h.l2.frameByTag(N); f != nil {
		// A compressible word overwritten by an incompressible one takes
		// the full slot back from the affiliated word sharing it.
		wasComp := f.pc
		placed := h.l2.putPrimary(f, off, &ev.window, ev.present)
		lost := placed & wasComp &^ f.pc & f.aa
		f.aa &^= lost
		h.stats.ConflictEvictions += int64(bits.OnesCount64(lost))
		f.dirty = true
		return
	}

	// Not primary-resident in L2 (the line may exist only as a clean
	// affiliated mirror, or not at all): write-allocate a partial primary
	// L2 line. install drops the now-redundant affiliated mirror after
	// salvaging its words into the slots the write-back does not cover,
	// so the single-copy invariant holds and no stale prefetch data can
	// be served. The dirty data stays on chip; it reaches memory only
	// when the L2 eventually evicts the line.
	h.stats.L1WbOffChip++
	pl := &h.wbPl
	pl.present = ev.present << uint(off)
	pl.comp = ev.comp << uint(off)
	copy(pl.vals[off:], ev.vals)
	h.wbAff.reset()
	h.installL2(N, pl, &h.wbAff).dirty = true
}

// installL2 installs (or merges) L2 line N, handling the victim's
// write-back and affiliated placement, and returns N's frame. Shared by
// the memory-fetch and write-back-allocate paths.
func (h *Hierarchy) installL2(N mach.Addr, pl, aff *window) *frame {
	var affBefore int64
	if h.obs.TraceEnabled() {
		affBefore = h.stats.AffWordsPrefetchedL2
	}
	f, ev := h.l2.install(N, pl, aff, &h.stats.AffWordsPrefetchedL2)
	if ev != nil {
		h.obs.Event(obs.EvEvictL2, h.l2.geom.NumberToAddr(ev.tag), b2i(ev.dirty))
		if ev.dirty {
			h.writebackL2Victim(ev)
		}
		if h.cfg.VictimPlacement {
			if h.l2.placeVictim(ev) {
				h.stats.AffPlacements++
				h.obs.Event(obs.EvVictimPlace, h.l2.geom.NumberToAddr(ev.tag), 0)
			}
		}
	}
	if h.obs.TraceEnabled() {
		h.obs.Event(obs.EvFillL2, h.l2.geom.NumberToAddr(N), int64(pl.count()))
		if d := h.stats.AffWordsPrefetchedL2 - affBefore; d > 0 {
			h.obs.Event(obs.EvAffPrefetch, h.l2.geom.NumberToAddr(N^h.cfg.Mask), d)
		}
	}
	return f
}
