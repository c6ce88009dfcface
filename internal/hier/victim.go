package hier

import (
	"cppcache/internal/cache"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
)

// victimEntries sizes VC's victim cache, matching the hardware budget of
// BCP's L1 prefetch buffer.
const victimEntries = 8

// VictimConfig returns the VC configuration: the baseline caches, to which
// NewVictim adds a small fully associative victim cache between the L1
// and the L2 (Jouppi, ISCA 1990 — the same paper the prefetch buffers come
// from, reference [3] of the reproduced paper). It is a related-work
// comparison point: like CPP's affiliated placement it recovers conflict
// victims, but it needs dedicated storage and does not prefetch.
func VictimConfig() Config {
	c := BaselineConfig()
	c.Name = "VC"
	return c
}

// Victim is the VC hierarchy.
type Victim struct {
	Standard
	vc *cache.Cache // fully associative, L1-sized lines
}

var _ memsys.System = (*Victim)(nil)

// NewVictim builds the VC hierarchy over main memory m.
func NewVictim(cfg Config, m *mem.Memory) (*Victim, error) {
	std, err := NewStandard(cfg, m)
	if err != nil {
		return nil, err
	}
	return &Victim{Standard: *std, vc: fullyAssoc(victimEntries, cfg.L1.LineBytes)}, nil
}

// access is the shared read/write path. An L1 hit costs one tag search.
func (h *Victim) access(a mach.Addr, write bool, v mach.Word) (mach.Word, int) {
	a = mach.WordAlign(a)
	h.stats.L1.Accesses++
	if l := h.l1.Access(a); l != nil {
		return h.use(l, a, write, v), h.cfg.Lat.L1Hit
	}

	// Victim-cache hit: swap the line back into the L1. Jouppi charges
	// one extra cycle for the swap; we use the affiliated-hit latency,
	// which models the same "next cycle" penalty. The invalidated entry's
	// words stay put until the victim cache's next Fill, so the L1 fill
	// copies them straight out of it.
	if buf := h.vc.Invalidate(a); buf.Valid {
		h.stats.PfBufHitsL1++ // reuse the buffer-hit counter for VC hits
		l := h.fillL1(a, buf.Data)
		l.Dirty = buf.Dirty
		return h.use(l, a, write, v), h.cfg.Lat.AffHit
	}

	h.stats.L1.Misses++
	h.obs.AttrMiss(a)
	l2line, lat := h.fetchL2(a)
	l := h.fillL1(a, h.l2Window(l2line, h.g1.LineAddr(a)))
	return h.use(l, a, write, v), lat
}

// fillL1 is Standard.fillL1 with the displaced line spilled into the
// victim cache instead of written back; whatever the victim cache
// displaces is written back if dirty. It returns the filled line.
func (h *Victim) fillL1(a mach.Addr, data []mach.Word) *cache.Line {
	l, ev := h.Standard.fillL1(a, data)
	if !ev.Valid {
		return l
	}
	spilled, out := h.vc.Fill(h.g1.NumberToAddr(ev.Tag), ev.Data)
	spilled.Dirty = ev.Dirty
	if out.Valid && out.Dirty {
		h.l2Writeback(out.Tag, out.Data)
	}
	return l
}

// Read implements memsys.System.
func (h *Victim) Read(a mach.Addr) (mach.Word, int) { return h.access(a, false, 0) }

// Write implements memsys.System.
func (h *Victim) Write(a mach.Addr, v mach.Word) int {
	_, lat := h.access(a, true, v)
	return lat
}

// Drain flushes dirty lines, including the victim cache, to memory. The
// victim cache flushes last: its lines were evicted from the L1 without
// an L2 write-back, so they are fresher than any L2 copy the standard
// drain writes out.
func (h *Victim) Drain() {
	h.Standard.Drain()
	h.vc.Lines(func(base mach.Addr, l *cache.Line) {
		if l.Dirty {
			h.mem.WriteLine(base, l.Data)
			l.Dirty = false
		}
	})
}
