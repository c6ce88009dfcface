package hier

import (
	"fmt"

	"cppcache/internal/cache"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
)

// VictimConfig describes the VC hierarchy: the baseline caches plus a
// small fully associative victim cache between the L1 and the L2
// (Jouppi, ISCA 1990 — the same paper the prefetch buffers come from,
// reference [3] of the reproduced paper). It is a related-work
// comparison point: like CPP's affiliated placement it recovers conflict
// victims, but it needs dedicated storage and does not prefetch.
type VictimConfig struct {
	Config
	VictimEntries int
}

// VictimConfigDefault returns BC plus an 8-entry victim cache, matching
// the hardware budget of BCP's L1 prefetch buffer.
func VictimConfigDefault() VictimConfig {
	c := BaselineConfig()
	c.Name = "VC"
	return VictimConfig{Config: c, VictimEntries: 8}
}

// Victim is the VC hierarchy.
type Victim struct {
	Standard
	vcfg VictimConfig
	vc   *cache.Cache // fully associative, L1-sized lines
}

var _ memsys.System = (*Victim)(nil)

// NewVictim builds the VC hierarchy over main memory m.
func NewVictim(cfg VictimConfig, m *mem.Memory) (*Victim, error) {
	std, err := NewStandard(cfg.Config, m)
	if err != nil {
		return nil, err
	}
	if cfg.VictimEntries < 1 {
		return nil, fmt.Errorf("hier: victim cache needs at least one entry")
	}
	vc, err := cache.New(cache.Params{
		SizeBytes: cfg.VictimEntries * cfg.L1.LineBytes,
		Assoc:     cfg.VictimEntries,
		LineBytes: cfg.L1.LineBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("hier: victim cache: %w", err)
	}
	return &Victim{Standard: *std, vcfg: cfg, vc: vc}, nil
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
		l, ev := h.l1.Fill(a, buf.Data)
		l.Dirty = buf.Dirty
		h.spill(ev)
		return h.use(l, a, write, v), h.cfg.Lat.AffHit
	}

	h.stats.L1.Misses++
	h.obs.AttrMiss(a)
	l, lat := h.fetchIntoL1Victim(a)
	return h.use(l, a, write, v), lat
}

// fetchIntoL1Victim is Standard.fetchIntoL1 with victim-cache spill
// instead of direct write-back. It returns the filled L1 line.
func (h *Victim) fetchIntoL1Victim(a mach.Addr) (*cache.Line, int) {
	h.stats.L2.Accesses++
	lat := h.cfg.Lat.L2Hit
	l2line := h.l2.Access(a)
	if l2line == nil {
		h.stats.L2.Misses++
		l2line = h.fillL2(a, h.memFetchL2(a))
		lat = h.cfg.Lat.Mem
	}
	l, ev := h.l1.Fill(a, h.l2Window(l2line, h.g1.LineAddr(a)))
	h.spill(ev)
	return l, lat
}

// spill places an evicted L1 line into the victim cache; whatever the
// victim cache displaces is written back if dirty.
func (h *Victim) spill(ev cache.Evicted) {
	if !ev.Valid {
		return
	}
	l, out := h.vc.Fill(h.g1.NumberToAddr(ev.Tag), ev.Data)
	l.Dirty = ev.Dirty
	if out.Valid && out.Dirty {
		h.l2Writeback(out)
	}
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
