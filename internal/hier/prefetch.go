package hier

import (
	"fmt"

	"cppcache/internal/cache"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/obs"
)

// PrefetchConfig describes the BCP hierarchy: the baseline caches plus
// hardware next-line prefetching with dedicated fully associative prefetch
// buffers ("we invest the hardware cost in BCC/CPP to cache prefetch
// buffers. A 8-entry prefetch buffer is used to help the L1 cache and a
// 32-entry prefetch buffer is used to help the L2 cache. Both are fully
// associative with LRU replacement").
type PrefetchConfig struct {
	Config
	L1BufEntries int
	L2BufEntries int
	// Degree is how many consecutive next lines a miss prefetches
	// (1 = the paper's next-line policy; more is an ablation).
	Degree int
}

// PrefetchConfigDefault returns the paper's BCP configuration.
func PrefetchConfigDefault() PrefetchConfig {
	c := BaselineConfig()
	c.Name = "BCP"
	return PrefetchConfig{Config: c, L1BufEntries: 8, L2BufEntries: 32, Degree: 1}
}

// Prefetch is the BCP hierarchy: Standard plus prefetch-on-miss next-line
// prefetching into per-level buffers. A demand access that hits a prefetch
// buffer moves the line into the cache and is not counted as a miss (§4.4:
// "it is not considered as a cache miss in BCP if an access can find its
// data item from prefetch buffer").
type Prefetch struct {
	Standard
	pcfg PrefetchConfig
	pf1  *cache.Cache // holds L1-sized lines
	pf2  *cache.Cache // holds L2-sized lines

	// Line-sized scratch buffers for buffer-hit moves and prefetch
	// sourcing. cache.Fill copies its data argument before returning, so
	// handing it a scratch slice is safe, and reusing the two slices keeps
	// the prefetch path allocation-free in steady state (it used to
	// allocate three line copies per miss, ~19 k allocations per run).
	scr1 []mach.Word // one L1 line
	scr2 []mach.Word // one L2 line
}

var _ memsys.System = (*Prefetch)(nil)

// NewPrefetch builds the BCP hierarchy over main memory m.
func NewPrefetch(cfg PrefetchConfig, m *mem.Memory) (*Prefetch, error) {
	std, err := NewStandard(cfg.Config, m)
	if err != nil {
		return nil, err
	}
	if cfg.L1BufEntries < 1 || cfg.L2BufEntries < 1 {
		return nil, fmt.Errorf("hier: prefetch buffers need at least one entry")
	}
	pf1, err := cache.New(cache.Params{
		SizeBytes: cfg.L1BufEntries * cfg.L1.LineBytes,
		Assoc:     cfg.L1BufEntries,
		LineBytes: cfg.L1.LineBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("hier: L1 prefetch buffer: %w", err)
	}
	pf2, err := cache.New(cache.Params{
		SizeBytes: cfg.L2BufEntries * cfg.L2.LineBytes,
		Assoc:     cfg.L2BufEntries,
		LineBytes: cfg.L2.LineBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("hier: L2 prefetch buffer: %w", err)
	}
	return &Prefetch{
		Standard: *std, pcfg: cfg, pf1: pf1, pf2: pf2,
		scr1: make([]mach.Word, std.g1.Words()),
		scr2: make([]mach.Word, std.g2.Words()),
	}, nil
}

// access is the shared demand read/write path; write performs the store
// after the line is resident.
func (h *Prefetch) access(a mach.Addr, write bool, v mach.Word) (mach.Word, int) {
	a = mach.WordAlign(a)
	h.stats.L1.Accesses++

	finish := func(lat int) (mach.Word, int) {
		if write {
			if !h.l1.WriteWord(a, v) {
				panic("hier: word absent after prefetch fill on write")
			}
			return 0, lat
		}
		rv, ok := h.l1.ReadWord(a)
		if !ok {
			panic("hier: word absent after prefetch fill")
		}
		return rv, lat
	}

	if h.l1.Probe(a) != nil {
		h.l1.Access(a) // LRU touch
		return finish(h.cfg.Lat.L1Hit)
	}

	// L1 prefetch-buffer hit: move the line into the cache; not a miss.
	if buf := h.pf1.Probe(a); buf != nil {
		h.stats.PfBufHitsL1++
		h.obs.Event(obs.EvPfBufHit, h.g1.LineAddr(a), 1)
		copy(h.scr1, buf.Data)
		h.pf1.Invalidate(a)
		if ev := h.l1.Fill(a, h.scr1); ev.Valid && ev.Dirty {
			h.l2Writeback(ev)
			h.dropStaleBuffers(h.g1.NumberToAddr(ev.Tag))
		}
		// Strict prefetch-on-miss (§2.2): a buffer hit is not a miss, so
		// it does not trigger another prefetch.
		return finish(h.cfg.Lat.L1Hit)
	}

	// Demand miss.
	h.stats.L1.Misses++
	h.obs.AttrMiss(a)
	lat := h.fetchIntoL1WithBuffers(a)
	for d := 1; d <= h.degree(); d++ {
		h.prefetchL1(h.g1.LineAddr(a) + mach.Addr(d*h.g1.LineBytes))
	}
	return finish(lat)
}

// Read implements memsys.System.
func (h *Prefetch) Read(a mach.Addr) (mach.Word, int) { return h.access(a, false, 0) }

// Write implements memsys.System.
func (h *Prefetch) Write(a mach.Addr, v mach.Word) int {
	_, lat := h.access(a, true, v)
	return lat
}

// fetchIntoL1WithBuffers is fetchIntoL1 with an L2 prefetch-buffer check
// and L2-level next-line prefetching.
func (h *Prefetch) fetchIntoL1WithBuffers(a mach.Addr) int {
	h.stats.L2.Accesses++
	lat := h.cfg.Lat.L2Hit
	l2line := h.l2.Access(a)
	if l2line == nil {
		if buf := h.pf2.Probe(a); buf != nil {
			// L2 prefetch-buffer hit: move into the L2 cache.
			h.stats.PfBufHitsL2++
			h.obs.Event(obs.EvPfBufHit, h.g2.LineAddr(a), 2)
			copy(h.scr2, buf.Data)
			h.pf2.Invalidate(a)
			h.fillL2(a, h.scr2)
			l2line = h.l2.Probe(a)
		} else {
			h.stats.L2.Misses++
			h.fillL2(a, h.memFetchL2(a))
			l2line = h.l2.Probe(a)
			lat = h.cfg.Lat.Mem
			for d := 1; d <= h.degree(); d++ {
				h.prefetchL2(h.g2.LineAddr(a) + mach.Addr(d*h.g2.LineBytes))
			}
		}
	}
	base := h.g1.LineAddr(a)
	off := h.g2.WordIndex(base)
	window := l2line.Data[off : off+h.g1.Words()]
	if ev := h.l1.Fill(a, window); ev.Valid && ev.Dirty {
		h.l2Writeback(ev)
		h.dropStaleBuffers(h.g1.NumberToAddr(ev.Tag))
	}
	return lat
}

// prefetchL1 brings the line at base into the L1 prefetch buffer. Like a
// Jouppi stream buffer between L1 and L2, it is sourced from the L2 (or
// the L2 prefetch buffer) only; a next line that is not on chip is not
// prefetched at this level — the L2's own prefetcher is responsible for
// off-chip lines. This keeps the L2 authoritative for everything the L1
// holds, so write-backs always find their line.
func (h *Prefetch) prefetchL1(base mach.Addr) {
	if h.l1.Probe(base) != nil || h.pf1.Probe(base) != nil {
		return
	}
	words := h.scr1
	if l2line := h.l2.Probe(base); l2line != nil {
		off := h.g2.WordIndex(base)
		copy(words, l2line.Data[off:off+h.g1.Words()])
	} else if buf := h.pf2.Probe(base); buf != nil {
		// Promote the buffered L2 line into the L2 cache so the L2
		// stays authoritative for every line the L1 can hold.
		copy(h.scr2, buf.Data)
		h.pf2.Invalidate(base)
		h.fillL2(base, h.scr2)
		off := h.g2.WordIndex(base)
		copy(words, h.scr2[off:off+h.g1.Words()])
	} else {
		// Prefetch through: fetch the containing L2 line from memory
		// into the L2, then buffer the L1 line. These speculative line
		// fetches are where BCP's large traffic increase comes from
		// (the paper reports ~80% more traffic on average).
		h.fillL2(base, h.memFetchL2(base))
		l2line := h.l2.Probe(base)
		off := h.g2.WordIndex(base)
		copy(words, l2line.Data[off:off+h.g1.Words()])
	}
	h.stats.PfIssuedL1++
	h.obs.Event(obs.EvPfIssue, base, 1)
	h.pf1.Fill(base, words)
}

// prefetchL2 brings the L2 line at base into the L2 prefetch buffer from
// memory.
func (h *Prefetch) prefetchL2(base mach.Addr) {
	if h.l2.Probe(base) != nil || h.pf2.Probe(base) != nil {
		return
	}
	h.stats.PfIssuedL2++
	h.obs.Event(obs.EvPfIssue, base, 2)
	words := h.scr2
	h.mem.ReadLine(base, words)
	h.stats.MemReadHalves += int64(2 * len(words))
	h.pf2.Fill(base, words)
}

// Occupancies implements memsys.Inspector, adding the prefetch buffers to
// the Standard caches.
func (h *Prefetch) Occupancies() []memsys.Occupancy {
	return append(h.Standard.Occupancies(),
		h.pf1.Occupancy("L1 prefetch buffer", nil),
		h.pf2.Occupancy("L2 prefetch buffer", nil))
}

// degree returns the configured prefetch depth (at least 1).
func (h *Prefetch) degree() int {
	if h.pcfg.Degree < 1 {
		return 1
	}
	return h.pcfg.Degree
}

// dropStaleBuffers invalidates prefetch-buffer copies overlapping a line
// that was just written back, so the buffers never serve stale data.
func (h *Prefetch) dropStaleBuffers(base mach.Addr) {
	h.pf1.Invalidate(base)
	h.pf2.Invalidate(base)
}

// Drain flushes dirty lines to memory (diagnostic; see Standard.Drain).
func (h *Prefetch) Drain() { h.Standard.Drain() }
