package hier

import (
	"cppcache/internal/cache"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/obs"
)

// The BCP prefetch buffers (§4.4): "we invest the hardware cost in BCC/CPP
// to cache prefetch buffers. A 8-entry prefetch buffer is used to help the
// L1 cache and a 32-entry prefetch buffer is used to help the L2 cache.
// Both are fully associative with LRU replacement".
const (
	l1BufEntries = 8
	l2BufEntries = 32
)

// PrefetchConfig returns the paper's BCP configuration: the baseline
// caches, to which NewPrefetch adds the prefetch buffers.
func PrefetchConfig() Config {
	c := BaselineConfig()
	c.Name = "BCP"
	return c
}

// fullyAssoc builds a fully associative LRU buffer of entries lines of
// lineBytes each, a geometry the L1 and L2 it serves have already
// validated.
func fullyAssoc(entries, lineBytes int) *cache.Cache {
	return cache.MustNew(cache.Params{SizeBytes: entries * lineBytes, Assoc: entries, LineBytes: lineBytes})
}

// Prefetch is the BCP hierarchy: Standard plus prefetch-on-miss next-line
// prefetching into per-level buffers. A demand access that hits a prefetch
// buffer moves the line into the cache and is not counted as a miss (§4.4:
// "it is not considered as a cache miss in BCP if an access can find its
// data item from prefetch buffer").
type Prefetch struct {
	Standard
	pf1 *cache.Cache // holds L1-sized lines
	pf2 *cache.Cache // holds L2-sized lines
}

var _ memsys.System = (*Prefetch)(nil)

// NewPrefetch builds the BCP hierarchy over main memory m.
func NewPrefetch(cfg Config, m *mem.Memory) (*Prefetch, error) {
	std, err := NewStandard(cfg, m)
	if err != nil {
		return nil, err
	}
	return &Prefetch{
		Standard: *std,
		pf1:      fullyAssoc(l1BufEntries, cfg.L1.LineBytes),
		pf2:      fullyAssoc(l2BufEntries, cfg.L2.LineBytes),
	}, nil
}

// access is the shared demand read/write path; write performs the store
// after the line is resident. An L1 hit costs one tag search.
func (h *Prefetch) access(a mach.Addr, write bool, v mach.Word) (mach.Word, int) {
	a = mach.WordAlign(a)
	h.stats.L1.Accesses++
	if l := h.l1.Access(a); l != nil {
		return h.use(l, a, write, v), h.cfg.Lat.L1Hit
	}

	// L1 prefetch-buffer hit: move the line into the cache; not a miss.
	// The invalidated buffer line's words stay put until pf1's next
	// Fill, so the L1 fill copies them straight out of the buffer.
	if buf := h.pf1.Invalidate(a); buf.Valid {
		h.stats.PfBufHitsL1++
		h.obs.Event(obs.EvPfBufHit, h.g1.LineAddr(a), 1)
		// Strict prefetch-on-miss (§2.2): a buffer hit is not a miss, so
		// it does not trigger another prefetch.
		return h.use(h.fillL1(a, buf.Data), a, write, v), h.cfg.Lat.L1Hit
	}

	// Demand miss.
	h.stats.L1.Misses++
	h.obs.AttrMiss(a)
	l, lat := h.fetchIntoL1WithBuffers(a)
	h.prefetchL1(h.g1.LineAddr(a) + mach.Addr(h.g1.LineBytes))
	return h.use(l, a, write, v), lat
}

// Read implements memsys.System.
func (h *Prefetch) Read(a mach.Addr) (mach.Word, int) { return h.access(a, false, 0) }

// Write implements memsys.System.
func (h *Prefetch) Write(a mach.Addr, v mach.Word) int {
	_, lat := h.access(a, true, v)
	return lat
}

// fillL1 is Standard.fillL1 followed by the dirty victim's write-back,
// after which no prefetch buffer may keep a stale copy of its line. It
// returns the filled line.
func (h *Prefetch) fillL1(a mach.Addr, data []mach.Word) *cache.Line {
	l, ev := h.Standard.fillL1(a, data)
	if ev.Valid && ev.Dirty {
		h.l2Writeback(ev.Tag, ev.Data)
		h.dropStaleBuffers(h.g1.NumberToAddr(ev.Tag))
	}
	return l
}

// fetchIntoL1WithBuffers is fetchIntoL1 with an L2 prefetch-buffer check
// and L2-level next-line prefetching. It returns the filled L1 line.
func (h *Prefetch) fetchIntoL1WithBuffers(a mach.Addr) (*cache.Line, int) {
	h.stats.L2.Accesses++
	lat := h.cfg.Lat.L2Hit
	l2line := h.l2.Access(a)
	if l2line == nil {
		if buf := h.pf2.Invalidate(a); buf.Valid {
			// L2 prefetch-buffer hit: move into the L2 cache.
			h.stats.PfBufHitsL2++
			h.obs.Event(obs.EvPfBufHit, h.g2.LineAddr(a), 2)
			l2line = h.fillL2(a, buf.Data)
		} else {
			h.stats.L2.Misses++
			l2line = h.fillL2(a, h.memFetchL2(a))
			lat = h.cfg.Lat.Mem
			h.prefetchL2(h.g2.LineAddr(a) + mach.Addr(h.g2.LineBytes))
		}
	}
	return h.fillL1(a, h.l2Window(l2line, h.g1.LineAddr(a))), lat
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
	l2line := h.l2.Probe(base)
	if l2line == nil {
		if buf := h.pf2.Invalidate(base); buf.Valid {
			// Promote the buffered L2 line into the L2 cache so the L2
			// stays authoritative for every line the L1 can hold.
			l2line = h.fillL2(base, buf.Data)
		} else {
			// Prefetch through: fetch the containing L2 line from memory
			// into the L2, then buffer the L1 line. These speculative
			// line fetches are where BCP's large traffic increase comes
			// from (the paper reports ~80% more traffic on average).
			l2line = h.fillL2(base, h.memFetchL2(base))
		}
	}
	h.stats.PfIssuedL1++
	h.obs.Event(obs.EvPfIssue, base, 1)
	h.pf1.Fill(base, h.l2Window(l2line, base))
}

// prefetchL2 brings the L2 line at base into the L2 prefetch buffer from
// memory. It stages the line in fetchBuf, which the demand fill before it
// has already copied into the L2.
func (h *Prefetch) prefetchL2(base mach.Addr) {
	if h.l2.Probe(base) != nil || h.pf2.Probe(base) != nil {
		return
	}
	h.stats.PfIssuedL2++
	h.obs.Event(obs.EvPfIssue, base, 2)
	words := h.fetchBuf
	h.mem.ReadLine(base, words)
	h.stats.MemReadHalves += h.lineHalves(words, base)
	h.pf2.Fill(base, words)
}

// Occupancies implements memsys.Inspector, adding the prefetch buffers to
// the Standard caches.
func (h *Prefetch) Occupancies() []memsys.Occupancy {
	return append(h.Standard.Occupancies(),
		h.pf1.Occupancy("L1 prefetch buffer", nil),
		h.pf2.Occupancy("L2 prefetch buffer", nil))
}

// dropStaleBuffers invalidates prefetch-buffer copies overlapping a line
// that was just written back, so the buffers never serve stale data.
func (h *Prefetch) dropStaleBuffers(base mach.Addr) {
	h.pf1.Invalidate(base)
	h.pf2.Invalidate(base)
}
