// Package hier implements the conventional two-level cache hierarchies the
// paper compares against (§4.1):
//
//   - BC:  baseline — 8K direct-mapped L1 (64 B lines), 64K 2-way L2
//     (128 B lines), write-back, write-allocate.
//   - BCC: BC plus compressors/decompressors at the L2/memory interface;
//     identical timing and miss behaviour, but off-chip transfers are
//     compressed (the paper: "BC and BCC have the same performance since
//     BCC only changes the format in which data is stored and
//     transmitted").
//   - HAC: higher-associativity cache — 2-way L1, 4-way L2, same sizes.
//   - BCP: BC plus hardware prefetch-on-miss with an 8-entry fully
//     associative L1 prefetch buffer and a 32-entry L2 prefetch buffer
//     (implemented in prefetch.go).
package hier

import (
	"fmt"

	"cppcache/internal/cache"
	"cppcache/internal/compress"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/obs"
)

// Config describes a conventional two-level hierarchy.
type Config struct {
	Name            string
	L1, L2          cache.Params
	Lat             memsys.Latencies
	CompressTraffic bool // BCC: count off-chip transfers compressed
	// Comp selects the line-compression scheme used for compressed
	// transfers (and the L2 compression tag metadata). nil means the
	// paper's reference scheme; it only matters when CompressTraffic is
	// set.
	Comp compress.Compressor
}

// BaselineConfig returns the paper's BC configuration.
func BaselineConfig() Config {
	return Config{
		Name: "BC",
		L1:   cache.Params{SizeBytes: 8 << 10, Assoc: 1, LineBytes: 64},
		L2:   cache.Params{SizeBytes: 64 << 10, Assoc: 2, LineBytes: 128},
		Lat:  memsys.DefaultLatencies(),
	}
}

// CompressedConfig returns the BCC configuration: BC with compressed
// off-chip transfers.
func CompressedConfig() Config {
	c := BaselineConfig()
	c.Name = "BCC"
	c.CompressTraffic = true
	return c
}

// HighAssocConfig returns the HAC configuration: double associativity at
// both levels.
func HighAssocConfig() Config {
	c := BaselineConfig()
	c.Name = "HAC"
	c.L1.Assoc = 2
	c.L2.Assoc = 4
	return c
}

// Standard is a conventional two-level write-back hierarchy (BC, BCC, HAC).
type Standard struct {
	cfg   Config
	l1    *cache.Cache
	l2    *cache.Cache
	mem   *mem.Memory
	stats memsys.Stats
	g1    mach.LineGeom
	g2    mach.LineGeom
	comp  compress.Compressor

	// obs, when non-nil, receives structured events and fill-word
	// compressibility counts; a nil recorder costs one branch per hook.
	obs *obs.Recorder

	// fetchBuf stages one L2 line fetched from memory; valid until the
	// next memFetchL2. Every caller hands it straight to fillL2, which
	// copies it into the cache frame.
	fetchBuf []mach.Word
}

var _ memsys.System = (*Standard)(nil)

// NewStandard builds a Standard hierarchy over main memory m.
func NewStandard(cfg Config, m *mem.Memory) (*Standard, error) {
	if cfg.L2.LineBytes < cfg.L1.LineBytes {
		return nil, fmt.Errorf("hier: L2 line (%d B) smaller than L1 line (%d B)", cfg.L2.LineBytes, cfg.L1.LineBytes)
	}
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return nil, fmt.Errorf("hier: L1: %w", err)
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("hier: L2: %w", err)
	}
	comp := cfg.Comp
	if comp == nil {
		comp = compress.Default()
	}
	return &Standard{
		cfg: cfg, l1: l1, l2: l2, mem: m,
		g1: l1.Geom(), g2: l2.Geom(), comp: comp,
		fetchBuf: make([]mach.Word, l2.Geom().Words()),
	}, nil
}

// Name implements memsys.System.
func (h *Standard) Name() string { return h.cfg.Name }

// Stats implements memsys.System.
func (h *Standard) Stats() *memsys.Stats { return &h.stats }

// SetRecorder implements obs.Attachable: it attaches the observability
// recorder (nil detaches) and connects the statistics block for interval
// snapshotting. Embedders (Prefetch, Victim) inherit it.
func (h *Standard) SetRecorder(r *obs.Recorder) {
	h.obs = r
	r.AttachStats(&h.stats)
}

// Occupancies implements memsys.Inspector. With compressed transfers,
// the L2 also reports its lines' compressed size under the scheme,
// mirroring the hardware's compression-status tag bits.
func (h *Standard) Occupancies() []memsys.Occupancy {
	var comp compress.Compressor
	if h.cfg.CompressTraffic {
		comp = h.comp
	}
	return []memsys.Occupancy{h.l1.Occupancy("L1", nil), h.l2.Occupancy("L2", comp)}
}

// lineHalves returns the bus cost of a line transfer in half-words,
// honouring the configuration's compression setting and scheme.
func (h *Standard) lineHalves(words []mach.Word, base mach.Addr) int64 {
	if h.cfg.CompressTraffic {
		return int64(h.comp.LineHalves(words, base))
	}
	return int64(2 * len(words))
}

// memFetchL2 reads the L2 line holding a from memory, accounting traffic.
func (h *Standard) memFetchL2(a mach.Addr) []mach.Word {
	base := h.g2.LineAddr(a)
	data := h.fetchBuf
	h.mem.ReadLine(base, data)
	h.stats.MemReadHalves += h.lineHalves(data, base)
	if h.obs != nil {
		h.obs.FillLine(data, base)
	}
	return data
}

// memWriteback writes a dirty line's words to memory, accounting traffic.
func (h *Standard) memWriteback(base mach.Addr, words []mach.Word) {
	h.mem.WriteLine(base, words)
	h.stats.MemWriteHalves += h.lineHalves(words, base)
}

// l2Writeback handles a dirty L1 victim: merge into L2 if resident there,
// otherwise write through to memory.
func (h *Standard) l2Writeback(ev cache.Evicted) {
	h.stats.L1.Writebacks++
	base := h.g1.NumberToAddr(ev.Tag)
	if l2line := h.l2.Probe(base); l2line != nil {
		off := h.g2.WordIndex(base)
		copy(l2line.Data[off:off+len(ev.Data)], ev.Data)
		l2line.Dirty = true
		return
	}
	h.memWriteback(base, ev.Data)
}

// fillL2 installs an L2 line fetched from memory, handling the victim,
// and returns the installed line.
func (h *Standard) fillL2(a mach.Addr, data []mach.Word) *cache.Line {
	l, ev := h.l2.Fill(a, data)
	if ev.Valid {
		h.obs.Event(obs.EvEvictL2, h.g2.NumberToAddr(ev.Tag), evDirtyAux(ev.Dirty))
	}
	if ev.Valid && ev.Dirty {
		h.stats.L2.Writebacks++
		h.memWriteback(h.g2.NumberToAddr(ev.Tag), ev.Data)
	}
	h.obs.Event(obs.EvFillL2, h.g2.LineAddr(a), int64(h.g2.Words()))
	return l
}

// evDirtyAux renders an eviction's dirty flag as an event-aux value.
func evDirtyAux(dirty bool) int64 {
	if dirty {
		return 1
	}
	return 0
}

// fetchIntoL1 brings the L1 line holding a into L1 and returns it with
// the total access latency. The L1 miss has already been counted by the
// caller.
func (h *Standard) fetchIntoL1(a mach.Addr) (*cache.Line, int) {
	h.stats.L2.Accesses++
	lat := h.cfg.Lat.L2Hit
	l2line := h.l2.Access(a)
	if l2line == nil {
		h.stats.L2.Misses++
		l2line = h.fillL2(a, h.memFetchL2(a))
		lat = h.cfg.Lat.Mem
	}
	base := h.g1.LineAddr(a)
	l, ev := h.l1.Fill(a, h.l2Window(l2line, base))
	if ev.Valid {
		h.obs.Event(obs.EvEvictL1, h.g1.NumberToAddr(ev.Tag), evDirtyAux(ev.Dirty))
	}
	if ev.Valid && ev.Dirty {
		h.l2Writeback(ev)
	}
	h.obs.Event(obs.EvFillL1, base, int64(h.g1.Words()))
	return l, lat
}

// l2Window returns the words of L2 line l2line that make up the L1 line
// at base.
func (h *Standard) l2Window(l2line *cache.Line, base mach.Addr) []mach.Word {
	off := h.g2.WordIndex(base)
	return l2line.Data[off : off+h.g1.Words()]
}

// use performs a demand read or write of the word at a on resident L1
// line l. A write marks the line dirty and returns 0.
func (h *Standard) use(l *cache.Line, a mach.Addr, write bool, v mach.Word) mach.Word {
	w := h.g1.WordIndex(a)
	if write {
		l.Data[w] = v
		l.Dirty = true
		return 0
	}
	return l.Data[w]
}

// access is the shared demand read/write path: one L1 tag search on a
// hit, and the filled line used in place on a miss.
func (h *Standard) access(a mach.Addr, write bool, v mach.Word) (mach.Word, int) {
	a = mach.WordAlign(a)
	h.stats.L1.Accesses++
	if l := h.l1.Access(a); l != nil {
		return h.use(l, a, write, v), h.cfg.Lat.L1Hit
	}
	h.stats.L1.Misses++
	h.obs.AttrMiss(a)
	l, lat := h.fetchIntoL1(a)
	return h.use(l, a, write, v), lat
}

// Read implements memsys.System.
func (h *Standard) Read(a mach.Addr) (mach.Word, int) { return h.access(a, false, 0) }

// Write implements memsys.System.
func (h *Standard) Write(a mach.Addr, v mach.Word) int {
	_, lat := h.access(a, true, v)
	return lat
}

// Drain flushes every dirty line down to memory. Used by tests to compare
// the hierarchy's final state against a reference memory image.
func (h *Standard) Drain() {
	h.l1.Lines(func(base mach.Addr, l *cache.Line) {
		if l.Dirty {
			h.mem.WriteLine(base, l.Data) // bypass traffic accounting: diagnostic flush
			l.Dirty = false
		}
	})
	h.l2.Lines(func(base mach.Addr, l *cache.Line) {
		if l.Dirty {
			// L1 held fresher data for any line it owned; only write L2
			// words whose line is not dirty in L1. The L1 pass above
			// already cleaned those, so a straight write is stale for
			// overlapping words. Re-read the L1 copy to preserve it.
			data := append([]mach.Word(nil), l.Data...)
			for i := 0; i < len(data); i += h.g1.Words() {
				sub := base + mach.Addr(i*mach.WordBytes)
				if l1l := h.l1.Probe(sub); l1l != nil {
					copy(data[i:i+h.g1.Words()], l1l.Data)
				}
			}
			h.mem.WriteLine(base, data)
			l.Dirty = false
		}
	})
}
