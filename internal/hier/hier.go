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
//
// The related-work designs VC (victim.go) and LCC (linecomp.go) differ
// from BC only in the L1. Every hierarchy here shares one L2-and-memory
// side, lower, behind its own L1 front.
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
	Name   string
	L1, L2 cache.Params
	Lat    memsys.Latencies
	// Comp, when non-nil, compresses off-chip transfers under that scheme
	// (BCC, LCC) and sizes the L2's compression tag metadata. nil
	// transfers lines uncompressed.
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
// off-chip transfers under the paper's scheme.
func CompressedConfig() Config {
	c := BaselineConfig()
	c.Name = "BCC"
	c.Comp = compress.Default()
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

// lower is the L2-and-memory side every hierarchy of this package shares:
// the L2 cache, bus-traffic accounting, the memory fetch, the L2 fill with
// its dirty-victim write-back, the L1 write-back merge and the L2 half of
// Drain. Standard and LCC embed it behind their own L1.
type lower struct {
	cfg   Config
	l2    *cache.Cache
	mem   *mem.Memory
	stats memsys.Stats
	g1    mach.LineGeom
	g2    mach.LineGeom
	comp  compress.Compressor // nil: uncompressed transfers

	// obs, when non-nil, receives structured events and fill-word
	// compressibility counts; a nil recorder costs one branch per hook.
	obs *obs.Recorder

	// fetchBuf stages one L2 line read from memory; valid until the next
	// read. Every caller hands it straight to a Fill, which copies it into
	// the cache frame.
	fetchBuf []mach.Word
}

// newLower validates cfg's L1 geometry and builds its L2 side over main
// memory m.
func newLower(cfg Config, m *mem.Memory) (lower, error) {
	if cfg.L2.LineBytes < cfg.L1.LineBytes {
		return lower{}, fmt.Errorf("hier: L2 line (%d B) smaller than L1 line (%d B)", cfg.L2.LineBytes, cfg.L1.LineBytes)
	}
	if err := cfg.L1.Validate(); err != nil {
		return lower{}, fmt.Errorf("hier: L1: %w", err)
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return lower{}, fmt.Errorf("hier: L2: %w", err)
	}
	return lower{
		cfg: cfg, l2: l2, mem: m,
		g1: mach.LineGeom{LineBytes: cfg.L1.LineBytes}, g2: l2.Geom(), comp: cfg.Comp,
		fetchBuf: make([]mach.Word, l2.Geom().Words()),
	}, nil
}

// Name implements memsys.System.
func (h *lower) Name() string { return h.cfg.Name }

// Stats implements memsys.System.
func (h *lower) Stats() *memsys.Stats { return &h.stats }

// SetRecorder implements obs.Attachable: it attaches the observability
// recorder (nil detaches) and connects the statistics block for interval
// snapshotting. Every hierarchy of this package inherits it.
func (h *lower) SetRecorder(r *obs.Recorder) {
	h.obs = r
	r.AttachStats(&h.stats)
}

// lineHalves returns the bus cost of a line transfer in half-words under
// the configuration's scheme, or uncompressed without one.
func (h *lower) lineHalves(words []mach.Word, base mach.Addr) int64 {
	if h.comp != nil {
		return int64(h.comp.LineHalves(words, base))
	}
	return int64(2 * len(words))
}

// memFetchL2 reads the L2 line holding a from memory, accounting traffic.
func (h *lower) memFetchL2(a mach.Addr) []mach.Word {
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
func (h *lower) memWriteback(base mach.Addr, words []mach.Word) {
	h.mem.WriteLine(base, words)
	h.stats.MemWriteHalves += h.lineHalves(words, base)
}

// l2Writeback handles dirty L1 line n: merge its words into the L2 if
// resident there, otherwise write them through to memory.
func (h *lower) l2Writeback(n mach.Addr, words []mach.Word) {
	h.stats.L1.Writebacks++
	base := h.g1.NumberToAddr(n)
	if l2line := h.l2.Probe(base); l2line != nil {
		copy(h.l2Window(l2line, base), words)
		l2line.Dirty = true
		return
	}
	h.memWriteback(base, words)
}

// fetchL2 counts an L2 access for the line holding a and returns its L2
// line, filled from memory on a miss, with the access latency.
func (h *lower) fetchL2(a mach.Addr) (*cache.Line, int) {
	h.stats.L2.Accesses++
	if l2line := h.l2.Access(a); l2line != nil {
		return l2line, h.cfg.Lat.L2Hit
	}
	h.stats.L2.Misses++
	return h.fillL2(a, h.memFetchL2(a)), h.cfg.Lat.Mem
}

// fillL2 installs an L2 line fetched from memory, handling the victim,
// and returns the installed line.
func (h *lower) fillL2(a mach.Addr, data []mach.Word) *cache.Line {
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

// l2Window returns the words of L2 line l2line that make up the L1 line
// at base.
func (h *lower) l2Window(l2line *cache.Line, base mach.Addr) []mach.Word {
	off := h.g2.WordIndex(base)
	return l2line.Data[off : off+h.g1.Words()]
}

// drainL2 writes every dirty L2 line to memory, overlaid with the fresher
// words of each of its L1 lines that l1Words finds resident (nil when
// not). It bypasses traffic accounting: Drain is a diagnostic flush.
func (h *lower) drainL2(l1Words func(sub mach.Addr) []mach.Word) {
	h.l2.Lines(func(base mach.Addr, l *cache.Line) {
		if !l.Dirty {
			return
		}
		data := append([]mach.Word(nil), l.Data...)
		for i := 0; i < len(data); i += h.g1.Words() {
			if words := l1Words(base + mach.Addr(i*mach.WordBytes)); words != nil {
				copy(data[i:i+h.g1.Words()], words)
			}
		}
		h.mem.WriteLine(base, data)
		l.Dirty = false
	})
}

// Standard is a conventional two-level write-back hierarchy (BC, BCC, HAC).
type Standard struct {
	lower
	l1 *cache.Cache
}

var _ memsys.System = (*Standard)(nil)

// NewStandard builds a Standard hierarchy over main memory m.
func NewStandard(cfg Config, m *mem.Memory) (*Standard, error) {
	lo, err := newLower(cfg, m)
	if err != nil {
		return nil, err
	}
	return &Standard{lower: lo, l1: cache.MustNew(cfg.L1)}, nil
}

// Occupancies implements memsys.Inspector. With compressed transfers,
// the L2 also reports its lines' compressed size under the scheme,
// mirroring the hardware's compression-status tag bits.
func (h *Standard) Occupancies() []memsys.Occupancy {
	return []memsys.Occupancy{h.l1.Occupancy("L1", nil), h.l2.Occupancy("L2", h.comp)}
}

// fillL1 installs data as the L1 line holding a, emitting the evict and
// fill events, and returns the line with the displaced one, which the
// caller writes back (or spills) if it is valid.
func (h *Standard) fillL1(a mach.Addr, data []mach.Word) (*cache.Line, cache.Evicted) {
	l, ev := h.l1.Fill(a, data)
	if ev.Valid {
		h.obs.Event(obs.EvEvictL1, h.g1.NumberToAddr(ev.Tag), evDirtyAux(ev.Dirty))
	}
	h.obs.Event(obs.EvFillL1, h.g1.LineAddr(a), int64(h.g1.Words()))
	return l, ev
}

// fetchIntoL1 brings the L1 line holding a into L1 and returns it with
// the total access latency. The L1 miss has already been counted by the
// caller.
func (h *Standard) fetchIntoL1(a mach.Addr) (*cache.Line, int) {
	l2line, lat := h.fetchL2(a)
	l, ev := h.fillL1(a, h.l2Window(l2line, h.g1.LineAddr(a)))
	if ev.Valid && ev.Dirty {
		h.l2Writeback(ev.Tag, ev.Data)
	}
	return l, lat
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
	h.drainL2(func(sub mach.Addr) []mach.Word {
		if l := h.l1.Probe(sub); l != nil {
			return l.Data
		}
		return nil
	})
}
