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

// LCC is the line-level compression cache of the reproduced paper's
// related work ([6], Yang/Zhang/Gupta, MICRO 2000, as summarised in §5):
// "Two conflicting cache lines can be stored in the same line if both are
// compressible; otherwise, only one of them is stored." Compression is
// all-or-nothing at line granularity — a line qualifies only when every
// word in it compresses — and, as the paper argues, such schemes "operate
// at the cache line level and do not distinguish the importance of
// different words within a cache line", so they cannot do partial-line
// prefetching. LCC exists here to let that comparison be measured.
//
// The L1 is modelled with paired frames: each physical frame can hold one
// uncompressed line or two fully-compressible lines. The L2 and memory
// interface follow the baseline (with compressed bus transfers, since the
// hardware has compressors anyway).
type LCC struct {
	cfg   Config
	l1    *lccArray
	l2    *cache.Cache
	mem   *mem.Memory
	stats memsys.Stats
	g1    mach.LineGeom
	g2    mach.LineGeom
	comp  compress.Compressor

	// obs, when non-nil, receives fill-word compressibility counts and
	// attribution events; a nil recorder costs one branch per hook.
	obs *obs.Recorder

	// fetchBuf stages one L2 line fetched from memory; cache.Fill copies
	// it, so one buffer serves every miss.
	fetchBuf []mach.Word
}

var _ memsys.System = (*LCC)(nil)

// LCCConfig returns the LCC configuration on the baseline geometry.
func LCCConfig() Config {
	c := BaselineConfig()
	c.Name = "LCC"
	c.CompressTraffic = true
	return c
}

// NewLCC builds the LCC hierarchy over main memory m.
func NewLCC(cfg Config, m *mem.Memory) (*LCC, error) {
	if err := cfg.L1.Validate(); err != nil {
		return nil, fmt.Errorf("hier: LCC L1: %w", err)
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("hier: LCC L2: %w", err)
	}
	comp := cfg.Comp
	if comp == nil {
		comp = compress.Default()
	}
	h := &LCC{
		cfg:      cfg,
		l1:       newLCCArray(cfg.L1, comp),
		l2:       l2,
		mem:      m,
		g1:       mach.LineGeom{LineBytes: cfg.L1.LineBytes},
		g2:       mach.LineGeom{LineBytes: cfg.L2.LineBytes},
		comp:     comp,
		fetchBuf: make([]mach.Word, l2.Geom().Words()),
	}
	return h, nil
}

// Name implements memsys.System.
func (h *LCC) Name() string { return h.cfg.Name }

// Stats implements memsys.System.
func (h *LCC) Stats() *memsys.Stats { return &h.stats }

// SetRecorder implements obs.Attachable: it attaches the observability
// recorder (nil detaches) and connects the statistics block for interval
// snapshotting.
func (h *LCC) SetRecorder(r *obs.Recorder) {
	h.obs = r
	r.AttachStats(&h.stats)
}

// lccLine is one resident line within a shared frame.
type lccLine struct {
	valid      bool
	dirty      bool
	tag        mach.Addr // line number
	compressed bool      // stored in 16-bit form (all words compressible)
	used       uint64
	data       []mach.Word // logical values
}

// lccFrame holds one uncompressed line or two compressed ones.
type lccFrame struct {
	lines [2]lccLine
}

type lccArray struct {
	p       cache.Params
	geom    mach.LineGeom
	setMask mach.Addr
	sets    [][]lccFrame
	tick    uint64
	comp    compress.Compressor

	// evicted backs the lines install returns: copies of the displaced
	// lines (at most two), valid until the next install.
	evicted [2]lccLine
}

func newLCCArray(p cache.Params, comp compress.Compressor) *lccArray {
	a := &lccArray{
		p:       p,
		geom:    mach.LineGeom{LineBytes: p.LineBytes},
		setMask: mach.Addr(p.Sets() - 1),
		comp:    comp,
	}
	a.sets = make([][]lccFrame, p.Sets())
	for i := range a.sets {
		frames := make([]lccFrame, p.Assoc)
		for f := range frames {
			for s := range frames[f].lines {
				frames[f].lines[s].data = make([]mach.Word, a.geom.Words())
			}
		}
		a.sets[i] = frames
	}
	for s := range a.evicted {
		a.evicted[s].data = make([]mach.Word, a.geom.Words())
	}
	return a
}

// find returns the resident copy of line n, or nil.
func (a *lccArray) find(n mach.Addr) *lccLine {
	set := a.sets[int(n&a.setMask)]
	for f := range set {
		for s := range set[f].lines {
			l := &set[f].lines[s]
			if l.valid && l.tag == n {
				return l
			}
		}
	}
	return nil
}

// lineCompressible reports whether the line fits a half frame under the
// array's scheme: its compressed size is at most one half-word per word.
// Under the paper's scheme this reduces to every word compressing, the
// original all-or-nothing rule.
func (a *lccArray) lineCompressible(data []mach.Word, base mach.Addr) bool {
	return a.comp.LineHalves(data, base) <= len(data)
}

// install places line n, evicting as required by the sharing rule. It
// returns the evicted lines (0..2) for write-back, backed by a.evicted.
func (a *lccArray) install(n mach.Addr, data []mach.Word, sharedCtr *int64) []lccLine {
	base := a.geom.NumberToAddr(n)
	comp := a.lineCompressible(data, base)
	set := a.sets[int(n&a.setMask)]

	a.tick++

	// Prefer a frame slot that costs nothing: an invalid slot in a frame
	// whose other slot is compressible (when we are too), or a fully
	// invalid frame.
	if comp {
		for f := range set {
			fr := &set[f]
			for s := range fr.lines {
				other := &fr.lines[1-s]
				l := &fr.lines[s]
				if !l.valid && (!other.valid || other.compressed) {
					a.fill(l, n, data, true)
					if other.valid && sharedCtr != nil {
						*sharedCtr++
					}
					return nil
				}
			}
		}
	} else {
		for f := range set {
			fr := &set[f]
			if !fr.lines[0].valid && !fr.lines[1].valid {
				a.fill(&fr.lines[0], n, data, false)
				return nil
			}
		}
	}

	// Evict from the LRU frame (by its most recent use).
	victim := &set[0]
	vUsed := victim.newest()
	for f := 1; f < len(set); f++ {
		if u := set[f].newest(); u < vUsed {
			victim, vUsed = &set[f], u
		}
	}
	evicted := a.evicted[:0]
	if comp {
		// A compressed newcomer can share the victim frame with one
		// resident compressed line, evicting at most the other slot.
		for s := range victim.lines {
			other := &victim.lines[1-s]
			if other.valid && !other.compressed {
				continue
			}
			l := &victim.lines[s]
			if l.valid {
				if other.valid && other.used > l.used {
					continue // prefer evicting the older slot
				}
				evicted = a.evict(evicted, l)
			}
			a.fill(l, n, data, true)
			if other.valid && sharedCtr != nil {
				*sharedCtr++
			}
			return evicted
		}
	}
	for s := range victim.lines {
		if victim.lines[s].valid {
			evicted = a.evict(evicted, &victim.lines[s])
		}
	}
	a.fill(&victim.lines[0], n, data, comp)
	return evicted
}

// evict invalidates l and appends a copy of it to evicted, whose backing
// array is a.evicted.
func (a *lccArray) evict(evicted []lccLine, l *lccLine) []lccLine {
	cp := &a.evicted[len(evicted)]
	data := cp.data
	*cp = *l
	cp.data = data
	copy(cp.data, l.data)
	l.valid = false
	return evicted[:len(evicted)+1]
}

func (a *lccArray) fill(l *lccLine, n mach.Addr, data []mach.Word, comp bool) {
	l.valid = true
	l.dirty = false
	l.tag = n
	l.compressed = comp
	copy(l.data, data)
	l.used = a.tick
}

func (f *lccFrame) newest() uint64 {
	u := uint64(0)
	for s := range f.lines {
		if f.lines[s].valid && f.lines[s].used > u {
			u = f.lines[s].used
		}
	}
	return u
}

// access is the shared read/write path.
func (h *LCC) access(a mach.Addr, write bool, v mach.Word) (mach.Word, int) {
	a = mach.WordAlign(a)
	h.stats.L1.Accesses++
	n := h.g1.LineNumber(a)
	w := h.g1.WordIndex(a)

	l := h.l1.find(n)
	lat := h.cfg.Lat.L1Hit
	if l == nil {
		h.stats.L1.Misses++
		h.obs.AttrMiss(a)
		lat = h.fetch(n)
		l = h.l1.find(n)
		if l == nil {
			panic("hier: LCC line absent after fetch")
		}
	}
	h.l1.tick++
	l.used = h.l1.tick
	if write {
		l.data[w] = v
		l.dirty = true
		// A write that breaks the line's compressed fit forces it back
		// to uncompressed form; its frame-mate is evicted (written back
		// if dirty), exactly the all-or-nothing cost the paper contrasts
		// CPP against. Word-capable schemes (the paper's) answer with an
		// O(1) per-word check; line-granular schemes recompress the line.
		if l.compressed {
			still := false
			if wc, ok := h.comp.(compress.WordCompressor); ok {
				still = wc.CompressibleWord(v, a)
			} else {
				still = h.l1.lineCompressible(l.data, h.g1.NumberToAddr(l.tag))
			}
			if !still {
				l.compressed = false
				h.evictFrameMate(n)
			}
		}
		return 0, lat
	}
	return l.data[w], lat
}

// evictFrameMate pushes out the line sharing n's frame, if any.
func (h *LCC) evictFrameMate(n mach.Addr) {
	set := h.l1.sets[int(n&h.l1.setMask)]
	for f := range set {
		fr := &set[f]
		for s := range fr.lines {
			if fr.lines[s].valid && fr.lines[s].tag == n {
				mate := &fr.lines[1-s]
				if mate.valid {
					// The slot keeps its data until the next fill, so
					// the write-back can read it in place.
					mate.valid = false
					h.writeback(*mate)
					h.stats.ConflictEvictions++
				}
				return
			}
		}
	}
}

// fetch brings line n in from the L2 (or memory) and installs it.
func (h *LCC) fetch(n mach.Addr) int {
	h.stats.L2.Accesses++
	lat := h.cfg.Lat.L2Hit
	base := h.g1.NumberToAddr(n)
	l2line := h.l2.Access(base)
	if l2line == nil {
		h.stats.L2.Misses++
		data := h.fetchBuf
		l2base := h.g2.LineAddr(base)
		h.mem.ReadLine(l2base, data)
		h.stats.MemReadHalves += int64(h.comp.LineHalves(data, l2base))
		if h.obs != nil {
			h.obs.FillLine(data, l2base)
		}
		if ev := h.l2.Fill(base, data); ev.Valid && ev.Dirty {
			evBase := h.g2.NumberToAddr(ev.Tag)
			h.mem.WriteLine(evBase, ev.Data)
			h.stats.MemWriteHalves += int64(h.comp.LineHalves(ev.Data, evBase))
			h.stats.L2.Writebacks++
		}
		l2line = h.l2.Probe(base)
		lat = h.cfg.Lat.Mem
	}
	// install copies the window into the L1 before any evicted line is
	// written back into the L2, so the window can alias the L2 line.
	off := h.g2.WordIndex(base)
	window := l2line.Data[off : off+h.g1.Words()]
	for _, ev := range h.l1.install(n, window, &h.stats.AffWordsPrefetchedL1) {
		if ev.dirty {
			h.writeback(ev)
		}
	}
	return lat
}

// writeback merges a dirty L1 line into the L2, or memory if absent.
func (h *LCC) writeback(l lccLine) {
	h.stats.L1.Writebacks++
	base := h.g1.NumberToAddr(l.tag)
	if l2line := h.l2.Probe(base); l2line != nil {
		off := h.g2.WordIndex(base)
		copy(l2line.Data[off:off+len(l.data)], l.data)
		l2line.Dirty = true
		return
	}
	h.mem.WriteLine(base, l.data)
	h.stats.MemWriteHalves += int64(h.comp.LineHalves(l.data, base))
}

// Read implements memsys.System.
func (h *LCC) Read(a mach.Addr) (mach.Word, int) { return h.access(a, false, 0) }

// Write implements memsys.System.
func (h *LCC) Write(a mach.Addr, v mach.Word) int {
	_, lat := h.access(a, true, v)
	return lat
}

// SharedResidencies returns how many fills co-resided with a frame-mate
// (the LCC capacity benefit; stored in the AffWordsPrefetchedL1 counter).
func (h *LCC) SharedResidencies() int64 { return h.stats.AffWordsPrefetchedL1 }

// Occupancies implements memsys.Inspector. The L1 is reported in slot
// units — each physical frame offers two slots, each able to hold one
// compressed line (one half-word per word); an uncompressed line consumes
// both slots' half-word budget. The sharing rule makes Halves <= HalfCap
// an exact physical bound. The L1's CompHalves stays 0: its compression
// state is the all-or-nothing bit, not a per-line size. The L2 reports
// its lines' compressed size under the scheme.
func (h *LCC) Occupancies() []memsys.Occupancy {
	w := h.g1.Words()
	o := memsys.Occupancy{
		Level:   "L1",
		LineCap: 2 * h.l1.p.Sets() * h.l1.p.Assoc,
		HalfCap: 2 * w * h.l1.p.Sets() * h.l1.p.Assoc,
	}
	for si := range h.l1.sets {
		for f := range h.l1.sets[si] {
			for s := range h.l1.sets[si][f].lines {
				l := &h.l1.sets[si][f].lines[s]
				if !l.valid {
					continue
				}
				o.Lines++
				if l.compressed {
					o.Halves += w
				} else {
					o.Halves += 2 * w
				}
			}
		}
	}
	return []memsys.Occupancy{o, h.l2.Occupancy("L2", h.comp)}
}

// Drain flushes every dirty line to memory (diagnostic).
func (h *LCC) Drain() {
	for si := range h.l1.sets {
		for f := range h.l1.sets[si] {
			for s := range h.l1.sets[si][f].lines {
				l := &h.l1.sets[si][f].lines[s]
				if l.valid && l.dirty {
					h.mem.WriteLine(h.g1.NumberToAddr(l.tag), l.data)
					l.dirty = false
				}
			}
		}
	}
	h.l2.Lines(func(_ int, l *cache.Line) {
		if l.Dirty {
			base := l.Addr(h.g2)
			data := append([]mach.Word(nil), l.Data...)
			for i := 0; i < len(data); i += h.g1.Words() {
				sub := base + mach.Addr(i*mach.WordBytes)
				if l1l := h.l1.find(h.g1.LineNumber(sub)); l1l != nil {
					copy(data[i:i+h.g1.Words()], l1l.data)
				}
			}
			h.mem.WriteLine(base, data)
			l.Dirty = false
		}
	})
}
