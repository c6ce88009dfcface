// Package memsys defines the interface between the simulated processor
// core and a data memory hierarchy, the latency configuration shared by
// all cache designs, and the statistics they report.
//
// Five hierarchies implement System (§4.1 of the paper): BC, BCC and HAC
// (internal/hier.Standard), BCP (internal/hier.Prefetch), and the paper's
// contribution CPP (internal/core.Hierarchy).
package memsys

import "cppcache/internal/mach"

// System is a two-level data memory hierarchy backed by main memory.
// Read and Write return the access latency in cycles; Read also returns
// the loaded word so that callers can verify functional correctness
// through the compression machinery.
type System interface {
	// Read loads the word at the word-aligned address a.
	Read(a mach.Addr) (v mach.Word, lat int)
	// Write stores v at the word-aligned address a.
	Write(a mach.Addr, v mach.Word) (lat int)
	// Stats returns the accumulated statistics. The pointer stays valid
	// and live for the lifetime of the system.
	Stats() *Stats
	// Name identifies the configuration (BC, BCC, HAC, BCP, CPP).
	Name() string
}

// Latencies holds the access latencies of Figure 9. Each value is the
// total latency of a hit at that point of the hierarchy.
type Latencies struct {
	L1Hit  int // L1 D-cache hit (1 cycle)
	AffHit int // CPP only: hit in the affiliated line (next cycle, 2)
	L2Hit  int // L1 miss, L2 hit (10 cycles)
	Mem    int // L2 miss, memory access (100 cycles)
}

// DefaultLatencies returns the paper's baseline latencies.
func DefaultLatencies() Latencies {
	return Latencies{L1Hit: 1, AffHit: 2, L2Hit: 10, Mem: 100}
}

// Halved returns the latencies with the miss penalties halved, as used by
// the miss-importance experiment (Figure 14, S_enhanced = 2). Hit latency
// is unchanged: only the penalty of going past L1 is halved.
func (l Latencies) Halved() Latencies {
	return Latencies{
		L1Hit:  l.L1Hit,
		AffHit: l.AffHit,
		L2Hit:  (l.L2Hit + 1) / 2,
		Mem:    (l.Mem + 1) / 2,
	}
}

// LevelStats counts events at one cache level.
type LevelStats struct {
	Accesses   int64 // demand reads + writes reaching this level
	Misses     int64 // demand accesses not satisfied at this level
	Writebacks int64 // dirty lines written to the next level
}

// MissRate returns Misses/Accesses, or 0 for an idle level.
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Stats accumulates hierarchy statistics. Traffic is counted in half-words
// (16-bit units) so that compressed transfers need no floating point: an
// uncompressed word moves 2 half-words, a compressed word moves 1.
type Stats struct {
	L1 LevelStats
	L2 LevelStats

	// Off-chip traffic on the L2<->memory bus, in half-words.
	MemReadHalves  int64
	MemWriteHalves int64

	// Prefetching (BCP).
	PfBufHitsL1 int64 // demand accesses satisfied by the L1 prefetch buffer
	PfBufHitsL2 int64
	PfIssuedL1  int64 // prefetch fetches issued into the L1 buffer
	PfIssuedL2  int64

	// Compression-enabled partial prefetching (CPP).
	AffHitsL1            int64 // demand hits in an affiliated line
	AffHitsL2            int64
	PartialFillsL1       int64 // L1 fills that arrived with fewer than all words
	AffPlacements        int64 // evicted lines salvaged into their affiliated place
	AffWordsPrefetchedL1 int64 // words installed in L1 as affiliated prefetch data
	AffWordsPrefetchedL2 int64 // words installed in L2 as affiliated prefetch data
	Promotions           int64 // affiliated lines moved to their primary place
	ConflictEvictions    int64 // affiliated words dropped by compressible->incompressible writes
	L1WbOffChip          int64 // L1 write-backs that found no L2 primary copy and went to memory
	L1WbToAffMirror      int64 // of those, how many refreshed an L2 affiliated mirror
}

// MemTrafficWords returns total off-chip traffic in (32-bit) words.
func (s *Stats) MemTrafficWords() float64 {
	return float64(s.MemReadHalves+s.MemWriteHalves) / 2
}

// Occupancy reports the physical usage of one cache structure. Counts are
// kept at two granularities: whole lines (frames) and 16-bit half-words,
// the unit of compressed storage. A correct hierarchy never reports
// Lines > LineCap or Halves > HalfCap; internal/verify asserts this after
// every access batch.
type Occupancy struct {
	Level   string // "L1", "L2", "L1 prefetch buffer", ...
	Lines   int    // valid lines resident
	LineCap int    // physical frames
	Halves  int    // half-words of data stored (compressed words count 1)
	HalfCap int    // physical half-word capacity
	// CompHalves is the compressed footprint of the resident data under
	// the hierarchy's line-compression scheme, for structures whose
	// hardware keeps it in tag metadata (0 otherwise). It may
	// legitimately exceed Halves for schemes whose worst case expands the
	// line; verify bounds it by the scheme's declared worst case instead.
	CompHalves int
}

// Inspector is implemented by hierarchies that can report their physical
// occupancy for invariant checking (see internal/verify).
type Inspector interface {
	Occupancies() []Occupancy
}
