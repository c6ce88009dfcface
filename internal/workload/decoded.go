package workload

import (
	"sync"

	"cppcache/internal/trace"
)

// The decoded store caches the struct-of-arrays form of built programs
// (trace.Decoded) so that a sweep's many configurations, repetitions and
// worker goroutines all replay one shared pre-decode instead of each
// paying the conversion. Programs are immutable, so the store keys on
// program identity; the budget bounds the total buffer footprint and
// evicts least-recently-used traces when a new decode would exceed it
// (the AoS trace inside the Program itself is unaffected — only the
// derived SoA copy is dropped and rebuilt on demand).
var decoded = struct {
	sync.Mutex
	entries map[*Program]*decodedEntry
	used    int64 // bytes held by entries
	budget  int64
	tick    uint64 // LRU clock
	stats   DecodedStats
}{
	entries: map[*Program]*decodedEntry{},
	budget:  DefaultDecodedBudget,
}

type decodedEntry struct {
	d       *trace.Decoded
	lastUse uint64
}

// DefaultDecodedBudget bounds the decoded store to 256 MiB of buffers:
// roughly 10M pre-decoded instructions, two orders of magnitude above a
// default full-suite sweep, while still a hard ceiling for long-lived
// services (cppserved) facing adversarial workload/scale mixes.
const DefaultDecodedBudget = 256 << 20

// DecodedStats counts store traffic, for tests and throughput reports.
type DecodedStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	UsedBytes int64
}

// Decoded returns the shared pre-decoded form of the program, building
// and caching it on first use. The result is read-only and safe for any
// number of concurrent replays.
func (p *Program) Decoded() *trace.Decoded {
	decoded.Lock()
	defer decoded.Unlock()
	decoded.tick++
	if e, ok := decoded.entries[p]; ok {
		e.lastUse = decoded.tick
		decoded.stats.Hits++
		return e.d
	}
	decoded.stats.Misses++
	d := trace.NewDecoded(p.insts)
	// Evict least-recently-used traces until the new entry fits. A trace
	// larger than the whole budget is still returned, just not retained.
	for decoded.used+d.Bytes() > decoded.budget && len(decoded.entries) > 0 {
		var victim *Program
		var oldest uint64
		for vp, ve := range decoded.entries {
			if victim == nil || ve.lastUse < oldest {
				victim, oldest = vp, ve.lastUse
			}
		}
		decoded.used -= decoded.entries[victim].d.Bytes()
		delete(decoded.entries, victim)
		decoded.stats.Evictions++
	}
	if decoded.used+d.Bytes() <= decoded.budget {
		decoded.entries[p] = &decodedEntry{d: d, lastUse: decoded.tick}
		decoded.used += d.Bytes()
	}
	return d
}

// Replay is Decoded under the name the benchmark harness calls.
func (p *Program) Replay() *trace.Decoded { return p.Decoded() }

// SetDecodedBudget sets the decoded store's byte budget and returns the
// previous value, evicting immediately if the store is over the new
// budget. Tests use it to exercise eviction; 0 disables retention.
func SetDecodedBudget(bytes int64) int64 {
	decoded.Lock()
	defer decoded.Unlock()
	old := decoded.budget
	decoded.budget = bytes
	for decoded.used > decoded.budget && len(decoded.entries) > 0 {
		var victim *Program
		var oldest uint64
		for vp, ve := range decoded.entries {
			if victim == nil || ve.lastUse < oldest {
				victim, oldest = vp, ve.lastUse
			}
		}
		decoded.used -= decoded.entries[victim].d.Bytes()
		delete(decoded.entries, victim)
		decoded.stats.Evictions++
	}
	return old
}

// DecodedStoreStats returns a snapshot of the store's counters.
func DecodedStoreStats() DecodedStats {
	decoded.Lock()
	defer decoded.Unlock()
	s := decoded.stats
	s.UsedBytes = decoded.used
	return s
}
