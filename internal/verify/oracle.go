// Package verify is the differential-testing and invariant-checking
// subsystem: it cross-checks every cache configuration against a simple,
// obviously-correct oracle memory model on randomized and workload-derived
// access streams, and asserts structural and accounting invariants after
// every access batch and at end of run.
//
// The oracle is deliberately trivial — a flat map from word address to the
// last value written — because the whole point is that its correctness is
// beyond doubt. Any load a hierarchy answers differently from the oracle
// is a functional bug in the cache model, exactly the class of silent
// corruption that would invalidate the paper-reproduction numbers
// (CPP vs. BC traffic, miss-rate and speedup deltas).
package verify

import "cppcache/internal/mach"

// Oracle is the ground-truth memory model: a flat word store with no
// caching, no compression and no timing. Unwritten words read as zero,
// matching mem.Memory.
type Oracle struct {
	words map[mach.Addr]mach.Word
}

// NewOracle returns an empty oracle.
func NewOracle() *Oracle {
	return &Oracle{words: make(map[mach.Addr]mach.Word)}
}

// Write records the word v at the word-aligned address a.
func (o *Oracle) Write(a mach.Addr, v mach.Word) {
	o.words[mach.WordAlign(a)] = v
}

// Read returns the ground-truth word at a (zero if never written).
func (o *Oracle) Read(a mach.Addr) mach.Word {
	return o.words[mach.WordAlign(a)]
}

// Each calls fn for every tracked word in unspecified order.
func (o *Oracle) Each(fn func(a mach.Addr, v mach.Word)) {
	for a, v := range o.words {
		fn(a, v)
	}
}
