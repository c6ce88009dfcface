package obs

// Attribution profiler: attributes cache events to the instruction PC that
// caused them and to the data-address region they touched, in the style of
// the Pointer-Chase Prefetcher's per-access accounting of which traversal
// sites miss. Three event classes are attributed, matching the quantities
// the paper's evaluation turns on:
//
//   - L1 demand misses (the paper's Figure 12 metric, per code site);
//   - compression-failure fill words: words fetched from memory that were
//     not compressible and therefore could not host or carry affiliated
//     prefetch data (the dual of the Figure 3 compressibility curve);
//   - affiliated-prefetch hits (CPP's Figure-10/11 win, per code site).
//
// The profiler keys a joint map on (PC, data region, kind), so both the
// per-PC and per-region top-N tables and the collapsed-stack rendering are
// exact marginals of one count set. The accessing PC is pushed by the
// processor model (or the functional-mode driver) immediately before each
// memory operation via SetAccessPC; hierarchy hook sites then attribute
// events to the most recent PC. Like every other Recorder facility it is
// inert when disabled: hooks cost one branch and no memory traffic.

import (
	"fmt"
	"sort"
	"strings"

	"cppcache/internal/mach"
)

// AttrKind enumerates the attributed event classes.
type AttrKind uint8

// Attributed event classes.
const (
	// AttrL1Miss is one demand L1 miss (load or store).
	AttrL1Miss AttrKind = iota
	// AttrFillFail counts words fetched from memory whose value
	// compression failed (each incompressible word counts 1).
	AttrFillFail
	// AttrAffHit is one demand hit on affiliated-prefetch data (L1 or
	// L2 affiliated storage).
	AttrAffHit

	numAttrKinds
)

var attrNames = [numAttrKinds]string{
	AttrL1Miss:   "l1_miss",
	AttrFillFail: "fill_fail_words",
	AttrAffHit:   "aff_hit",
}

// String returns the stable kind name used in profile output.
func (k AttrKind) String() string {
	if int(k) < len(attrNames) {
		return attrNames[k]
	}
	return fmt.Sprintf("attr-%d", int(k))
}

// AttrKinds returns every attributed kind in rendering order.
func AttrKinds() []AttrKind { return []AttrKind{AttrL1Miss, AttrFillFail, AttrAffHit} }

// attrRegionBits is the data-region granularity of the attribution
// profiler: 12 address bits, i.e. 4 KiB pages.
const attrRegionBits = 12

// attrKey is one cell of the joint attribution count set.
type attrKey struct {
	pc     mach.Addr
	region mach.Addr // region base address (low attrRegionBits bits cleared)
	kind   AttrKind
}

// attrProfile is the recorder-internal count store.
type attrProfile struct {
	counts map[attrKey]int64
	totals [numAttrKinds]int64
}

func newAttrProfile() *attrProfile {
	return &attrProfile{counts: make(map[attrKey]int64)}
}

func (p *attrProfile) add(kind AttrKind, pc, addr mach.Addr, n int64) {
	if n == 0 {
		return
	}
	p.counts[attrKey{pc: pc, region: addr &^ (1<<attrRegionBits - 1), kind: kind}] += n
	p.totals[kind] += n
}

// AttrEnabled reports whether the attribution profiler is collecting.
// Hierarchy hook sites with non-trivial argument preparation can use it to
// skip that work.
func (r *Recorder) AttrEnabled() bool { return r != nil && r.attr != nil }

// SetAccessPC records the program counter of the instruction about to
// access memory; subsequent attributed events are charged to it. The
// processor core calls this immediately before each data-cache access.
func (r *Recorder) SetAccessPC(pc mach.Addr) {
	if r == nil || r.attr == nil {
		return
	}
	r.attrPC = pc
}

// AttrMiss attributes one demand L1 miss at data address a to the current
// access PC.
func (r *Recorder) AttrMiss(a mach.Addr) {
	if r == nil || r.attr == nil {
		return
	}
	r.attr.add(AttrL1Miss, r.attrPC, a, 1)
}

// AttrAffHit attributes one demand hit on affiliated-prefetch data at data
// address a to the current access PC.
func (r *Recorder) AttrAffHit(a mach.Addr) {
	if r == nil || r.attr == nil {
		return
	}
	r.attr.add(AttrAffHit, r.attrPC, a, 1)
}

// AttrFillFail attributes words incompressible words fetched in the line
// at base to the current access PC (the demand access whose miss triggered
// the fill).
func (r *Recorder) AttrFillFail(base mach.Addr, words int64) {
	if r == nil || r.attr == nil {
		return
	}
	r.attr.add(AttrFillFail, r.attrPC, base, words)
}

// AttrTotal returns the total attributed count of one kind. For a run with
// attribution enabled it equals the corresponding simulator statistic
// (L1 misses; fill words minus compressible fill words; affiliated hits).
func (r *Recorder) AttrTotal(kind AttrKind) int64 {
	if r == nil || r.attr == nil || int(kind) >= int(numAttrKinds) {
		return 0
	}
	return r.attr.totals[kind]
}

// AttrEntry is one (PC, region, kind) attribution cell.
type AttrEntry struct {
	PC     mach.Addr `json:"pc"`
	Region mach.Addr `json:"region"`
	Kind   string    `json:"kind"`
	Count  int64     `json:"count"`
}

// AttrEntries returns every attribution cell, sorted by kind, then count
// descending, then PC, then region — a deterministic order for golden
// tests and JSON export.
func (r *Recorder) AttrEntries() []AttrEntry {
	if r == nil || r.attr == nil {
		return nil
	}
	out := make([]AttrEntry, 0, len(r.attr.counts))
	type cell struct {
		k attrKey
		n int64
	}
	cells := make([]cell, 0, len(r.attr.counts))
	for k, n := range r.attr.counts {
		cells = append(cells, cell{k, n})
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.k.kind != b.k.kind {
			return a.k.kind < b.k.kind
		}
		if a.n != b.n {
			return a.n > b.n
		}
		if a.k.pc != b.k.pc {
			return a.k.pc < b.k.pc
		}
		return a.k.region < b.k.region
	})
	for _, c := range cells {
		out = append(out, AttrEntry{PC: c.k.pc, Region: c.k.region, Kind: c.k.kind.String(), Count: c.n})
	}
	return out
}

// attrAggregate sums the joint counts of one kind over key, where key
// extracts the grouping address (PC or region).
func (r *Recorder) attrAggregate(kind AttrKind, key func(attrKey) mach.Addr) []AttrCount {
	agg := make(map[mach.Addr]int64)
	for k, n := range r.attr.counts {
		if k.kind == kind {
			agg[key(k)] += n
		}
	}
	out := make([]AttrCount, 0, len(agg))
	for a, n := range agg {
		out = append(out, AttrCount{Addr: a, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// AttrCount is one aggregated attribution row: an address (PC or region
// base) and its event count.
type AttrCount struct {
	Addr  mach.Addr `json:"addr"`
	Count int64     `json:"count"`
}

// AttrTopPCs returns the n instruction PCs with the highest count of the
// given kind, ties broken by address.
func (r *Recorder) AttrTopPCs(kind AttrKind, n int) []AttrCount {
	if r == nil || r.attr == nil {
		return nil
	}
	out := r.attrAggregate(kind, func(k attrKey) mach.Addr { return k.pc })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// AttrTopRegions returns the n data regions with the highest count of the
// given kind, ties broken by region base address.
func (r *Recorder) AttrTopRegions(kind AttrKind, n int) []AttrCount {
	if r == nil || r.attr == nil {
		return nil
	}
	out := r.attrAggregate(kind, func(k attrKey) mach.Addr { return k.region })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// AttrText renders the profile as top-N tables, one per kind, each with a
// per-PC and a per-region section. Output is deterministic.
func (r *Recorder) AttrText(topN int) string {
	if r == nil || r.attr == nil {
		return ""
	}
	if topN <= 0 {
		topN = 10
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "attribution profile (region granularity %d B)\n", 1<<attrRegionBits)
	for _, kind := range AttrKinds() {
		total := r.attr.totals[kind]
		fmt.Fprintf(&sb, "\n%s: total %d\n", kind, total)
		if total == 0 {
			continue
		}
		sb.WriteString("  top PCs:\n")
		for _, c := range r.AttrTopPCs(kind, topN) {
			fmt.Fprintf(&sb, "    0x%08x  %10d  (%5.1f%%)\n", c.Addr, c.Count, 100*float64(c.Count)/float64(total))
		}
		sb.WriteString("  top regions:\n")
		for _, c := range r.AttrTopRegions(kind, topN) {
			fmt.Fprintf(&sb, "    0x%08x  %10d  (%5.1f%%)\n", c.Addr, c.Count, 100*float64(c.Count)/float64(total))
		}
	}
	return sb.String()
}

// AttrCollapsed renders the joint counts in collapsed-stack format, one
// line per cell: "kind;region_0x...;pc_0x... count". The synthetic
// two-frame stack (data region under the accessing PC) feeds flame-graph
// tooling (e.g. flamegraph.pl, speedscope) directly.
func (r *Recorder) AttrCollapsed() string {
	if r == nil || r.attr == nil {
		return ""
	}
	var sb strings.Builder
	for _, e := range r.AttrEntries() {
		fmt.Fprintf(&sb, "%s;region_0x%08x;pc_0x%08x %d\n", e.Kind, e.Region, e.PC, e.Count)
	}
	return sb.String()
}
