// Package trace holds the pre-decoded, struct-of-arrays instruction
// trace that every run replays.
//
// A workload generator produces its trace as []isa.Inst (32 bytes per
// record). Decoded splits the same records into flat per-field buffers
// (opcode, destination, two dependences, address, value, pc, taken), 26
// bytes per instruction. Register dependences are resolved once, here:
// each source is stored as the distance back to its producer, the latest
// earlier instruction that writes that register, so the core links a
// consumer to its producer without a register scoreboard. A Decoded is
// built once per (workload, scale) and shared read-only across every
// configuration, repetition and goroutine of a sweep. Each field's buffer
// is contiguous, so replay loops that touch only a few fields (the
// functional simulator reads just opcode/addr/value/pc) stream through them,
// and the core's fetch and dispatch stages index them directly.
package trace

import (
	"cppcache/internal/isa"
	"cppcache/internal/mach"
)

// A dependence column entry names where one source operand comes from:
//
//   - d > 0: the producer is instruction i-d, whose Dest is the source
//     register;
//   - NoDep: the source is absent (NoReg, or any negative register id);
//   - d <= -2: register -2-d, which no earlier instruction writes.
const NoDep int32 = -1

// Decoded is an immutable struct-of-arrays instruction trace. Build one
// with NewDecoded; all slices have identical length and must never be
// mutated (they are shared across concurrent runs without locking).
type Decoded struct {
	ops    []isa.Op
	dests  []int32
	dep1s  []int32
	dep2s  []int32
	addrs  []mach.Addr
	values []mach.Word
	pcs    []mach.Addr
	takens []bool
}

// NewDecoded pre-decodes an instruction slice into struct-of-arrays
// form, resolving each source register to its producer. Register ids are
// the small dense counters workload.B allocates; the decode keeps one
// table entry per id up to the largest destination. The input is not
// retained.
func NewDecoded(insts []isa.Inst) *Decoded {
	n := len(insts)
	d := &Decoded{
		ops:    make([]isa.Op, n),
		dests:  make([]int32, n),
		dep1s:  make([]int32, n),
		dep2s:  make([]int32, n),
		addrs:  make([]mach.Addr, n),
		values: make([]mach.Word, n),
		pcs:    make([]mach.Addr, n),
		takens: make([]bool, n),
	}
	maxDest := int32(-1)
	for i := range insts {
		maxDest = max(maxDest, insts[i].Dest)
	}
	// last[r] is one more than the index of the latest writer of r so far.
	last := make([]int32, maxDest+1)
	dep := func(i int, r int32) int32 {
		switch {
		case r < 0:
			return NoDep
		case r <= maxDest && last[r] > 0:
			return int32(i) + 1 - last[r]
		}
		return -2 - r
	}
	for i := range insts {
		in := &insts[i]
		d.ops[i] = in.Op
		d.dests[i] = in.Dest
		d.dep1s[i] = dep(i, in.Src1)
		d.dep2s[i] = dep(i, in.Src2)
		d.addrs[i] = in.Addr
		d.values[i] = in.Value
		d.pcs[i] = in.PC
		d.takens[i] = in.Taken
		if in.Dest >= 0 {
			last[in.Dest] = int32(i) + 1
		}
	}
	return d
}

// Len returns the trace length in instructions.
func (d *Decoded) Len() int { return len(d.ops) }

// Bytes returns the heap footprint of the buffers, the unit the
// workload package's size-bounded store budgets in.
func (d *Decoded) Bytes() int64 {
	const perInst = 1 + 4 + 4 + 4 + 4 + 4 + 4 + 1 // op + dest + 2 deps + addr + value + pc + taken
	return int64(len(d.ops)) * perInst
}

// At gathers instruction i back into record form, rebuilding each source
// register from its dependence: the producer's Dest, or the register a
// negative code names.
func (d *Decoded) At(i int) isa.Inst {
	return isa.Inst{
		Op:    d.ops[i],
		Dest:  d.dests[i],
		Src1:  d.srcReg(i, d.dep1s[i]),
		Src2:  d.srcReg(i, d.dep2s[i]),
		Addr:  d.addrs[i],
		Value: d.values[i],
		Taken: d.takens[i],
		PC:    d.pcs[i],
	}
}

func (d *Decoded) srcReg(i int, dep int32) int32 {
	switch {
	case dep > 0:
		return d.dests[i-int(dep)]
	case dep == NoDep:
		return isa.NoReg
	}
	return -2 - dep
}

// Field accessors expose the raw buffers for replay loops; callers must
// treat them as read-only.

// Ops returns the opcode buffer.
func (d *Decoded) Ops() []isa.Op { return d.ops }

// Dests returns the destination-register buffer.
func (d *Decoded) Dests() []int32 { return d.dests }

// Dep1s returns the first source's dependence buffer (see NoDep).
func (d *Decoded) Dep1s() []int32 { return d.dep1s }

// Dep2s returns the second source's dependence buffer (see NoDep).
func (d *Decoded) Dep2s() []int32 { return d.dep2s }

// Addrs returns the memory-address buffer (meaningful for memory ops).
func (d *Decoded) Addrs() []mach.Addr { return d.addrs }

// Values returns the data-value buffer (stores write it, loads check it).
func (d *Decoded) Values() []mach.Word { return d.values }

// PCs returns the instruction-address buffer.
func (d *Decoded) PCs() []mach.Addr { return d.pcs }

// Takens returns the branch-outcome buffer.
func (d *Decoded) Takens() []bool { return d.takens }
