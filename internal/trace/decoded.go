// Package trace holds the pre-decoded, struct-of-arrays instruction
// trace that every run replays.
//
// A workload generator produces its trace as []isa.Inst (32 bytes per
// record). Decoded splits the same records into flat per-field buffers
// (opcode, register ids, address, value, flags), 26 bytes per
// instruction. It is built once per (workload, scale) and shared
// read-only across every configuration, repetition and goroutine of a
// sweep. Each field's buffer is contiguous, so replay loops that touch
// only a few fields (the functional simulator reads just
// opcode/addr/value/pc) stream through them, and the core's fetch stage
// indexes them directly.
package trace

import (
	"cppcache/internal/isa"
	"cppcache/internal/mach"
)

// Decoded is an immutable struct-of-arrays instruction trace. Build one
// with NewDecoded; all slices have identical length and must never be
// mutated (they are shared across concurrent runs without locking).
type Decoded struct {
	ops    []isa.Op
	dests  []int32
	src1s  []int32
	src2s  []int32
	addrs  []mach.Addr
	values []mach.Word
	pcs    []mach.Addr
	takens []bool
}

// NewDecoded pre-decodes an instruction slice into struct-of-arrays
// form. The input is not retained.
func NewDecoded(insts []isa.Inst) *Decoded {
	n := len(insts)
	d := &Decoded{
		ops:    make([]isa.Op, n),
		dests:  make([]int32, n),
		src1s:  make([]int32, n),
		src2s:  make([]int32, n),
		addrs:  make([]mach.Addr, n),
		values: make([]mach.Word, n),
		pcs:    make([]mach.Addr, n),
		takens: make([]bool, n),
	}
	for i := range insts {
		in := &insts[i]
		d.ops[i] = in.Op
		d.dests[i] = in.Dest
		d.src1s[i] = in.Src1
		d.src2s[i] = in.Src2
		d.addrs[i] = in.Addr
		d.values[i] = in.Value
		d.pcs[i] = in.PC
		d.takens[i] = in.Taken
	}
	return d
}

// Len returns the trace length in instructions.
func (d *Decoded) Len() int { return len(d.ops) }

// Bytes returns the heap footprint of the buffers, the unit the
// workload package's size-bounded store budgets in.
func (d *Decoded) Bytes() int64 {
	const perInst = 1 + 4 + 4 + 4 + 4 + 4 + 4 + 1 // op + 3 regs + addr + value + pc + taken
	return int64(len(d.ops)) * perInst
}

// At gathers instruction i back into record form.
func (d *Decoded) At(i int) isa.Inst {
	return isa.Inst{
		Op:    d.ops[i],
		Dest:  d.dests[i],
		Src1:  d.src1s[i],
		Src2:  d.src2s[i],
		Addr:  d.addrs[i],
		Value: d.values[i],
		Taken: d.takens[i],
		PC:    d.pcs[i],
	}
}

// Field accessors expose the raw buffers for replay loops; callers must
// treat them as read-only.

// Ops returns the opcode buffer.
func (d *Decoded) Ops() []isa.Op { return d.ops }

// Dests returns the destination-register buffer.
func (d *Decoded) Dests() []int32 { return d.dests }

// Src1s returns the first-source-register buffer.
func (d *Decoded) Src1s() []int32 { return d.src1s }

// Src2s returns the second-source-register buffer.
func (d *Decoded) Src2s() []int32 { return d.src2s }

// Addrs returns the memory-address buffer (meaningful for memory ops).
func (d *Decoded) Addrs() []mach.Addr { return d.addrs }

// Values returns the data-value buffer (stores write it, loads check it).
func (d *Decoded) Values() []mach.Word { return d.values }

// PCs returns the instruction-address buffer.
func (d *Decoded) PCs() []mach.Addr { return d.pcs }

// Takens returns the branch-outcome buffer.
func (d *Decoded) Takens() []bool { return d.takens }
