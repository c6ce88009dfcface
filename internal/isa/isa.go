// Package isa defines the trace instruction set consumed by the simulated
// processor core.
//
// Workload generators (internal/workload) emit traces of Inst records.
// Each record carries an opcode, virtual-register dependence edges (SSA-ish
// ids that grow monotonically), and — for memory operations — the concrete
// byte address and word value. The core uses the dependence edges and
// opcodes for timing, and the cache hierarchies use the addresses and
// values; because values are concrete, value compressibility in the caches
// is measured rather than assumed.
package isa

import "cppcache/internal/mach"

// Op identifies an instruction class. Classes map one-to-one onto the
// functional units of the simulated core (Figure 9 of the paper).
type Op uint8

const (
	// OpNop consumes a slot but no functional unit.
	OpNop Op = iota
	// OpALU is a single-cycle integer operation (add, sub, logic, compare).
	OpALU
	// OpMul is an integer multiply.
	OpMul
	// OpDiv is an integer divide.
	OpDiv
	// OpFALU is a single-issue floating-point add-class operation.
	OpFALU
	// OpFMul is a floating-point multiply.
	OpFMul
	// OpFDiv is a floating-point divide.
	OpFDiv
	// OpLoad reads one word from memory.
	OpLoad
	// OpStore writes one word to memory.
	OpStore
	// OpBranch is a conditional branch; Taken records its outcome.
	OpBranch

	numOps
)

var opNames = [numOps]string{
	"nop", "alu", "mul", "div", "falu", "fmul", "fdiv", "load", "store", "branch",
}

// String returns the lower-case mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// IsMem reports whether the opcode accesses memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// NoReg marks an absent register operand or destination.
const NoReg int32 = -1

// Inst is one dynamic instruction in a trace.
//
// Dest is the virtual register written (NoReg for stores, branches, nops).
// Src1 and Src2 are the virtual registers read (NoReg when absent). For a
// load, Src1 is the address-generating register: a pointer-chasing loop is
// expressed as each load's Src1 naming the previous load's Dest. For a
// store, Src1 is the address register and Src2 the data register.
type Inst struct {
	Op    Op
	Dest  int32
	Src1  int32
	Src2  int32
	Addr  mach.Addr // memory ops: concrete byte address
	Value mach.Word // stores: value written; loads: expected value (functional check)
	Taken bool      // branches: resolved direction
	PC    mach.Addr // instruction address, used by the branch predictor
}

// Mix tallies a trace's instruction class counts.
type Mix struct {
	Counts [numOps]int64
	Total  int64
}

// Add accumulates one instruction into the mix.
func (m *Mix) Add(in Inst) {
	m.Counts[in.Op]++
	m.Total++
}

// Frac returns the fraction of instructions with opcode o.
func (m *Mix) Frac(o Op) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Counts[o]) / float64(m.Total)
}
