// Package workload generates the instruction-and-value traces that drive
// the experiments, standing in for the paper's Olden / SPECint95 /
// SPECint2000 binaries with their reference inputs.
//
// Each benchmark is a Go function that *executes* the original program's
// characteristic algorithm — allocating nodes on a simulated heap,
// chasing pointers, doing arithmetic — while recording every step as an
// isa.Inst with true dependence edges, concrete addresses and concrete
// values. The properties the paper's results rest on are therefore
// reproduced rather than assumed:
//
//   - value mix: pointer fields point into nearby 32K chunks (the bump
//     allocator places consecutive nodes together, like Olden's), counters
//     and type fields are small values, and payload data (checksums, float
//     bits, hashes) is incompressible;
//   - dependence structure: list/tree traversals carry the loaded pointer
//     into the next load's address, so a cache miss blocks the chain;
//   - locality: node sizes and layouts match the paper's motivating
//     examples (e.g. the Figure 5 list node is exactly example/linkedlist).
package workload

import (
	"fmt"
	"math/rand"

	"cppcache/internal/isa"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
)

// Reg is a virtual-register handle produced by builder operations.
type Reg = int32

// NoReg marks an absent dependence.
const NoReg = isa.NoReg

// HeapBase is where the simulated heap starts. It is far from address 0
// so that pointer values are only compressible through the shared-prefix
// rule, never accidentally as small values.
const HeapBase mach.Addr = 0x1000_0000

// B records a program: a growing instruction trace plus a functional
// memory image that supplies load values.
type B struct {
	insts []isa.Inst
	image *mem.Memory
	next  Reg
	brk   mach.Addr
	rng   *rand.Rand
	pc    mach.Addr

	arenas    []mach.Addr
	arenaEnds []mach.Addr
	arenaNext int
}

// NewBuilder returns an empty builder with a deterministic RNG. The trace
// array starts with room for a typical scale-1 benchmark so early emission
// does not repeatedly regrow it.
func NewBuilder(seed int64) *B {
	return &B{
		insts: make([]isa.Inst, 0, 1<<14),
		image: mem.New(),
		brk:   HeapBase,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Rand exposes the builder's deterministic RNG for data generation.
func (b *B) Rand() *rand.Rand { return b.rng }

// SetPC positions the emission point: subsequent instructions get
// consecutive PCs from base. Call it at the top of each loop body or
// routine so that static code reuses PCs, which is what the branch
// predictor and the instruction cache key on.
func (b *B) SetPC(base mach.Addr) { b.pc = base }

func (b *B) emit(in isa.Inst) {
	in.PC = b.pc
	b.pc += 4
	b.insts = append(b.insts, in)
}

func (b *B) newReg() Reg {
	r := b.next
	b.next++
	return r
}

// Alloc carves bytes from the heap, aligned to align (a power of two).
// Word alignment is the minimum.
func (b *B) Alloc(bytes, align int) mach.Addr {
	if align < mach.WordBytes {
		align = mach.WordBytes
	}
	a := mach.Addr(align)
	b.brk = (b.brk + a - 1) &^ (a - 1)
	p := b.brk
	b.brk += mach.Addr((bytes + mach.WordBytes - 1) &^ (mach.WordBytes - 1))
	return p
}

// scatterChunk is the granule of scattered allocation: the 32K
// pointer-compression chunk. Interleaving stays inside one chunk so that
// pointers between scattered nodes usually still share their 17-bit
// prefix, as they do under real allocators that recycle a region.
const scatterChunk mach.Addr = 32 << 10

// ScatterAlloc allocates like Alloc but interleaves allocations across n
// stripes of the current 32K chunk. Consecutive allocations land far
// apart inside the chunk — defeating the next-line correlation between
// allocation order and traversal order, as free-list reuse does in the
// original programs — while pointers among them remain compressible
// because they stay within one chunk. When a stripe fills, allocation
// moves on to a fresh chunk.
func (b *B) ScatterAlloc(n int, bytes, align int) mach.Addr {
	if n < 2 {
		return b.Alloc(bytes, align)
	}
	need := mach.Addr((bytes + mach.WordBytes - 1) &^ (mach.WordBytes - 1))
	stripe := scatterChunk / mach.Addr(n)
	for {
		if len(b.arenas) != n {
			base := (b.brk + scatterChunk - 1) &^ (scatterChunk - 1)
			b.brk = base + scatterChunk
			b.arenas = make([]mach.Addr, n)
			b.arenaEnds = make([]mach.Addr, n)
			for i := range b.arenas {
				// Offset stripes by a line so same-ordinal
				// allocations do not alias to one cache set.
				b.arenas[i] = base + mach.Addr(i)*stripe + mach.Addr(i*64)
				b.arenaEnds[i] = base + mach.Addr(i+1)*stripe
			}
		}
		i := b.arenaNext % n
		b.arenaNext++
		a := mach.Addr(align)
		if a < mach.WordBytes {
			a = mach.WordBytes
		}
		p := (b.arenas[i] + a - 1) &^ (a - 1)
		if p+need > b.arenaEnds[i] {
			// The chunk is effectively full: start a new one.
			b.arenas = nil
			continue
		}
		b.arenas[i] = p + need
		return p
	}
}

// Const materialises a constant: an ALU op with no sources.
func (b *B) Const(v mach.Word) Reg {
	r := b.newReg()
	b.emit(isa.Inst{Op: isa.OpALU, Dest: r, Src1: NoReg, Src2: NoReg, Value: v})
	return r
}

// Op emits a computation with up to two sources and returns its result
// register.
func (b *B) Op(op isa.Op, s1, s2 Reg) Reg {
	r := b.newReg()
	b.emit(isa.Inst{Op: op, Dest: r, Src1: s1, Src2: s2})
	return r
}

// ALU is Op(isa.OpALU, s1, s2).
func (b *B) ALU(s1, s2 Reg) Reg { return b.Op(isa.OpALU, s1, s2) }

// Load reads the word at addr. addrDep is the register the address was
// computed from (NoReg for a static address); it becomes the load's Src1,
// expressing pointer-chasing dependences. The loaded value is taken from
// the builder's memory image.
func (b *B) Load(addr mach.Addr, addrDep Reg) Reg {
	r := b.newReg()
	b.emit(isa.Inst{
		Op: isa.OpLoad, Dest: r, Src1: addrDep, Src2: NoReg,
		Addr: mach.WordAlign(addr), Value: b.image.ReadWord(addr),
	})
	return r
}

// Store writes v at addr, updating the image. addrDep and valDep carry the
// dependences for the address and data.
func (b *B) Store(addr mach.Addr, v mach.Word, addrDep, valDep Reg) {
	b.image.WriteWord(addr, v)
	b.emit(isa.Inst{
		Op: isa.OpStore, Dest: NoReg, Src1: addrDep, Src2: valDep,
		Addr: mach.WordAlign(addr), Value: v,
	})
}

// Branch emits a conditional branch with the given resolved direction,
// depending on cond.
func (b *B) Branch(cond Reg, taken bool) {
	b.emit(isa.Inst{Op: isa.OpBranch, Dest: NoReg, Src1: cond, Src2: NoReg, Taken: taken})
}

// Len returns the number of instructions recorded so far.
func (b *B) Len() int { return len(b.insts) }

// Program finalises the builder.
func (b *B) Program(name string) *Program {
	return &Program{Name: name, insts: b.insts}
}

// Program is a finished trace.
type Program struct {
	Name  string
	insts []isa.Inst
}

// Len returns the trace length in instructions.
func (p *Program) Len() int { return len(p.insts) }

// Insts exposes the raw trace (read-only by convention).
func (p *Program) Insts() []isa.Inst { return p.insts }

// String implements fmt.Stringer.
func (p *Program) String() string {
	return fmt.Sprintf("%s (%d instructions)", p.Name, len(p.insts))
}

// Image exposes the functional memory image (for the public facade's Peek).
func (b *B) Image() *mem.Memory { return b.image }
