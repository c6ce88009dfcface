package workload

import (
	"math"

	"cppcache/internal/isa"
	"cppcache/internal/mach"
)

// The Olden benchmarks. Each function reproduces the original program's
// data-structure shape and traversal pattern at a reduced scale; the
// comment on each records the substitution.

// code-region bases, one per synthetic routine, so that the branch
// predictor and I-cache see stable PCs.
const (
	pcBuild mach.Addr = 0x0040_0000
	pcWalk  mach.Addr = 0x0041_0000
	pcLoop  mach.Addr = 0x0042_0000
	pcAux   mach.Addr = 0x0043_0000
	pcLoop2 mach.Addr = 0x0044_0000
	pcLoop3 mach.Addr = 0x0045_0000
)

// fbits returns the bit pattern of a float in [1,2): incompressible, like
// the double payloads of the FP-heavy Olden codes.
func fbits(b *B) mach.Word {
	return math.Float32bits(1 + b.Rand().Float32())
}

// TreeAdd reproduces olden.treeadd: build a perfect binary tree of
// four-word nodes {left, right, value, pad} and recursively sum the
// values. Substitution: same structure and traversal, tree depth scaled
// to ~16x the L2 capacity instead of the reference 1M nodes.
func TreeAdd(scale int) *Program {
	b := NewBuilder(0x7ee0)
	depth := 14 // 16K nodes x 16 B = 256K: four times the L2
	walks := 1 + scale/2

	type node struct{ addr mach.Addr }
	var build func(d int) mach.Addr
	build = func(d int) mach.Addr {
		if d == 0 {
			return 0
		}
		n := b.ScatterAlloc(8, 16, 16)
		l := build(d - 1)
		r := build(d - 1)
		b.SetPC(pcBuild)
		b.Store(n+0, l, NoReg, NoReg)
		b.Store(n+4, r, NoReg, NoReg)
		b.Store(n+8, 1, NoReg, NoReg)                                        // treeadd stores value 1 per node
		b.Store(n+12, b.Rand().Uint32()&0x0FFFFFFF|0x00808000, NoReg, NoReg) // payload word: incompressible
		return n
	}
	root := build(depth)

	var walk func(addr mach.Addr, dep Reg) Reg
	walk = func(addr mach.Addr, dep Reg) Reg {
		b.SetPC(pcWalk)
		l := b.Load(addr+0, dep)
		lAddr := b.image.ReadWord(addr + 0)
		b.Branch(l, lAddr != 0)
		var sum Reg = NoReg
		if lAddr != 0 {
			sum = walk(lAddr, l)
		}
		b.SetPC(pcWalk + 0x40)
		r := b.Load(addr+4, dep)
		rAddr := b.image.ReadWord(addr + 4)
		b.Branch(r, rAddr != 0)
		if rAddr != 0 {
			rs := walk(rAddr, r)
			if sum == NoReg {
				sum = rs
			} else {
				sum = b.ALU(sum, rs)
			}
		}
		b.SetPC(pcWalk + 0x80)
		v := b.Load(addr+8, dep)
		if sum == NoReg {
			return v
		}
		return b.ALU(sum, v)
	}
	for i := 0; i < walks; i++ {
		walk(root, NoReg)
	}
	return b.Program("olden.treeadd")
}

// Bisort reproduces olden.bisort: a binary tree of integers sorted by
// repeated bitonic merge passes that compare parent and child values and
// swap them in place. Substitution: the full bitonic recursion is
// approximated by value-swap sweeps, which preserve the read-compare-
// write-both pattern and data-dependent branches.
func Bisort(scale int) *Program {
	b := NewBuilder(0xb150)
	nNodes := 8192 // 128K of nodes
	passes := 1 + scale/2

	// Build a binary search tree by inserting full-range random keys.
	// Allocation order is insertion order, but the tree shape — and so
	// every later traversal — is dictated by the keys, which is what
	// decouples traversal order from address order in the original.
	type node struct{ addr mach.Addr }
	var rootAddr mach.Addr
	for k := 0; k < nNodes; k++ {
		key := b.Rand().Uint32()
		n := b.ScatterAlloc(8, 16, 16)
		b.SetPC(pcBuild)
		b.Store(n+0, 0, NoReg, NoReg)
		b.Store(n+4, 0, NoReg, NoReg)
		b.Store(n+8, key, NoReg, NoReg)
		if rootAddr == 0 {
			rootAddr = n
			continue
		}
		// Walk down comparing keys; the walk itself emits the loads an
		// insertion performs.
		cur := rootAddr
		var dep Reg = NoReg
		for steps := 0; ; steps++ {
			b.SetPC(pcAux)
			v := b.Load(cur+8, dep)
			cv := b.image.ReadWord(cur + 8)
			goLeft := key < cv
			b.Branch(v, goLeft)
			off := mach.Addr(4)
			if goLeft {
				off = 0
			}
			child := b.Load(cur+off, dep)
			ca := b.image.ReadWord(cur + off)
			if ca == 0 || steps > 64 {
				b.Store(cur+off, n, dep, NoReg)
				break
			}
			cur, dep = ca, child
		}
	}

	// Bitonic-flavoured sweeps: compare parent and child values, swap in
	// place when out of order.
	var sweep func(addr mach.Addr, dep Reg, up bool)
	sweep = func(addr mach.Addr, dep Reg, up bool) {
		b.SetPC(pcWalk)
		v := b.Load(addr+8, dep)
		for off := mach.Addr(0); off <= 4; off += 4 {
			child := b.image.ReadWord(addr + off)
			c := b.Load(addr+off, dep)
			b.Branch(c, child != 0)
			if child == 0 {
				continue
			}
			b.SetPC(pcWalk + 0x60)
			cv := b.Load(child+8, c)
			cmp := b.ALU(v, cv)
			vv := b.image.ReadWord(addr + 8)
			cvv := b.image.ReadWord(child + 8)
			swap := (vv > cvv) == up
			b.Branch(cmp, swap)
			if swap {
				b.Store(addr+8, cvv, dep, cv)
				b.Store(child+8, vv, c, v)
				v = cv
			}
			sweep(child, c, !up)
			b.SetPC(pcWalk + 0xC0)
		}
	}
	for pass := 0; pass < passes; pass++ {
		sweep(rootAddr, NoReg, pass%2 == 0)
	}
	return b.Program("olden.bisort")
}

// Perimeter reproduces olden.perimeter: build a quadtree over a random
// image and compute the perimeter of the black region by traversing the
// tree with data-dependent branches on node colour. Substitution: the
// neighbour-finding is approximated by a colour-weighted traversal, which
// keeps the structure (five-word nodes, 4-way fan-out, colour tests) that
// drives the cache behaviour.
func Perimeter(scale int) *Program {
	b := NewBuilder(0x9e71)
	depth := 7 + log2min0(scale)/2
	passes := 2 * scale

	const (
		white = 0
		black = 1
		grey  = 2
	)
	var build func(d int) mach.Addr
	build = func(d int) mach.Addr {
		n := b.ScatterAlloc(4, 24, 8) // colour + 4 children + pad
		if d == 0 || b.Rand().Intn(8) == 0 {
			colour := mach.Word(b.Rand().Intn(2)) // leaf: white or black
			b.SetPC(pcBuild)
			b.Store(n+0, colour, NoReg, NoReg)
			for i := mach.Addr(1); i <= 4; i++ {
				b.Store(n+i*4, 0, NoReg, NoReg)
			}
			return n
		}
		kids := [4]mach.Addr{}
		for i := range kids {
			kids[i] = build(d - 1)
		}
		b.SetPC(pcBuild + 0x40)
		b.Store(n+0, grey, NoReg, NoReg)
		for i, k := range kids {
			b.Store(n+mach.Addr(4+i*4), k, NoReg, NoReg)
		}
		return n
	}
	root := build(depth)

	var walk func(addr mach.Addr, dep Reg) Reg
	walk = func(addr mach.Addr, dep Reg) Reg {
		b.SetPC(pcWalk)
		colour := b.Load(addr+0, dep)
		cv := b.image.ReadWord(addr + 0)
		b.Branch(colour, cv == grey)
		if cv != grey {
			// Leaf contribution: a couple of ALU ops stand in for the
			// four neighbour checks.
			return b.ALU(colour, NoReg)
		}
		var sum Reg = NoReg
		for i := mach.Addr(1); i <= 4; i++ {
			b.SetPC(pcWalk + 0x80 + i*0x20)
			k := b.Load(addr+i*4, dep)
			kAddr := b.image.ReadWord(addr + i*4)
			if kAddr == 0 {
				continue
			}
			s := walk(kAddr, k)
			if sum == NoReg {
				sum = s
			} else {
				sum = b.ALU(sum, s)
			}
		}
		return sum
	}
	for p := 0; p < passes; p++ {
		walk(root, NoReg)
	}
	return b.Program("olden.perimeter")
}

// Health reproduces olden.health: a 4-ary tree of villages, each with a
// linked list of patients that is traversed every time step; patients age
// in place and occasionally transfer up to the parent village. This is
// the paper's Figure 5 pattern writ large: one node per cache line,
// next-pointer chase with a rarely-needed payload word. Substitution:
// fixed transfer probability instead of the original's per-village
// seeding; same list mechanics.
func Health(scale int) *Program {
	b := NewBuilder(0x4ea1)
	levels := 4
	steps := 3 * scale

	type village struct {
		addr     mach.Addr // {listHead, parent, id, pad}
		parent   *village
		children []*village
	}
	var mkVillage func(parent *village, level int) *village
	var villages []*village
	mkVillage = func(parent *village, level int) *village {
		v := &village{addr: b.Alloc(16, 16), parent: parent}
		villages = append(villages, v)
		b.SetPC(pcBuild)
		b.Store(v.addr+0, 0, NoReg, NoReg) // empty patient list
		pa := mach.Addr(0)
		if parent != nil {
			pa = parent.addr
		}
		b.Store(v.addr+4, pa, NoReg, NoReg)
		b.Store(v.addr+8, mach.Word(len(villages)), NoReg, NoReg)
		if level > 0 {
			for i := 0; i < 4; i++ {
				v.children = append(v.children, mkVillage(v, level-1))
			}
		}
		return v
	}
	root := mkVillage(nil, levels)

	// Patient node, one L1 line each: {next, village, age, status} padded
	// to 64 bytes like the allocator-aligned nodes in Figure 5.
	newPatient := func(v *village) mach.Addr {
		p := b.ScatterAlloc(4, 64, 64)
		b.SetPC(pcAux)
		head := b.image.ReadWord(v.addr + 0)
		b.Store(p+0, head, NoReg, NoReg)
		b.Store(p+4, v.addr, NoReg, NoReg)
		b.Store(p+8, 0, NoReg, NoReg)
		b.Store(p+12, mach.Word(b.Rand().Intn(4)), NoReg, NoReg)
		b.Store(v.addr+0, p, NoReg, NoReg)
		return p
	}
	for _, v := range villages {
		n := 4 + b.Rand().Intn(12)
		for i := 0; i < n; i++ {
			newPatient(v)
		}
	}

	// Simulation steps.
	for s := 0; s < steps; s++ {
		for _, v := range villages {
			b.SetPC(pcLoop)
			headReg := b.Load(v.addr+0, NoReg)
			cur := b.image.ReadWord(v.addr + 0)
			dep := headReg
			prev := mach.Addr(0)
			var prevDep Reg = NoReg
			for cur != 0 {
				b.SetPC(pcLoop + 0x40)
				b.Branch(dep, true) // list-not-empty check
				age := b.Load(cur+8, dep)
				aged := b.ALU(age, NoReg)
				b.Store(cur+8, b.image.ReadWord(cur+8)+1, dep, aged)
				status := b.Load(cur+12, dep)
				next := b.Load(cur+0, dep)
				nextAddr := b.image.ReadWord(cur + 0)
				transfer := v.parent != nil && b.Rand().Intn(16) == 0
				b.Branch(status, transfer)
				if transfer {
					// Unlink and push onto the parent's list.
					b.SetPC(pcLoop2)
					if prev == 0 {
						b.Store(v.addr+0, nextAddr, NoReg, next)
					} else {
						b.Store(prev+0, nextAddr, prevDep, next)
					}
					pHead := b.image.ReadWord(v.parent.addr + 0)
					ph := b.Load(v.parent.addr+0, NoReg)
					b.Store(cur+0, pHead, dep, ph)
					b.Store(v.parent.addr+0, cur, NoReg, dep)
					b.Store(cur+4, v.parent.addr, dep, NoReg)
				} else {
					prev, prevDep = cur, dep
				}
				cur, dep = nextAddr, next
			}
			b.SetPC(pcLoop + 0x80)
			b.Branch(dep, false) // loop exit
		}
	}
	_ = root
	return b.Program("olden.health")
}

// log2min0 returns floor(log2(max(scale,1))).
func log2min0(scale int) int {
	if scale < 1 {
		scale = 1
	}
	n := 0
	for scale > 1 {
		scale >>= 1
		n++
	}
	return n
}

// fpOp emits a floating-point op of the given kind for FP-heavy kernels.
func fpOp(b *B, op isa.Op, s1, s2 Reg) Reg { return b.Op(op, s1, s2) }
