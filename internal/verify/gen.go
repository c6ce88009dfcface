package verify

import (
	"fmt"
	"math/rand"

	"cppcache/internal/isa"
	"cppcache/internal/mach"
	"cppcache/internal/workload"
)

// Op is one word access of a verification stream.
type Op struct {
	Write bool
	Addr  mach.Addr
	// Val is the value stored (writes) or, when Expect is set, the
	// ground-truth value the load must return (workload replay).
	Val mach.Word
	// Expect marks a read whose Val is authoritative (taken from a
	// workload trace). Reads without Expect are checked against the
	// oracle only.
	Expect bool
}

// String renders an op in the compact form used by repro listings.
func (op Op) String() string {
	if op.Write {
		return fmt.Sprintf("W %#08x %#08x", op.Addr, op.Val)
	}
	return fmt.Sprintf("R %#08x", op.Addr)
}

// Stream is a named sequence of accesses to drive through a hierarchy.
type Stream struct {
	Name string
	Ops  []Op
}

// chunkBytes is the 32K pointer-compression granule (§2.1): pointers
// generated within one chunk share their 17 high-order bits with the
// addresses they are stored at, so they compress.
const chunkBytes = 32 << 10

// RandomStream generates a deterministic, seeded access stream of roughly
// n ops mixing the behaviours the CPP design is sensitive to:
//
//   - single reads/writes over a small set of 32K chunks, with a value mix
//     of small values, same-chunk pointers, boundary patterns and
//     incompressible bits;
//   - sequential line sweeps (the affiliated-prefetch sweet spot);
//   - mutation bursts that flip words between compressible and
//     incompressible forms (exercising conflict evictions);
//   - pointer-chain builds followed by chases, where each loaded pointer
//     decides the next address — a wrong load value changes the walk;
//   - conflict ping-pong between addresses that alias in the 8K
//     direct-mapped L1 and the 64K 2-way L2.
//
// The same seed always yields the identical stream.
func RandomStream(seed int64, n int) *Stream {
	rng := rand.New(rand.NewSource(seed))
	g := &genState{
		rng:    rng,
		oracle: make(map[mach.Addr]mach.Word),
	}
	nChunks := 2 + rng.Intn(3)
	for i := 0; i < nChunks; i++ {
		// Distinct 32K-aligned regions, far enough apart that pointers
		// never accidentally compress across chunks.
		g.chunks = append(g.chunks, mach.Addr(0x1000_0000+i*0x0040_0000))
	}
	for len(g.ops) < n {
		switch g.rng.Intn(10) {
		case 0, 1, 2:
			g.single()
		case 3:
			g.lineSweep()
		case 4:
			g.mutationBurst()
		case 5:
			g.pointerChase()
		case 6:
			g.conflictPingPong()
		default:
			g.revisit()
		}
	}
	g.ops = g.ops[:n]
	return &Stream{Name: fmt.Sprintf("random(seed=%d,n=%d)", seed, n), Ops: g.ops}
}

type genState struct {
	rng    *rand.Rand
	ops    []Op
	oracle map[mach.Addr]mach.Word // generator's own ground truth
	chunks []mach.Addr
	recent []mach.Addr // ring of recently touched addresses
}

func (g *genState) read(a mach.Addr) {
	a = mach.WordAlign(a)
	g.ops = append(g.ops, Op{Addr: a})
	g.touch(a)
}

func (g *genState) write(a mach.Addr, v mach.Word) {
	a = mach.WordAlign(a)
	g.ops = append(g.ops, Op{Write: true, Addr: a, Val: v})
	g.oracle[a] = v
	g.touch(a)
}

func (g *genState) touch(a mach.Addr) {
	if len(g.recent) < 64 {
		g.recent = append(g.recent, a)
		return
	}
	g.recent[g.rng.Intn(len(g.recent))] = a
}

// addr picks a word address inside a random chunk.
func (g *genState) addr() mach.Addr {
	base := g.chunks[g.rng.Intn(len(g.chunks))]
	return base + mach.Addr(g.rng.Intn(chunkBytes/mach.WordBytes))*mach.WordBytes
}

// value picks a word biased across the compressibility classes for the
// destination address a.
func (g *genState) value(a mach.Addr) mach.Word {
	switch g.rng.Intn(8) {
	case 0, 1, 2: // small value in [-16384, 16383]
		return mach.Word(int32(g.rng.Intn(1<<15)) - (1 << 14))
	case 3, 4: // pointer into the same 32K chunk
		return (a &^ (chunkBytes - 1)) | mach.Word(g.rng.Intn(chunkBytes))&^3
	case 5: // boundary patterns around the compressibility edges
		edges := []mach.Word{0, ^mach.Word(0), 16383, 0xFFFF_C000, 16384, 0xFFFF_BFFF, 0x8000}
		return edges[g.rng.Intn(len(edges))]
	default: // incompressible bits
		return g.rng.Uint32() | 1<<30
	}
}

// single emits one random read or write.
func (g *genState) single() {
	a := g.addr()
	if g.rng.Intn(2) == 0 {
		g.read(a)
	} else {
		g.write(a, g.value(a))
	}
}

// lineSweep reads (sometimes writes) consecutive words across a few
// adjacent 64 B lines, the pattern next-line affiliation rewards.
func (g *genState) lineSweep() {
	start := g.addr() &^ 63
	lines := 2 + g.rng.Intn(4)
	writeFirst := g.rng.Intn(3) == 0
	for l := 0; l < lines; l++ {
		for w := 0; w < 16; w++ {
			a := start + mach.Addr(l*64+w*4)
			if a >= g.chunks[len(g.chunks)-1]+chunkBytes {
				return
			}
			if writeFirst {
				g.write(a, g.value(a))
			} else {
				g.read(a)
			}
		}
	}
}

// mutationBurst rewrites one line's words, alternating compressible and
// incompressible values, with interleaved read-backs. This drives the
// compressible -> incompressible transitions that evict affiliated words.
func (g *genState) mutationBurst() {
	base := g.addr() &^ 63
	for w := 0; w < 16; w++ {
		a := base + mach.Addr(w*4)
		var v mach.Word
		if w%2 == 0 {
			v = mach.Word(g.rng.Intn(1 << 14)) // compressible
		} else {
			v = g.rng.Uint32() | 1<<30 // incompressible
		}
		g.write(a, v)
		if w%4 == 3 {
			g.read(base + mach.Addr(g.rng.Intn(w+1)*4))
		}
	}
	// Second pass flips the parity, forcing transitions both ways.
	for w := 0; w < 16; w += 2 {
		a := base + mach.Addr(w*4)
		g.write(a, g.rng.Uint32()|1<<30)
		g.read(a)
	}
}

// pointerChase builds a short linked chain inside one chunk, then walks
// it. The next address of each hop is the value the generator's own
// oracle holds, so a simulator that returns a corrupted pointer diverges
// from the recorded walk immediately.
func (g *genState) pointerChase() {
	base := g.chunks[g.rng.Intn(len(g.chunks))]
	nodes := 4 + g.rng.Intn(12)
	addrs := make([]mach.Addr, nodes)
	for i := range addrs {
		// 16-byte nodes scattered through the chunk: word 0 = next,
		// word 1 = small payload, word 2 = incompressible payload.
		addrs[i] = base + mach.Addr(g.rng.Intn(chunkBytes/16))*16
	}
	for i := range addrs {
		next := mach.Word(0)
		if i+1 < nodes {
			next = addrs[i+1]
		}
		g.write(addrs[i], next)
		g.write(addrs[i]+4, mach.Word(g.rng.Intn(1<<14)))
		g.write(addrs[i]+8, g.rng.Uint32()|1<<30)
	}
	cur := addrs[0]
	for hops := 0; hops < nodes; hops++ {
		g.read(cur)
		g.read(cur + 4)
		next := g.oracle[cur]
		if next == 0 {
			break
		}
		cur = mach.Addr(next)
	}
}

// conflictPingPong alternates between addresses that map to the same L1
// set (8K apart) and the same L2 set (32K apart), forcing evictions,
// write-backs and victim placements.
func (g *genState) conflictPingPong() {
	a := g.addr()
	strides := []mach.Addr{8 << 10, 32 << 10, 16 << 10}
	b := a + strides[g.rng.Intn(len(strides))]
	for i := 0; i < 4+g.rng.Intn(8); i++ {
		x := a
		if i%2 == 1 {
			x = b
		}
		if g.rng.Intn(3) == 0 {
			g.write(x, g.value(x))
		} else {
			g.read(x)
		}
	}
}

// revisit re-touches a recently used address for temporal locality.
func (g *genState) revisit() {
	if len(g.recent) == 0 {
		g.single()
		return
	}
	a := g.recent[g.rng.Intn(len(g.recent))]
	if g.rng.Intn(4) == 0 {
		g.write(a, g.value(a))
	} else {
		g.read(a)
	}
}

// WorkloadStream converts the memory operations of one of the 14 paper
// workloads into a verification stream. Loads carry the trace's recorded
// value as ground truth (Expect), giving a second, independent check
// beyond the oracle.
func WorkloadStream(name string, scale int) (*Stream, error) {
	bm, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = 1
	}
	p := bm.Build(scale)
	s := &Stream{Name: fmt.Sprintf("%s(scale=%d)", name, scale)}
	for _, in := range p.Insts() {
		switch in.Op {
		case isa.OpLoad:
			s.Ops = append(s.Ops, Op{Addr: in.Addr, Val: in.Value, Expect: true})
		case isa.OpStore:
			s.Ops = append(s.Ops, Op{Write: true, Addr: in.Addr, Val: in.Value})
		}
	}
	return s, nil
}
