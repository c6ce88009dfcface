package cpu

import (
	"testing"

	"cppcache/internal/hier"
	"cppcache/internal/isa"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/trace"
)

// perfectMem is a memsys.System with fixed latency and no state, for
// isolating pipeline behaviour.
type perfectMem struct {
	lat   int
	store map[mach.Addr]mach.Word
	stats memsys.Stats
}

func newPerfect(lat int) *perfectMem {
	return &perfectMem{lat: lat, store: map[mach.Addr]mach.Word{}}
}

func (p *perfectMem) Read(a mach.Addr) (mach.Word, int) { return p.store[mach.WordAlign(a)], p.lat }
func (p *perfectMem) Write(a mach.Addr, v mach.Word) int {
	p.store[mach.WordAlign(a)] = v
	return p.lat
}
func (p *perfectMem) Stats() *memsys.Stats { return &p.stats }
func (p *perfectMem) Name() string         { return "perfect" }

func run(t *testing.T, insts []isa.Inst, d memsys.System) Result {
	t.Helper()
	c, err := New(DefaultParams(), d)
	if err != nil {
		t.Fatal(err)
	}
	return c.Run(trace.NewDecoded(insts))
}

// alu builds a simple ALU instruction.
func alu(dest, src1, src2 int32, pc mach.Addr) isa.Inst {
	return isa.Inst{Op: isa.OpALU, Dest: dest, Src1: src1, Src2: src2, PC: pc}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.IssueWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero issue width accepted")
	}
	bad = DefaultParams()
	bad.ICacheLines = 100
	if err := bad.Validate(); err == nil {
		t.Error("non-pow2 icache accepted")
	}
}

func TestEmptyStream(t *testing.T) {
	res := run(t, nil, newPerfect(1))
	if res.Instructions != 0 {
		t.Errorf("Instructions = %d", res.Instructions)
	}
}

func TestAllInstructionsRetire(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 1000; i++ {
		insts = append(insts, alu(int32(i), isa.NoReg, isa.NoReg, mach.Addr(i%32*8)))
	}
	res := run(t, insts, newPerfect(1))
	if res.Instructions != 1000 {
		t.Fatalf("retired %d, want 1000", res.Instructions)
	}
	// 4-wide with no dependencies: roughly 250 cycles plus pipeline fill
	// and I-cache warmup.
	if res.Cycles > 600 {
		t.Errorf("independent ALU stream took %d cycles", res.Cycles)
	}
}

func TestDependenceChainSerialises(t *testing.T) {
	// A chain of N dependent ALU ops needs at least N cycles; independent
	// ops of the same count need about N/4.
	var chain, indep []isa.Inst
	for i := 0; i < 400; i++ {
		src := int32(i - 1)
		if i == 0 {
			src = isa.NoReg
		}
		chain = append(chain, alu(int32(i), src, isa.NoReg, mach.Addr(i%16*8)))
		indep = append(indep, alu(int32(i), isa.NoReg, isa.NoReg, mach.Addr(i%16*8)))
	}
	rc := run(t, chain, newPerfect(1))
	ri := run(t, indep, newPerfect(1))
	if rc.Cycles < 400 {
		t.Errorf("dependent chain finished in %d cycles (< chain length)", rc.Cycles)
	}
	if ri.Cycles*2 >= rc.Cycles {
		t.Errorf("independent (%d) not much faster than chain (%d)", ri.Cycles, rc.Cycles)
	}
}

func TestLoadLatencyBlocksDependents(t *testing.T) {
	mk := func(lat int) Result {
		insts := []isa.Inst{
			{Op: isa.OpLoad, Dest: 0, Src1: isa.NoReg, Src2: isa.NoReg, Addr: 0x100},
			alu(1, 0, isa.NoReg, 8),
			alu(2, 1, isa.NoReg, 16),
		}
		d := newPerfect(lat)
		c, _ := New(DefaultParams(), d)
		return c.Run(trace.NewDecoded(insts))
	}
	fast := mk(1)
	slow := mk(100)
	if slow.Cycles-fast.Cycles < 90 {
		t.Errorf("100-cycle load only added %d cycles", slow.Cycles-fast.Cycles)
	}
}

func TestStoreToLoadOrdering(t *testing.T) {
	// A load may not issue past an older store to the same word; the
	// value must come through the memory system.
	insts := []isa.Inst{
		{Op: isa.OpStore, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Addr: 0x40, Value: 7},
		{Op: isa.OpLoad, Dest: 0, Src1: isa.NoReg, Src2: isa.NoReg, Addr: 0x40, Value: 7},
	}
	res := run(t, insts, newPerfect(1))
	if res.ValueMismatches != 0 {
		t.Errorf("store-to-load produced %d mismatches", res.ValueMismatches)
	}
}

func TestValueMismatchDetected(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpLoad, Dest: 0, Src1: isa.NoReg, Src2: isa.NoReg, Addr: 0x40, Value: 999},
	}
	res := run(t, insts, newPerfect(1)) // perfect memory returns 0
	if res.ValueMismatches != 1 {
		t.Errorf("ValueMismatches = %d, want 1", res.ValueMismatches)
	}
}

func TestBranchMispredictCost(t *testing.T) {
	// Alternating branches defeat the bimod predictor; a monotone branch
	// trains it. The alternating version must be slower.
	mk := func(alternate bool) Result {
		var insts []isa.Inst
		for i := 0; i < 2000; i++ {
			taken := true
			if alternate {
				taken = i%2 == 0
			}
			insts = append(insts, isa.Inst{
				Op: isa.OpBranch, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg,
				Taken: taken, PC: 0x100,
			})
			insts = append(insts, alu(int32(i), isa.NoReg, isa.NoReg, 0x108))
		}
		d := newPerfect(1)
		c, _ := New(DefaultParams(), d)
		return c.Run(trace.NewDecoded(insts))
	}
	steady := mk(false)
	flaky := mk(true)
	if flaky.Mispredicts <= steady.Mispredicts {
		t.Errorf("mispredicts: alternating %d <= steady %d", flaky.Mispredicts, steady.Mispredicts)
	}
	if flaky.Cycles <= steady.Cycles {
		t.Errorf("cycles: alternating %d <= steady %d", flaky.Cycles, steady.Cycles)
	}
}

func TestICacheMissesOnScatteredPCs(t *testing.T) {
	var tight, scattered []isa.Inst
	for i := 0; i < 4000; i++ {
		tight = append(tight, alu(int32(i), isa.NoReg, isa.NoReg, mach.Addr(i%8*4)))
		scattered = append(scattered, alu(int32(i), isa.NoReg, isa.NoReg, mach.Addr(i*1024)))
	}
	rt := run(t, tight, newPerfect(1))
	rs := run(t, scattered, newPerfect(1))
	if rt.ICacheMisses >= rs.ICacheMisses {
		t.Errorf("icache misses: tight %d >= scattered %d", rt.ICacheMisses, rs.ICacheMisses)
	}
	if rs.Cycles <= rt.Cycles {
		t.Errorf("icache misses did not slow the scattered loop (%d vs %d)", rs.Cycles, rt.Cycles)
	}
}

func TestReadyQueueInstrumentation(t *testing.T) {
	// One missing load plus plenty of independent work: during the miss
	// the ready queue should have entries.
	var insts []isa.Inst
	insts = append(insts, isa.Inst{Op: isa.OpLoad, Dest: 0, Src1: isa.NoReg, Src2: isa.NoReg, Addr: 0x100})
	for i := 1; i < 400; i++ {
		insts = append(insts, alu(int32(i), isa.NoReg, isa.NoReg, mach.Addr(i%16*8)))
	}
	res := run(t, insts, newPerfect(50))
	if res.MissCycles == 0 {
		t.Fatal("no miss cycles recorded for a 50-cycle load")
	}
	if res.AvgReadyQueueInMiss() <= 0 {
		t.Error("ready queue empty during miss despite independent work")
	}
}

func TestLSQCapacityLimitsMemOps(t *testing.T) {
	// More concurrent loads than LSQ entries: still correct, just slower
	// than unconstrained issue.
	var insts []isa.Inst
	for i := 0; i < 64; i++ {
		insts = append(insts, isa.Inst{
			Op: isa.OpLoad, Dest: int32(i), Src1: isa.NoReg, Src2: isa.NoReg,
			Addr: mach.Addr(0x1000 + i*4),
		})
	}
	res := run(t, insts, newPerfect(30))
	if res.Instructions != 64 {
		t.Fatalf("retired %d, want 64", res.Instructions)
	}
	// 64 loads with LSQ 8 and 30-cycle latency cannot finish faster than
	// (64/8)*... a loose bound: at least 8 batches * 30 cycles / overlap.
	if res.Cycles < 60 {
		t.Errorf("LSQ-bound run finished suspiciously fast: %d cycles", res.Cycles)
	}
}

func TestHalvedPenaltySpeedsUp(t *testing.T) {
	// The Figure 14 methodology depends on this: same trace, halved miss
	// penalty, fewer cycles.
	var insts []isa.Inst
	for i := 0; i < 200; i++ {
		insts = append(insts, isa.Inst{
			Op: isa.OpLoad, Dest: int32(2 * i), Src1: isa.NoReg, Src2: isa.NoReg,
			Addr: mach.Addr(0x1000 + i*64),
		})
		insts = append(insts, alu(int32(2*i+1), int32(2*i), isa.NoReg, 8))
	}
	full := run(t, insts, newPerfect(100))
	half := run(t, insts, newPerfect(50))
	if half.Cycles >= full.Cycles {
		t.Errorf("halved latency did not speed up: %d vs %d", half.Cycles, full.Cycles)
	}
}

func TestRunWithRealHierarchy(t *testing.T) {
	// End-to-end: CPU over a real cache hierarchy with correct values.
	m := mem.New()
	for i := 0; i < 256; i++ {
		m.WriteWord(mach.Addr(0x2000+i*4), mach.Word(i))
	}
	h := newTestHier(t, m)
	var insts []isa.Inst
	for i := 0; i < 256; i++ {
		insts = append(insts, isa.Inst{
			Op: isa.OpLoad, Dest: int32(i), Src1: isa.NoReg, Src2: isa.NoReg,
			Addr: mach.Addr(0x2000 + i*4), Value: mach.Word(i), PC: mach.Addr(i % 32 * 8),
		})
	}
	c, err := New(DefaultParams(), h)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(trace.NewDecoded(insts))
	if res.ValueMismatches != 0 {
		t.Fatalf("%d value mismatches through the real hierarchy", res.ValueMismatches)
	}
	if res.Loads != 256 {
		t.Errorf("Loads = %d", res.Loads)
	}
}

func BenchmarkCoreALU(b *testing.B) {
	insts := make([]isa.Inst, 10000)
	for i := range insts {
		insts[i] = alu(int32(i), isa.NoReg, isa.NoReg, mach.Addr(i%64*8))
	}
	d := trace.NewDecoded(insts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := New(DefaultParams(), newPerfect(1))
		c.Run(d)
	}
}

// newTestHier builds a baseline hierarchy without importing hier at the
// top (kept here to make the end-to-end test self-contained).
func newTestHier(t *testing.T, m *mem.Memory) memsys.System {
	t.Helper()
	h, err := hier.NewStandard(hier.BaselineConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestFUContentionMulDiv(t *testing.T) {
	// One multiplier: 8 independent muls serialize; 8 ALUs do not.
	mk := func(op isa.Op) Result {
		var insts []isa.Inst
		for i := 0; i < 64; i++ {
			insts = append(insts, isa.Inst{Op: op, Dest: int32(i), Src1: isa.NoReg, Src2: isa.NoReg, PC: mach.Addr(i % 16 * 4)})
		}
		return run(t, insts, newPerfect(1))
	}
	muls := mk(isa.OpMul)
	alus := mk(isa.OpALU)
	if muls.Cycles <= alus.Cycles {
		t.Errorf("muls (%d cycles) should be slower than ALUs (%d) with one multiplier", muls.Cycles, alus.Cycles)
	}
	divs := mk(isa.OpDiv)
	if divs.Cycles <= muls.Cycles {
		t.Errorf("divs (%d cycles) should be slower than muls (%d)", divs.Cycles, muls.Cycles)
	}
}

func TestFPUnitsUsed(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 32; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpFMul, Dest: int32(i), Src1: isa.NoReg, Src2: isa.NoReg, PC: 0})
		insts = append(insts, isa.Inst{Op: isa.OpFALU, Dest: int32(i + 100), Src1: isa.NoReg, Src2: isa.NoReg, PC: 4})
		insts = append(insts, isa.Inst{Op: isa.OpFDiv, Dest: int32(i + 200), Src1: isa.NoReg, Src2: isa.NoReg, PC: 8})
	}
	res := run(t, insts, newPerfect(1))
	if res.Instructions != 96 {
		t.Fatalf("retired %d", res.Instructions)
	}
}

func TestCommitWidthBoundsIPC(t *testing.T) {
	p := DefaultParams()
	p.CommitWidth = 1
	var insts []isa.Inst
	for i := 0; i < 2000; i++ {
		insts = append(insts, alu(int32(i), isa.NoReg, isa.NoReg, mach.Addr(i%32*4)))
	}
	c, _ := New(p, newPerfect(1))
	res := c.Run(trace.NewDecoded(insts))
	if res.IPC() > 1.01 {
		t.Errorf("IPC %v exceeds commit width 1", res.IPC())
	}
}

func TestROBSizeLimitsOverlap(t *testing.T) {
	// Long-latency loads: a bigger ROB overlaps more of them.
	mk := func(robSize int) Result {
		p := DefaultParams()
		p.ROBSize = robSize
		p.LSQSize = robSize // do not let the LSQ be the binding limit
		var insts []isa.Inst
		for i := 0; i < 256; i++ {
			insts = append(insts, isa.Inst{
				Op: isa.OpLoad, Dest: int32(i), Src1: isa.NoReg, Src2: isa.NoReg,
				Addr: mach.Addr(0x1000 + i*64), PC: mach.Addr(i % 16 * 4),
			})
		}
		c, _ := New(p, newPerfect(80))
		return c.Run(trace.NewDecoded(insts))
	}
	small := mk(4)
	big := mk(128)
	if big.Cycles >= small.Cycles {
		t.Errorf("ROB 128 (%d cycles) not faster than ROB 4 (%d)", big.Cycles, small.Cycles)
	}
}

func TestMemPortLimit(t *testing.T) {
	// With 1 port, 64 independent 1-cycle loads need >= 64 cycles of
	// port occupancy; with 4 ports they overlap more.
	mk := func(ports int) Result {
		p := DefaultParams()
		p.MemPorts = ports
		var insts []isa.Inst
		for i := 0; i < 256; i++ {
			insts = append(insts, isa.Inst{
				Op: isa.OpLoad, Dest: int32(i), Src1: isa.NoReg, Src2: isa.NoReg,
				Addr: mach.Addr(0x2000 + i*4), PC: mach.Addr(i % 16 * 4),
			})
		}
		c, _ := New(p, newPerfect(1))
		return c.Run(trace.NewDecoded(insts))
	}
	one := mk(1)
	four := mk(4)
	if four.Cycles >= one.Cycles {
		t.Errorf("4 ports (%d cycles) not faster than 1 port (%d)", four.Cycles, one.Cycles)
	}
}

func TestStoreBlocksConflictingLoadNotOthers(t *testing.T) {
	// A load to a different word must not wait for an older slow store;
	// a load to the same word must.
	mkDep := func(sameAddr bool) Result {
		addr := mach.Addr(0x100)
		loadAddr := addr
		if !sameAddr {
			loadAddr = 0x900
		}
		insts := []isa.Inst{
			{Op: isa.OpStore, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Addr: addr, Value: 1},
			{Op: isa.OpLoad, Dest: 0, Src1: isa.NoReg, Src2: isa.NoReg, Addr: loadAddr, Value: func() mach.Word {
				if sameAddr {
					return 1
				}
				return 0
			}()},
		}
		return run(t, insts, newPerfect(40))
	}
	same := mkDep(true)
	diff := mkDep(false)
	if same.ValueMismatches != 0 || diff.ValueMismatches != 0 {
		t.Fatal("value mismatch in ordering test")
	}
	if same.Cycles <= diff.Cycles {
		t.Errorf("same-address load (%d cycles) should wait longer than disjoint (%d)", same.Cycles, diff.Cycles)
	}
}

func TestYoungerWriterDoesNotReleaseOlderConsumer(t *testing.T) {
	// r1 = a 100-cycle load; r2 = r1; r1 = a constant; then a 40-op chain
	// on r2. The copy must wait for the load even though a younger
	// instruction overwrites r1 before the load completes, so dataflow
	// alone needs 100 + 40 cycles.
	insts := []isa.Inst{
		{Op: isa.OpLoad, Dest: 1, Src1: isa.NoReg, Src2: isa.NoReg, Addr: 0x100, PC: 0},
		alu(2, 1, isa.NoReg, 4),
		alu(1, isa.NoReg, isa.NoReg, 8),
	}
	for i := int32(0); i < 40; i++ {
		insts = append(insts, alu(3+i, 2+i, isa.NoReg, mach.Addr(12+4*i)))
	}
	res := run(t, insts, newPerfect(100))
	if res.Cycles < 140 {
		t.Errorf("took %d cycles, dataflow needs at least 140: the copy issued before its producer completed", res.Cycles)
	}
}
