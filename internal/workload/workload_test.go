package workload

import (
	"sort"
	"testing"
	"testing/quick"

	"cppcache/internal/compress"
	"cppcache/internal/isa"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(1)
	a := b.Alloc(16, 16)
	if a%16 != 0 || a < HeapBase {
		t.Fatalf("Alloc returned %#x", a)
	}
	b.SetPC(0x1000)
	r := b.Const(5)
	b.Store(a, 42, NoReg, r)
	v := b.Load(a, NoReg)
	_ = v
	p := b.Program("test")
	insts := p.Insts()
	if len(insts) != 3 {
		t.Fatalf("recorded %d instructions", len(insts))
	}
	if insts[0].PC != 0x1000 || insts[1].PC != 0x1004 {
		t.Errorf("PCs = %#x, %#x", insts[0].PC, insts[1].PC)
	}
	if insts[1].Op != isa.OpStore || insts[1].Value != 42 {
		t.Errorf("store = %+v", insts[1])
	}
	if insts[2].Op != isa.OpLoad || insts[2].Value != 42 {
		t.Errorf("load did not see the stored value: %+v", insts[2])
	}
}

func TestBuilderAllocAlignment(t *testing.T) {
	b := NewBuilder(1)
	b.Alloc(5, 4)
	a2 := b.Alloc(64, 64)
	if a2%64 != 0 {
		t.Errorf("Alloc(64,64) = %#x, not 64-aligned", a2)
	}
	a3 := b.Alloc(4, 1) // below-minimum alignment clamps to word
	if a3%4 != 0 {
		t.Errorf("Alloc(4,1) = %#x, not word aligned", a3)
	}
}

func TestBuilderDeterminism(t *testing.T) {
	p1 := TreeAdd(1)
	p2 := TreeAdd(1)
	a, bIn := p1.Insts(), p2.Insts()
	if len(a) != len(bIn) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(bIn))
	}
	for i := range a {
		if a[i] != bIn[i] {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a[i], bIn[i])
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Fatalf("registry has %d benchmarks, want 14 (the paper's set)", len(names))
	}
	suites := map[string]int{}
	for _, bm := range All() {
		suites[bm.Suite]++
		if bm.Build == nil || bm.Description == "" || bm.Substitution == "" {
			t.Errorf("%s: incomplete registry entry", bm.Name)
		}
	}
	if suites["olden"] != 8 || suites["spec95"] != 3 || suites["spec2000"] != 3 {
		t.Errorf("suite counts = %v, want olden:8 spec95:3 spec2000:3", suites)
	}
	if _, err := ByName("olden.health"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted an unknown benchmark")
	}
}

// replay checks a trace is functionally consistent: replaying its stores
// into a fresh memory makes every load see its recorded value.
func replay(t *testing.T, p *Program) (loads, stores int) {
	t.Helper()
	m := mem.New()
	for _, in := range p.Insts() {
		switch in.Op {
		case isa.OpStore:
			m.WriteWord(in.Addr, in.Value)
			stores++
		case isa.OpLoad:
			if got := m.ReadWord(in.Addr); got != in.Value {
				t.Fatalf("%s: load @%#x expects %#x, memory has %#x", p.Name, in.Addr, in.Value, got)
			}
			loads++
		}
	}
	return loads, stores
}

// regs checks dependence sanity: every source register was defined by an
// earlier instruction.
func checkRegs(t *testing.T, p *Program) {
	t.Helper()
	defined := map[int32]bool{}
	for i, in := range p.Insts() {
		for _, src := range [2]int32{in.Src1, in.Src2} {
			if src != NoReg && !defined[src] {
				t.Fatalf("%s: instruction %d reads undefined register %d", p.Name, i, src)
			}
		}
		if in.Dest != NoReg {
			if defined[in.Dest] {
				t.Fatalf("%s: instruction %d redefines register %d (SSA violated)", p.Name, i, in.Dest)
			}
			defined[in.Dest] = true
		}
	}
}

func TestAllBenchmarksWellFormed(t *testing.T) {
	for _, bm := range All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			p := bm.Build(1)
			if p.Len() < 10000 {
				t.Errorf("trace too short: %d instructions", p.Len())
			}
			if p.Len() > 3_000_000 {
				t.Errorf("trace too long for a scale-1 build: %d", p.Len())
			}
			loads, stores := replay(t, p)
			if loads == 0 || stores == 0 {
				t.Errorf("loads=%d stores=%d", loads, stores)
			}
			checkRegs(t, p)

			var mix isa.Mix
			for _, in := range p.Insts() {
				mix.Add(in)
			}
			if mix.Frac(isa.OpLoad)+mix.Frac(isa.OpStore) < 0.15 {
				t.Errorf("memory mix too light: %.2f", mix.Frac(isa.OpLoad)+mix.Frac(isa.OpStore))
			}
			if mix.Frac(isa.OpBranch) == 0 {
				t.Error("no branches in trace")
			}
		})
	}
}

// TestValueMixVaries verifies the Figure 3 premise: the pointer-heavy
// programs carry high compressibility and the FP-heavy ones are low, with
// a broad spread across the suite.
func TestValueMixVaries(t *testing.T) {
	frac := func(p *Program) float64 {
		comp, total := 0, 0
		for _, in := range p.Insts() {
			if !in.Op.IsMem() {
				continue
			}
			total++
			if compress.Compressible(in.Value, in.Addr) {
				comp++
			}
		}
		return float64(comp) / float64(total)
	}
	health := frac(Health(1))
	tsp := frac(TSP(1))
	if health < 0.5 {
		t.Errorf("olden.health compressibility = %.2f, want pointer-heavy > 0.5", health)
	}
	if tsp > health {
		t.Errorf("olden.tsp (%.2f) should be less compressible than health (%.2f)", tsp, health)
	}
}

// TestScaleGrowsTrace: scale must increase trace length.
func TestScaleGrowsTrace(t *testing.T) {
	for _, bm := range []Benchmark{mustByName(t, "olden.treeadd"), mustByName(t, "spec2000.181.mcf")} {
		small := bm.Build(1).Len()
		big := bm.Build(4).Len()
		if big <= small {
			t.Errorf("%s: scale 4 trace (%d) not larger than scale 1 (%d)", bm.Name, big, small)
		}
	}
}

func mustByName(t *testing.T, name string) Benchmark {
	t.Helper()
	bm, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestPointerFieldsMostlyCompressible: the bump allocator should put
// linked nodes close enough that most pointer fields share their slot's
// 32K prefix.
func TestPointerFieldsMostlyCompressible(t *testing.T) {
	p := TreeAdd(1)
	ptr, comp := 0, 0
	for _, in := range p.Insts() {
		if in.Op == isa.OpStore && in.Value >= mach.Addr(HeapBase) {
			ptr++
			if compress.Compressible(in.Value, in.Addr) {
				comp++
			}
		}
	}
	if ptr == 0 {
		t.Fatal("no pointer stores found")
	}
	if f := float64(comp) / float64(ptr); f < 0.6 {
		t.Errorf("only %.2f of pointer stores compressible; allocator locality broken", f)
	}
}

func BenchmarkBuildTreeAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TreeAdd(1)
	}
}

func BenchmarkBuildHealth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Health(1)
	}
}

// TestScatterAllocNoOverlap: scattered allocations must never overlap,
// including across chunk transitions and mixed with plain Alloc.
func TestScatterAllocNoOverlap(t *testing.T) {
	f := func(n uint8, sz uint8, seed int64) bool {
		arenas := int(n%7) + 2
		size := (int(sz%8) + 1) * 16
		b := NewBuilder(seed)
		type span struct{ lo, hi mach.Addr }
		var spans []span
		for i := 0; i < 800; i++ {
			var p mach.Addr
			if i%5 == 4 {
				p = b.Alloc(size, 16)
			} else {
				p = b.ScatterAlloc(arenas, size, 16)
			}
			spans = append(spans, span{p, p + mach.Addr(size)})
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestScatterAllocDecorrelates: consecutive scattered allocations are not
// address-adjacent (that is the point of scattering), yet stay within one
// 32K chunk so pointers among them usually compress.
func TestScatterAllocDecorrelates(t *testing.T) {
	b := NewBuilder(1)
	var prev mach.Addr
	adjacent, sameChunk, total := 0, 0, 0
	for i := 0; i < 400; i++ {
		p := b.ScatterAlloc(8, 16, 16)
		if i > 0 {
			total++
			if p-prev < 64 && p > prev {
				adjacent++
			}
			if p>>15 == prev>>15 {
				sameChunk++
			}
		}
		prev = p
	}
	if adjacent > total/10 {
		t.Errorf("%d/%d consecutive allocations are line-adjacent", adjacent, total)
	}
	if sameChunk < total*3/4 {
		t.Errorf("only %d/%d consecutive allocations share a 32K chunk", sameChunk, total)
	}
}

// TestCompressibilityBands locks each benchmark's Figure 3 character:
// pointer-heavy codes stay highly compressible, FP/hash codes stay low,
// so the value-mix realism cannot silently regress.
func TestCompressibilityBands(t *testing.T) {
	frac := func(p *Program) float64 {
		comp, total := 0, 0
		for _, in := range p.Insts() {
			if !in.Op.IsMem() {
				continue
			}
			total++
			if compress.Compressible(in.Value, in.Addr) {
				comp++
			}
		}
		return float64(comp) / float64(total)
	}
	bands := map[string][2]float64{
		"olden.health":        {0.75, 1.00},
		"olden.treeadd":       {0.75, 1.00},
		"olden.perimeter":     {0.85, 1.00},
		"spec95.130.li":       {0.80, 1.00},
		"spec2000.197.parser": {0.75, 1.00},
		"olden.em3d":          {0.00, 0.35},
		"spec2000.181.mcf":    {0.00, 0.35},
		"olden.tsp":           {0.05, 0.45},
		"olden.power":         {0.10, 0.55},
		"olden.bisort":        {0.25, 0.65},
		"spec95.099.go":       {0.50, 0.90},
		"spec95.129.compress": {0.50, 0.90},
		"spec2000.300.twolf":  {0.45, 0.90},
		"olden.mst":           {0.60, 0.95},
	}
	var sum float64
	for name, band := range bands {
		bm, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f := frac(bm.Build(1))
		sum += f
		if f < band[0] || f > band[1] {
			t.Errorf("%s: compressibility %.2f outside band [%.2f, %.2f]", name, f, band[0], band[1])
		}
	}
	avg := sum / float64(len(bands))
	// The paper's Figure 3 average is 59%; hold the suite near it.
	if avg < 0.45 || avg > 0.80 {
		t.Errorf("suite average compressibility %.2f drifted from the paper's 0.59", avg)
	}
}
