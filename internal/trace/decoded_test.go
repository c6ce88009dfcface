package trace

import (
	"testing"

	"cppcache/internal/isa"
)

// sampleInsts exercises every field, including sentinel register ids, a
// register written twice and sources that no earlier instruction writes,
// so At must rebuild every kind of dependence.
func sampleInsts() []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpALU, Dest: 0, Src1: isa.NoReg, Src2: 9, Value: 7, PC: 0x100},
		{Op: isa.OpLoad, Dest: 1, Src1: 0, Src2: isa.NoReg, Addr: 0x1000_0000, Value: 0xdead_beef, PC: 0x104},
		{Op: isa.OpStore, Dest: isa.NoReg, Src1: 1, Src2: 0, Addr: 0x1000_0004, Value: 42, PC: 0x108},
		{Op: isa.OpBranch, Dest: isa.NoReg, Src1: 1, Src2: isa.NoReg, Taken: true, PC: 0x10c},
		{Op: isa.OpALU, Dest: 1, Src1: 1, Src2: 1, PC: 0x110},
		{Op: isa.OpFDiv, Dest: 2, Src1: 1, Src2: 0, PC: 0x114},
		{Op: isa.OpALU, Dest: 3, Src1: 4, Src2: 2, PC: 0x118},
		{Op: isa.OpALU, Dest: 4, Src1: 3, Src2: 4, PC: 0x11c},
	}
}

func TestDecodedRoundtrip(t *testing.T) {
	insts := sampleInsts()
	d := NewDecoded(insts)
	if d.Len() != len(insts) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(insts))
	}
	for i, want := range insts {
		if got := d.At(i); got != want {
			t.Errorf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
}

func TestDecodedDeps(t *testing.T) {
	d := NewDecoded(sampleInsts())
	// Each source is the distance back to its latest earlier writer, or
	// NoDep, or -2-r for register r that nothing earlier writes.
	want := [][2]int32{
		{NoDep, -11}, {1, NoDep}, {1, 2}, {2, NoDep},
		{3, 3}, {1, 5}, {-6, 1}, {1, -6},
	}
	for i, w := range want {
		if got := [2]int32{d.Dep1s()[i], d.Dep2s()[i]}; got != w {
			t.Errorf("deps of %d = %v, want %v", i, got, w)
		}
	}
}

func TestDecodedBytes(t *testing.T) {
	d := NewDecoded(make([]isa.Inst, 10))
	if d.Bytes() != 260 {
		t.Fatalf("Bytes = %d, want 260", d.Bytes())
	}
}
