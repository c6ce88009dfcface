package trace

import (
	"testing"

	"cppcache/internal/isa"
)

// sampleInsts exercises every field, including sentinel register ids.
func sampleInsts() []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpALU, Dest: 0, Src1: isa.NoReg, Src2: isa.NoReg, Value: 7, PC: 0x100},
		{Op: isa.OpLoad, Dest: 1, Src1: 0, Src2: isa.NoReg, Addr: 0x1000_0000, Value: 0xdead_beef, PC: 0x104},
		{Op: isa.OpStore, Dest: isa.NoReg, Src1: 1, Src2: 0, Addr: 0x1000_0004, Value: 42, PC: 0x108},
		{Op: isa.OpBranch, Dest: isa.NoReg, Src1: 1, Src2: isa.NoReg, Taken: true, PC: 0x10c},
		{Op: isa.OpFDiv, Dest: 2, Src1: 1, Src2: 0, PC: 0x110},
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

func TestDecodedBytes(t *testing.T) {
	d := NewDecoded(make([]isa.Inst, 10))
	if d.Bytes() != 260 {
		t.Fatalf("Bytes = %d, want 260", d.Bytes())
	}
}
