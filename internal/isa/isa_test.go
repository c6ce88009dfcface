package isa

import "testing"

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpNop: "nop", OpALU: "alu", OpMul: "mul", OpDiv: "div",
		OpFALU: "falu", OpFMul: "fmul", OpFDiv: "fdiv",
		OpLoad: "load", OpStore: "store", OpBranch: "branch",
		Op(200): "op?",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestIsMem(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() {
		t.Error("load/store should be memory ops")
	}
	for _, op := range []Op{OpNop, OpALU, OpMul, OpBranch, OpFALU} {
		if op.IsMem() {
			t.Errorf("%v should not be a memory op", op)
		}
	}
}

func TestMixAdd(t *testing.T) {
	var m Mix
	for _, in := range []Inst{
		{Op: OpALU}, {Op: OpALU}, {Op: OpLoad}, {Op: OpStore}, {Op: OpBranch},
	} {
		m.Add(in)
	}
	if m.Total != 5 {
		t.Fatalf("Total = %d, want 5", m.Total)
	}
	if got := m.Frac(OpALU); got != 0.4 {
		t.Errorf("Frac(ALU) = %v, want 0.4", got)
	}
	if got := m.Frac(OpLoad); got != 0.2 {
		t.Errorf("Frac(Load) = %v, want 0.2", got)
	}
}

func TestMixEmpty(t *testing.T) {
	var m Mix
	if m.Frac(OpALU) != 0 {
		t.Error("empty mix should report 0 fractions")
	}
}
