package mach

import (
	"testing"
	"testing/quick"
)

func TestWordAlign(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0}, {1, 0}, {3, 0}, {4, 4}, {7, 4}, {0xFFFFFFFF, 0xFFFFFFFC},
	}
	for _, c := range cases {
		if got := WordAlign(c.in); got != c.want {
			t.Errorf("WordAlign(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestLineGeom(t *testing.T) {
	g := LineGeom{LineBytes: 64}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Words(); got != 16 {
		t.Errorf("Words() = %d, want 16", got)
	}
	if got := g.LineAddr(0x1234); got != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x, want 0x1200", got)
	}
	if got := g.WordIndex(0x1234); got != 13 {
		t.Errorf("WordIndex(0x1234) = %d, want 13", got)
	}
	if got := g.LineNumber(0x1234); got != 0x48 {
		t.Errorf("LineNumber(0x1234) = %#x, want 0x48", got)
	}
	if got := g.NumberToAddr(0x48); got != 0x1200 {
		t.Errorf("NumberToAddr(0x48) = %#x, want 0x1200", got)
	}
}

func TestLineGeomValidateRejects(t *testing.T) {
	for _, bytes := range []int{0, 1, 2, 3, 6, 48, -64} {
		g := LineGeom{LineBytes: bytes}
		if err := g.Validate(); err == nil {
			t.Errorf("Validate() accepted line size %d", bytes)
		}
	}
}

func TestLineGeomRoundTrip(t *testing.T) {
	g := LineGeom{LineBytes: 128}
	f := func(a Addr) bool {
		base := g.LineAddr(a)
		idx := g.WordIndex(a)
		back := base + Addr(idx*WordBytes)
		return back == WordAlign(a) && g.NumberToAddr(g.LineNumber(a)) == base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []int{1, 2, 4, 1024} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []int{0, -2, 3, 24, 1023} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
}
