package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{2, 8}, 4},
		{[]float64{4}, 4},
		{nil, 0},
		{[]float64{0, 0}, 0},
		{[]float64{2, 0, 8}, 4}, // zeros skipped
	}
	for _, c := range cases {
		if got := Geomean(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGeomeanScaleInvariance(t *testing.T) {
	f := func(a, b, c uint16) bool {
		vals := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := Geomean(vals)
		scaled := make([]float64, len(vals))
		for i, v := range vals {
			scaled[i] = v * 2
		}
		return math.Abs(Geomean(scaled)-2*g) < 1e-6*g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func mkTable() *Table {
	t := NewTable("test", []string{"a", "b"}, []string{"BC", "CPP"})
	t.Set("a", "BC", 10)
	t.Set("a", "CPP", 5)
	t.Set("b", "BC", 4)
	t.Set("b", "CPP", 8)
	return t
}

func TestTableSetGet(t *testing.T) {
	tab := mkTable()
	if got := tab.Get("a", "CPP"); got != 5 {
		t.Errorf("Get = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Get of unknown cell did not panic")
		}
	}()
	tab.Get("zzz", "BC")
}

func TestNormalized(t *testing.T) {
	n := mkTable().Normalized("BC")
	if got := n.Get("a", "BC"); got != 1 {
		t.Errorf("base column = %v", got)
	}
	if got := n.Get("a", "CPP"); got != 0.5 {
		t.Errorf("a/CPP = %v", got)
	}
	if got := n.Get("b", "CPP"); got != 2 {
		t.Errorf("b/CPP = %v", got)
	}
}

func TestWithGeomeanRow(t *testing.T) {
	g := mkTable().WithGeomeanRow()
	if g.Rows[len(g.Rows)-1] != "geomean" {
		t.Fatal("no geomean row")
	}
	want := math.Sqrt(10 * 4)
	if got := g.Get("geomean", "BC"); math.Abs(got-want) > 1e-9 {
		t.Errorf("geomean BC = %v, want %v", got, want)
	}
	// The original is not mutated.
	if len(mkTable().Rows) != 2 {
		t.Error("original mutated")
	}
}

func TestStringAndCSV(t *testing.T) {
	tab := mkTable()
	tab.Note = "a note"
	s := tab.String()
	for _, want := range []string{"test", "a note", "BC", "CPP", "10.000"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "benchmark,BC,CPP\n") {
		t.Errorf("CSV header: %q", csv)
	}
	if !strings.Contains(csv, "a,10,5") {
		t.Errorf("CSV rows: %q", csv)
	}
}

func TestDiff(t *testing.T) {
	a := NewTable("A", []string{"r1", "r2", "r3"}, []string{"x", "y"})
	a.Set("r1", "x", 10)
	a.Set("r1", "y", 20)
	a.Set("r2", "x", 5)
	a.Set("r2", "y", 7)
	a.Set("r3", "x", 1)

	b := NewTable("B", []string{"r1", "r2"}, []string{"x", "y", "z"})
	b.Set("r1", "x", 4)
	b.Set("r1", "y", 25)
	b.Set("r2", "x", 5)
	b.Set("r2", "z", 99)

	d := a.Diff(b)
	if got, want := d.Title, "A - B"; got != want {
		t.Errorf("title = %q, want %q", got, want)
	}
	// r3 exists only in a; z exists only in b: both dropped.
	if len(d.Rows) != 2 || d.Rows[0] != "r1" || d.Rows[1] != "r2" {
		t.Fatalf("rows = %v, want [r1 r2]", d.Rows)
	}
	if len(d.Cols) != 2 || d.Cols[0] != "x" || d.Cols[1] != "y" {
		t.Fatalf("cols = %v, want [x y]", d.Cols)
	}
	cases := []struct {
		row, col string
		want     float64
	}{
		{"r1", "x", 6}, {"r1", "y", -5}, {"r2", "x", 0}, {"r2", "y", 7},
	}
	for _, c := range cases {
		if got := d.Get(c.row, c.col); got != c.want {
			t.Errorf("Diff(%s,%s) = %v, want %v", c.row, c.col, got, c.want)
		}
	}
}

func TestDiffSelfIsZero(t *testing.T) {
	a := NewTable("A", []string{"r"}, []string{"c"})
	a.Set("r", "c", 3.5)
	d := a.Diff(a)
	if got := d.Get("r", "c"); got != 0 {
		t.Errorf("self-diff = %v, want 0", got)
	}
}

func TestDiffDisjoint(t *testing.T) {
	a := NewTable("A", []string{"r1"}, []string{"x"})
	b := NewTable("B", []string{"r2"}, []string{"y"})
	d := a.Diff(b)
	if len(d.Rows) != 0 || len(d.Cols) != 0 {
		t.Errorf("disjoint diff has rows=%v cols=%v, want empty", d.Rows, d.Cols)
	}
	if d.String() == "" {
		t.Error("empty diff should still render a header")
	}
}

func TestDiffReceiverOrderWins(t *testing.T) {
	a := NewTable("A", []string{"r2", "r1"}, []string{"y", "x"})
	a.Set("r1", "x", 1)
	a.Set("r2", "y", 2)
	b := NewTable("B", []string{"r1", "r2", "r3"}, []string{"x", "y"})
	d := a.Diff(b)
	if len(d.Rows) != 2 || d.Rows[0] != "r2" || d.Rows[1] != "r1" {
		t.Errorf("rows = %v, want receiver order [r2 r1]", d.Rows)
	}
	if len(d.Cols) != 2 || d.Cols[0] != "y" || d.Cols[1] != "x" {
		t.Errorf("cols = %v, want receiver order [y x]", d.Cols)
	}
	if got := d.Get("r1", "x"); got != 1 {
		t.Errorf("Diff(r1,x) = %v, want 1", got)
	}
}
