package workload

import (
	"testing"
)

// buildSmall builds a distinct tiny program per call (identity-keyed
// store entries).
func buildSmall(t *testing.T, seed int64) *Program {
	t.Helper()
	b := NewBuilder(seed)
	b.SetPC(0x400)
	a := b.Alloc(64, 64)
	r := b.Const(uint32(seed))
	b.Store(a, uint32(seed), NoReg, r)
	v := b.Load(a, NoReg)
	b.Branch(v, seed%2 == 0)
	return b.Program("tiny")
}

func TestDecodedMatchesTrace(t *testing.T) {
	p := buildSmall(t, 3)
	d := p.Decoded()
	if d.Len() != p.Len() {
		t.Fatalf("decoded len %d != trace len %d", d.Len(), p.Len())
	}
	for i, want := range p.Insts() {
		if got := d.At(i); got != want {
			t.Fatalf("inst %d: decoded %+v != trace %+v", i, got, want)
		}
	}
}

func TestDecodedStoreHitsAndEviction(t *testing.T) {
	old := SetDecodedBudget(1 << 20)
	defer SetDecodedBudget(old)
	base := DecodedStoreStats()

	p := buildSmall(t, 1)
	d1 := p.Decoded()
	d2 := p.Decoded()
	if d1 != d2 {
		t.Fatalf("repeated Decoded() returned distinct buffers")
	}
	s := DecodedStoreStats()
	if hits := s.Hits - base.Hits; hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}

	// A budget smaller than one trace still serves decodes, but retains
	// nothing and evicts what was cached.
	SetDecodedBudget(1)
	s = DecodedStoreStats()
	if s.UsedBytes != 0 {
		t.Fatalf("used %d bytes after shrinking budget to 1", s.UsedBytes)
	}
	q := buildSmall(t, 2)
	if q.Decoded().Len() != q.Len() {
		t.Fatalf("over-budget decode returned wrong trace")
	}
	if s := DecodedStoreStats(); s.UsedBytes != 0 {
		t.Fatalf("over-budget decode was retained (%d bytes)", s.UsedBytes)
	}
}

func TestDecodedStoreLRUOrder(t *testing.T) {
	p1, p2 := buildSmall(t, 10), buildSmall(t, 11)
	bytes := p1.Decoded().Bytes() // also caches p1 under the old budget
	// Budget for exactly two entries, then touch p1 so p2 is the LRU
	// victim when a third arrives.
	old := SetDecodedBudget(2 * bytes)
	defer SetDecodedBudget(old)
	d1 := p1.Decoded()
	d2 := p2.Decoded()
	if d1 == d2 {
		t.Fatal("distinct programs shared a decode")
	}
	p1.Decoded() // refresh p1
	p3 := buildSmall(t, 12)
	p3.Decoded() // evicts p2
	if got := p1.Decoded(); got != d1 {
		t.Fatal("most-recently-used entry was evicted")
	}
	if got := p2.Decoded(); got == d2 {
		t.Fatal("least-recently-used entry survived over-budget insert")
	}
}

func TestReplayStreamsProgram(t *testing.T) {
	p := buildSmall(t, 4)
	if p.Replay() != p.Decoded() {
		t.Fatal("Replay is not the program's shared decode")
	}
}
