package obs

import (
	"strings"
	"testing"

	"cppcache/internal/mach"
)

func attrRecorder() *Recorder {
	return New(Config{Attr: true})
}

// TestAttrNilAndDisabled pins the inertness contract: every attribution
// hook is a no-op on a nil recorder and on a recorder built without Attr.
func TestAttrNilAndDisabled(t *testing.T) {
	var nilRec *Recorder
	plain := New(Config{})
	for _, r := range []*Recorder{nilRec, plain} {
		r.SetAccessPC(0x100)
		r.AttrMiss(0x2000)
		r.AttrAffHit(0x2000)
		r.AttrFillFail(0x2000, 8)
		if r.AttrEnabled() {
			t.Error("AttrEnabled on inert recorder")
		}
		if got := r.AttrTotal(AttrL1Miss); got != 0 {
			t.Errorf("AttrTotal on inert recorder = %d", got)
		}
		if r.AttrEntries() != nil {
			t.Error("AttrEntries on inert recorder is non-nil")
		}
		if got := r.AttrCollapsed(); got != "" {
			t.Errorf("AttrCollapsed on inert recorder = %q", got)
		}
	}
}

// TestAttrRegionGranularity checks that addresses collapse to 4 KiB
// regions and PCs are taken from the last SetAccessPC.
func TestAttrRegionGranularity(t *testing.T) {
	r := attrRecorder()
	r.SetAccessPC(0x400)
	r.AttrMiss(0x1000) // region 0x1000
	r.AttrMiss(0x1ffc) // same 4 KiB region
	r.AttrMiss(0x2000) // next region
	r.SetAccessPC(0x404)
	r.AttrMiss(0x2004) // next region, second PC

	if got := r.AttrTotal(AttrL1Miss); got != 4 {
		t.Fatalf("total = %d, want 4", got)
	}
	regions := r.AttrTopRegions(AttrL1Miss, 10)
	if len(regions) != 2 {
		t.Fatalf("regions = %+v, want 2 entries", regions)
	}
	if regions[0].Addr != 0x1000 || regions[0].Count != 2 {
		t.Errorf("top region = %+v, want {0x1000 2}", regions[0])
	}
	if regions[1].Addr != 0x2000 || regions[1].Count != 2 {
		t.Errorf("second region = %+v, want {0x2000 2}", regions[1])
	}
	pcs := r.AttrTopPCs(AttrL1Miss, 10)
	if len(pcs) != 2 || pcs[0].Addr != 0x400 || pcs[0].Count != 3 || pcs[1].Count != 1 {
		t.Errorf("pcs = %+v, want 0x400:3 then 0x404:1", pcs)
	}
}

// TestAttrMarginalsAgree checks that per-PC and per-region tables are
// marginals of one joint count set: both sum to the kind total.
func TestAttrMarginalsAgree(t *testing.T) {
	r := attrRecorder()
	pcs := []mach.Addr{0x400, 0x404, 0x410}
	addrs := []mach.Addr{0x1000, 0x2000, 0x30_0000, 0x30_0040}
	n := 0
	for i, pc := range pcs {
		for j, a := range addrs {
			r.SetAccessPC(pc)
			for k := 0; k <= i+j; k++ {
				r.AttrMiss(a)
				n++
			}
		}
	}
	if got := r.AttrTotal(AttrL1Miss); got != int64(n) {
		t.Fatalf("total = %d, want %d", got, n)
	}
	var pcSum, regSum int64
	for _, c := range r.AttrTopPCs(AttrL1Miss, 100) {
		pcSum += c.Count
	}
	for _, c := range r.AttrTopRegions(AttrL1Miss, 100) {
		regSum += c.Count
	}
	if pcSum != int64(n) || regSum != int64(n) {
		t.Errorf("marginal sums pc=%d region=%d, want both %d", pcSum, regSum, n)
	}
}

// TestAttrKindsIndependent checks the three kinds count independently
// and that fill-fail attributes the word count, not the event count.
func TestAttrKindsIndependent(t *testing.T) {
	r := attrRecorder()
	r.SetAccessPC(0x400)
	r.AttrMiss(0x1000)
	r.AttrAffHit(0x1000)
	r.AttrAffHit(0x1004)
	r.AttrFillFail(0x1000, 5)
	r.AttrFillFail(0x1000, 0) // zero-count adds nothing

	if got := r.AttrTotal(AttrL1Miss); got != 1 {
		t.Errorf("l1_miss = %d, want 1", got)
	}
	if got := r.AttrTotal(AttrAffHit); got != 2 {
		t.Errorf("aff_hit = %d, want 2", got)
	}
	if got := r.AttrTotal(AttrFillFail); got != 5 {
		t.Errorf("fill_fail_words = %d, want 5", got)
	}
	if got := len(r.AttrEntries()); got != 3 {
		t.Errorf("entries = %d, want 3 (zero-count fill must not create a cell)", got)
	}
}

// TestAttrTextAndCollapsed pins the rendered formats: the text report
// names every kind with its total, and collapsed-stack lines follow
// "kind;region;pc count".
func TestAttrTextAndCollapsed(t *testing.T) {
	r := attrRecorder()
	r.SetAccessPC(0x400)
	r.AttrMiss(0x1000)
	r.AttrMiss(0x1000)
	r.AttrFillFail(0x2000, 3)

	text := r.AttrText(5)
	for _, needle := range []string{
		"attribution profile (region granularity 4096 B)",
		"l1_miss: total 2",
		"fill_fail_words: total 3",
		"aff_hit: total 0",
		"top PCs", "top regions",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("AttrText missing %q:\n%s", needle, text)
		}
	}

	collapsed := r.AttrCollapsed()
	for _, wantLine := range []string{
		"l1_miss;region_0x00001000;pc_0x00000400 2",
		"fill_fail_words;region_0x00002000;pc_0x00000400 3",
	} {
		if !strings.Contains(collapsed, wantLine+"\n") {
			t.Errorf("AttrCollapsed missing %q:\n%s", wantLine, collapsed)
		}
	}
}

// TestAttrTopNTruncates checks the top-N cut keeps the largest counts.
func TestAttrTopNTruncates(t *testing.T) {
	r := attrRecorder()
	for i := 0; i < 8; i++ {
		r.SetAccessPC(mach.Addr(0x400 + 4*i))
		for k := 0; k <= i; k++ {
			r.AttrMiss(0x1000)
		}
	}
	top := r.AttrTopPCs(AttrL1Miss, 3)
	if len(top) != 3 {
		t.Fatalf("topN = %d entries, want 3", len(top))
	}
	if top[0].Count != 8 || top[1].Count != 7 || top[2].Count != 6 {
		t.Errorf("top counts = %d,%d,%d want 8,7,6", top[0].Count, top[1].Count, top[2].Count)
	}
}
