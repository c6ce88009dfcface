// Package mem models word-addressable main memory.
//
// The store is sparse: pages are allocated on first touch and unwritten
// words read as zero, so a 32-bit address space costs only what the
// workload actually uses. Off-chip memory always holds values in their
// uncompressed form (§3.1); compression happens at the bus interface,
// which is modelled by the cache hierarchies, not here.
//
// Pages are reached through a two-level radix table over the 20-bit page
// number (10 root bits, 10 leaf bits) rather than a hash map, so the
// per-word path is two array indexations with no hashing; a last-page
// cache short-circuits even those for runs of word accesses to one page.
// Line reads and writes look their page up once and move the line with
// one copy.
package mem

import "cppcache/internal/mach"

const (
	pageWords = 1024                       // words per page
	pageBytes = pageWords * mach.WordBytes // 4 KiB pages
	pageShift = 12                         // log2(pageBytes)
	pageMask  = mach.Addr(pageBytes - 1)   // offset within page

	// Radix split of the 20-bit page number (32 - pageShift).
	leafBits = 10
	leafSize = 1 << leafBits
	leafMask = mach.Addr(leafSize - 1)
	rootBits = 32 - pageShift - leafBits
	rootSize = 1 << rootBits

	// noPage is an impossible page key (real keys fit in 20 bits), used
	// to invalidate the last-page cache.
	noPage = mach.Addr(1) << (32 - pageShift)
)

type page [pageWords]mach.Word

// leaf is the second radix level: pointers to 1024 consecutive pages.
type leaf [leafSize]*page

// Memory is a sparse, word-addressable 32-bit memory. The zero value is an
// all-zero memory ready to use.
type Memory struct {
	root    [rootSize]*leaf
	lastKey mach.Addr // page number of lastPage; noPage when invalid
	last    *page
	touched int // distinct pages allocated
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{lastKey: noPage}
}

// lookup returns the page with the given page number, or nil.
func (m *Memory) lookup(key mach.Addr) *page {
	l := m.root[key>>leafBits]
	if l == nil {
		return nil
	}
	return l[key&leafMask]
}

// create returns the page with the given page number, allocating it (and
// its leaf) on first touch.
func (m *Memory) create(key mach.Addr) *page {
	l := m.root[key>>leafBits]
	if l == nil {
		l = new(leaf)
		m.root[key>>leafBits] = l
	}
	p := l[key&leafMask]
	if p == nil {
		p = new(page)
		l[key&leafMask] = p
		m.touched++
	}
	return p
}

// ReadWord returns the word stored at the word-aligned address a.
// Unwritten memory reads as zero.
func (m *Memory) ReadWord(a mach.Addr) mach.Word {
	key := a >> pageShift
	if key == m.lastKey && m.last != nil {
		return m.last[(a&pageMask)/mach.WordBytes]
	}
	p := m.lookup(key)
	if p == nil {
		return 0
	}
	m.lastKey = key
	m.last = p
	return p[(a&pageMask)/mach.WordBytes]
}

// WriteWord stores v at the word-aligned address a.
func (m *Memory) WriteWord(a mach.Addr, v mach.Word) {
	key := a >> pageShift
	if key == m.lastKey && m.last != nil {
		m.last[(a&pageMask)/mach.WordBytes] = v
		return
	}
	p := m.create(key)
	m.lastKey = key
	m.last = p
	p[(a&pageMask)/mach.WordBytes] = v
}

// ReadLine fills dst with the n=len(dst) consecutive words starting at the
// word-aligned address a. The line may span page boundaries, and addresses
// wrap modulo 2^32 like every Addr computation. Each page the line touches
// costs one lookup and one copy; an aligned cache line lies in one page.
func (m *Memory) ReadLine(a mach.Addr, dst []mach.Word) {
	a = mach.WordAlign(a)
	for len(dst) > 0 {
		off := int(a&pageMask) / mach.WordBytes
		n := min(len(dst), pageWords-off)
		if p := m.lookup(a >> pageShift); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		a += mach.Addr(n * mach.WordBytes)
	}
}

// WriteLine stores the words of src at consecutive addresses from a, one
// page at a time like ReadLine.
func (m *Memory) WriteLine(a mach.Addr, src []mach.Word) {
	a = mach.WordAlign(a)
	for len(src) > 0 {
		off := int(a&pageMask) / mach.WordBytes
		n := copy(m.create(a >> pageShift)[off:], src)
		src = src[n:]
		a += mach.Addr(n * mach.WordBytes)
	}
}

// PagesTouched returns the number of distinct 4 KiB pages ever written.
func (m *Memory) PagesTouched() int { return m.touched }
