// Package compress implements the paper's dynamic value compression scheme
// (§2.1, Figures 1 and 2).
//
// A 32-bit word is compressible to 16 bits when either
//
//   - its 18 high-order bits are all zeros or all ones (a "small value" in
//     [-16384, 16383]; the 17 high bits are discarded and the remaining
//     sign bit is re-extended on decompression), or
//   - its 17 high-order bits equal the 17 high-order bits of the address at
//     which the word is stored (a "pointer" into the same 32K-aligned
//     memory chunk; the shared prefix is discarded and reconstructed from
//     the accessing address).
//
// The compressed form is 16 bits: bit 15 is the VT flag (1 = pointer,
// 0 = small value) and bits 14..0 carry the low 15 bits of the original
// word. A separate VC flag — stored in the cache's tag metadata, not in the
// compressed halfword — records whether a slot holds a compressed value.
package compress

import "cppcache/internal/mach"

const (
	// PrefixBits is the number of discarded high-order bits (§3.1).
	PrefixBits = 17
	// PayloadBits is the number of original low-order bits kept.
	PayloadBits = 32 - PrefixBits // 15
)

const (
	payloadMask = mach.Word(1)<<PayloadBits - 1 // low 15 bits
	vtFlag      = uint16(1) << 15               // VT: pointer (1) vs small (0)
	signBit     = mach.Word(1) << (PayloadBits - 1)
	prefixMask  = ^payloadMask // high 17 bits
)

// SmallMin and SmallMax bound the compressible small-value range
// ([-16384, 16383] as signed 32-bit integers).
const (
	SmallMin = -1 << (PayloadBits - 1)
	SmallMax = 1<<(PayloadBits-1) - 1
)

// Compressed is a 16-bit compressed word: VT flag plus 15 payload bits.
type Compressed uint16

// IsPointer reports whether c encodes a pointer (VT flag set).
func (c Compressed) IsPointer() bool { return uint16(c)&vtFlag != 0 }

// Payload returns the low 15 bits of the original word.
func (c Compressed) Payload() mach.Word { return mach.Word(c) & payloadMask }

// The two rules each ask whether 17 high-order bits of a word derived
// from the value are zero, so each is a shift.

// smallBits is zero exactly when v is a small value: its 18 high-order
// bits are all zeros or all ones (§2.1: "higher order 18 bits all 0s or
// 1s"; one sign bit of the 18 survives in the compressed form), that is
// v lies in [SmallMin, SmallMax]. Adding signBit maps that range onto
// [0, 2^PayloadBits).
func smallBits(v mach.Word) mach.Word { return (v + signBit) >> PayloadBits }

// pointerBits is zero exactly when v, stored at addr, shares its 17
// high-order bits with addr.
func pointerBits(v mach.Word, addr mach.Addr) mach.Word { return (v ^ addr) >> PayloadBits }

// IsSmall reports whether v is compressible as a small value: its 18
// high-order bits are all zeros or all ones.
func IsSmall(v mach.Word) bool { return smallBits(v) == 0 }

// IsPointerLike reports whether v is compressible as a pointer when stored
// at byte address addr: the two share their 17 high-order bits.
func IsPointerLike(v mach.Word, addr mach.Addr) bool { return pointerBits(v, addr) == 0 }

// Compressible reports whether v, stored at addr, is compressible under
// either rule: the smaller of the two rules' high bits is zero.
func Compressible(v mach.Word, addr mach.Addr) bool {
	return min(smallBits(v), pointerBits(v, addr)) == 0
}

// Compress encodes v (stored at addr) into its 16-bit form. ok is false —
// and the returned Compressed meaningless — when v is not compressible.
// Small-value encoding is preferred when both rules apply; decompression
// yields the identical word either way, because a word whose top 18 bits
// match its address's top 17 bits satisfies both reconstructions only when
// the reconstructions agree.
func Compress(v mach.Word, addr mach.Addr) (c Compressed, ok bool) {
	switch {
	case IsSmall(v):
		return Compressed(v & payloadMask), true
	case IsPointerLike(v, addr):
		return Compressed(v&payloadMask) | Compressed(vtFlag), true
	default:
		return 0, false
	}
}

// Decompress reconstructs the original 32-bit word from its compressed form
// and the byte address it is being read from.
func Decompress(c Compressed, addr mach.Addr) mach.Word {
	p := c.Payload()
	if c.IsPointer() {
		return (addr & prefixMask) | p
	}
	if p&signBit != 0 { // negative small value: extend ones
		return p | prefixMask
	}
	return p
}

// Gate-delay model of the combinational logic (§3.2, Figure 8). The checks
// run in parallel: each 17/18-bit comparison is a log2-depth reduction tree
// (5 levels of 2-input gates), plus 3 levels to select among the cases.
const (
	// CompressDelayGates is the depth of the compressor: 5-level
	// reduction trees in parallel plus 3 selection levels.
	CompressDelayGates = 5 + 3
	// DecompressDelayGates is the depth of the decompressor: two gate
	// levels gating the reconstructed prefix onto the output.
	DecompressDelayGates = 2
)

// LineHalves returns the compressed size, in 16-bit half-words, of the
// given words stored consecutively from the word-aligned base address:
// each compressible word occupies one half-word on the bus, each
// incompressible word two. This is the transfer size used by the BCC
// configuration and by CPP write-backs.
func LineHalves(words []mach.Word, base mach.Addr) int {
	return 2*len(words) - CountCompressible(words, base)
}

// CountCompressible returns how many of the words, stored consecutively
// from base, are compressible.
func CountCompressible(words []mach.Word, base mach.Addr) int {
	n := 0
	for i, v := range words {
		if Compressible(v, base+mach.Addr(i*mach.WordBytes)) {
			n++
		}
	}
	return n
}

// CompressibleWidth generalises Compressible to an arbitrary compressed
// width: payloadBits is the number of low-order value bits kept (the
// paper's scheme keeps 15). A small value must sign-extend through the
// top 32-payloadBits+1 bits; a pointer must share its top 32-payloadBits
// bits with the address. This is the knob behind the compression-width
// ablation: it answers how the compressible fraction, and therefore BCC's
// bus traffic, would change with 8-, 16- or 24-bit compressed words.
func CompressibleWidth(v mach.Word, addr mach.Addr, payloadBits int) bool {
	if payloadBits <= 0 || payloadBits >= 32 {
		return payloadBits >= 32
	}
	prefix := ^(mach.Word(1)<<payloadBits - 1)
	signRegion := ^(mach.Word(1)<<(payloadBits-1) - 1)
	top := v & signRegion
	if top == 0 || top == signRegion {
		return true
	}
	return (v^addr)&prefix == 0
}
