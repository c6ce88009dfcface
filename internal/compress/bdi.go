package compress

// BDI — Base-Delta-Immediate (Pekhimenko et al., PACT 2012, and chapter 4
// of the Pekhimenko thesis "Practical Data Compression for Modern Memory
// Hierarchies"). The line is viewed as an array of fixed-size elements
// (8, 4 or 2 bytes); if every element is within a small signed delta of a
// common base, only the base plus narrow deltas need be stored. The
// two-base refinement is included: an implicit zero base captures small
// immediates, and the first element not within delta range of zero
// becomes the single explicit base — each element carries one mask bit
// naming which base it uses.
//
// Encoded layout (bit-packed, LSB-first): a 4-bit selector, then for the
// base-delta modes the explicit base (8*B bits) followed by each
// element's mask bit and signed delta (8*D bits, two's complement,
// wrapping within the element width):
//
//	selector 0      all-zero line                     4 bits
//	selector 1      repeated 32-bit word              4 + 32
//	selector 2..7   base B delta D for (B,D) in
//	                (8,1) (8,2) (8,4) (4,1) (4,2) (2,1)
//	                                                  4 + 8B + E*(1 + 8D)
//	selector 8      uncompressed                      4 + 32n
//
// where E = 4n/B elements for n words. 8-byte-element modes require an
// even word count. The encoder picks the smallest applicable form (ties
// to the earlier selector). BDI is value-only: the base address never
// influences the encoding.

import (
	"fmt"

	"cppcache/internal/mach"
)

const (
	bdiSelectorBits = 4
	bdiSelZeros     = 0
	bdiSelRep       = 1
	bdiSelDelta0    = 2 // selectors 2..7 map to bdiModes[selector-2]
	bdiSelRaw       = 8
)

// bdiModes are the (base size, delta size) pairs, in selector order.
var bdiModes = [...]struct{ base, delta int }{
	{8, 1}, {8, 2}, {8, 4}, {4, 1}, {4, 2}, {2, 1},
}

// bdiMask returns the value mask of a b-byte element.
func bdiMask(b int) uint64 {
	if b >= 8 {
		return ^uint64(0)
	}
	return uint64(1)<<(8*b) - 1
}

// bdiSext sign-extends the low 8*b bits of x.
func bdiSext(x uint64, b int) uint64 {
	shift := uint(64 - 8*b)
	return uint64(int64(x<<shift) >> shift)
}

// bdiFit is one base-delta mode's fit test with its masks hoisted: elem
// reconstructs from base with a d-byte signed delta, all arithmetic
// wrapping within the b-byte element width, when elem-base, read as a
// signed b-byte value, lies in [-half, half) for half = 2^(8d-1). Adding
// half maps that range onto [0, 2*half). Every mode has d < b.
type bdiFit struct{ mb, half uint64 }

func newBDIFit(b, d int) bdiFit { return bdiFit{mb: bdiMask(b), half: 1 << (8*d - 1)} }

// ok reports whether elem reconstructs from base.
func (f bdiFit) ok(elem, base uint64) bool { return (elem-base+f.half)&f.mb < 2*f.half }

// bdiElem extracts element idx of the given byte size from the line's
// words (little-endian byte order, matching the word layout in memory).
func bdiElem(words []mach.Word, size, idx int) uint64 {
	switch size {
	case 2:
		w := words[idx/2]
		if idx%2 == 0 {
			return uint64(w & 0xFFFF)
		}
		return uint64(w >> 16)
	case 4:
		return uint64(words[idx])
	default: // 8
		return uint64(words[2*idx]) | uint64(words[2*idx+1])<<32
	}
}

// bdiSetElem writes element idx back into the line's words.
func bdiSetElem(words []mach.Word, size, idx int, v uint64) {
	switch size {
	case 2:
		w := words[idx/2]
		if idx%2 == 0 {
			words[idx/2] = w&0xFFFF_0000 | mach.Word(v&0xFFFF)
		} else {
			words[idx/2] = w&0x0000_FFFF | mach.Word(v&0xFFFF)<<16
		}
	case 4:
		words[idx] = mach.Word(v)
	default: // 8
		words[2*idx] = mach.Word(v)
		words[2*idx+1] = mach.Word(v >> 32)
	}
}

// bdiModeFits checks one base-delta mode against the line, returning the
// explicit base (zero when every element rides the implicit zero base).
func bdiModeFits(words []mach.Word, b, d int) (base uint64, ok bool) {
	if b == 8 && len(words)%2 != 0 {
		return 0, false
	}
	fit := newBDIFit(b, d)
	elems := len(words) * 4 / b
	haveBase := false
	for i := 0; i < elems; i++ {
		e := bdiElem(words, b, i)
		if fit.ok(e, 0) {
			continue
		}
		if !haveBase {
			base, haveBase = e, true
			continue
		}
		if !fit.ok(e, base) {
			return 0, false
		}
	}
	return base, true
}

// bdiModeBits is the encoded size of a fitting base-delta mode.
func bdiModeBits(nwords, b, d int) int {
	elems := nwords * 4 / b
	return bdiSelectorBits + 8*b + elems*(1+8*d)
}

// bdiOrder lists in order, as indices into bdiModes, the modes an n-word
// line can use that encode it in fewer bits than raw: smallest encoding
// first, ties to the earlier selector. The order depends on n, and it is
// built in order (an insertion sort of at most six modes) in the caller's
// array, so sizing a line allocates nothing.
func bdiOrder(n int, order *[len(bdiModes)]int) []int {
	k := 0
	for i, m := range bdiModes {
		bits := bdiModeBits(n, m.base, m.delta)
		if (m.base == 8 && n%2 != 0) || bits >= bdiSelectorBits+32*n {
			continue
		}
		j := k
		for ; j > 0; j-- {
			prev := bdiModes[order[j-1]]
			if bdiModeBits(n, prev.base, prev.delta) <= bits {
				break
			}
			order[j] = order[j-1]
		}
		order[j] = i
		k++
	}
	return order[:k]
}

// bdiChoose picks the smallest applicable encoding: selector, bit size
// and, for delta modes, the explicit base. Modes are tried smallest
// first, so the first that fits is the choice.
func bdiChoose(words []mach.Word) (sel, nbits int, base uint64) {
	allZero, allRep := true, true
	for _, w := range words {
		if w != 0 {
			allZero = false
		}
		if w != words[0] {
			allRep = false
		}
	}
	if allZero {
		return bdiSelZeros, bdiSelectorBits, 0
	}
	if allRep {
		return bdiSelRep, bdiSelectorBits + 32, 0
	}
	var order [len(bdiModes)]int
	for _, i := range bdiOrder(len(words), &order) {
		m := bdiModes[i]
		if b, ok := bdiModeFits(words, m.base, m.delta); ok {
			return bdiSelDelta0 + i, bdiModeBits(len(words), m.base, m.delta), b
		}
	}
	return bdiSelRaw, bdiSelectorBits + 32*len(words), 0
}

type bdiScheme struct{}

func (bdiScheme) Name() string { return "bdi" }

func (bdiScheme) LineHalves(words []mach.Word, _ mach.Addr) int {
	_, nbits, _ := bdiChoose(words)
	return (nbits + 15) / 16
}

func (bdiScheme) WorstCaseHalves(nwords int) int {
	return (bdiSelectorBits + 32*nwords + 15) / 16
}

// Gate-delay model: all modes are evaluated in parallel — each is a
// 64-bit subtract (carry tree, ~8 levels) plus a sign-extension compare
// (~2) — followed by a ~3-level smallest-size selector: ~13 levels. The
// decompressor is a selector decode plus one add per element: ~9 levels.
const (
	bdiCompressDelayGates   = 13
	bdiDecompressDelayGates = 9
)

func (bdiScheme) CompressorDelayGates() int   { return bdiCompressDelayGates }
func (bdiScheme) DecompressorDelayGates() int { return bdiDecompressDelayGates }

func (bdiScheme) CompressLine(words []mach.Word, _ mach.Addr) Encoded {
	sel, _, base := bdiChoose(words)
	var bw bitWriter
	bw.write(uint64(sel), bdiSelectorBits)
	switch {
	case sel == bdiSelZeros:
	case sel == bdiSelRep:
		bw.write(uint64(words[0]), 32)
	case sel == bdiSelRaw:
		for _, w := range words {
			bw.write(uint64(w), 32)
		}
	default:
		m := bdiModes[sel-bdiSelDelta0]
		fit := newBDIFit(m.base, m.delta)
		bw.write(base, 8*m.base)
		elems := len(words) * 4 / m.base
		for i := 0; i < elems; i++ {
			e := bdiElem(words, m.base, i)
			useBase := uint64(0)
			from := uint64(0)
			if !fit.ok(e, 0) {
				useBase, from = 1, base
			}
			bw.write(useBase, 1)
			bw.write((e-from)&bdiMask(m.delta), 8*m.delta)
		}
	}
	return bw.encoded()
}

func (bdiScheme) DecompressLine(enc Encoded, _ mach.Addr, out []mach.Word) error {
	r := newBitReader(enc)
	sel, err := r.read(bdiSelectorBits)
	if err != nil {
		return err
	}
	switch {
	case sel == bdiSelZeros:
		for i := range out {
			out[i] = 0
		}
	case sel == bdiSelRep:
		v, err := r.read(32)
		if err != nil {
			return err
		}
		for i := range out {
			out[i] = mach.Word(v)
		}
	case sel == bdiSelRaw:
		for i := range out {
			v, err := r.read(32)
			if err != nil {
				return err
			}
			out[i] = mach.Word(v)
		}
	case sel >= bdiSelDelta0 && sel < bdiSelDelta0+uint64(len(bdiModes)):
		m := bdiModes[sel-bdiSelDelta0]
		if m.base == 8 && len(out)%2 != 0 {
			return fmt.Errorf("compress: bdi 8-byte elements cannot tile %d words", len(out))
		}
		base, err := r.read(8 * m.base)
		if err != nil {
			return err
		}
		mb := bdiMask(m.base)
		elems := len(out) * 4 / m.base
		for i := 0; i < elems; i++ {
			useBase, err := r.read(1)
			if err != nil {
				return err
			}
			delta, err := r.read(8 * m.delta)
			if err != nil {
				return err
			}
			from := uint64(0)
			if useBase == 1 {
				from = base
			}
			bdiSetElem(out, m.base, i, (from+bdiSext(delta, m.delta))&mb)
		}
	default:
		return fmt.Errorf("compress: bdi reserved selector %d", sel)
	}
	return nil
}
