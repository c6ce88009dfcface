package cppcache

import "cppcache/internal/compress"

// The paper's value-compression scheme (§2.1): a 32-bit word stored at a
// given address is compressible to 16 bits when its 18 high-order bits are
// all zeros or all ones (small value), or when its 17 high-order bits
// equal those of the address (pointer into the same 32K chunk).

// SmallValueMin and SmallValueMax bound the compressible small-value range.
const (
	SmallValueMin = compress.SmallMin // -16384
	SmallValueMax = compress.SmallMax // 16383
)

// CompressibleWord reports whether value, stored at addr, is compressible.
func CompressibleWord(value, addr uint32) bool {
	return compress.Compressible(value, addr)
}

// CompressWord encodes value (stored at addr) into the 16-bit compressed
// form: bit 15 is the VT flag (pointer vs small value), bits 14..0 the
// payload. ok is false when the value is incompressible.
func CompressWord(value, addr uint32) (compressed uint16, ok bool) {
	c, ok := compress.Compress(value, addr)
	return uint16(c), ok
}

// DecompressWord reconstructs the original word from its compressed form
// and the address it is read from.
func DecompressWord(compressed uint16, addr uint32) uint32 {
	return compress.Decompress(compress.Compressed(compressed), addr)
}

// CompressedLineWords returns the compressed transfer size, in 32-bit word
// units, of a sequence of words stored consecutively from base (each
// compressible word costs half a word of bandwidth).
func CompressedLineWords(words []uint32, base uint32) float64 {
	return float64(compress.LineHalves(words, base)) / 2
}

// Gate-depth figures of the combinational compressor/decompressor (§3.2).
const (
	CompressorGateDelay   = compress.CompressDelayGates   // 8
	DecompressorGateDelay = compress.DecompressDelayGates // 2
)

func compressWidth(value, addr uint32, payloadBits int) bool {
	return compress.CompressibleWidth(value, addr, payloadBits)
}

// CompressorDelays returns the named scheme's combinational gate-depth
// figures (compressor, decompressor), the latency axis of the zoo
// comparison.
func CompressorDelays(scheme string) (compressGates, decompressGates int, err error) {
	c, err := compress.Get(scheme)
	if err != nil {
		return 0, 0, err
	}
	return c.CompressorDelayGates(), c.DecompressorDelayGates(), nil
}
