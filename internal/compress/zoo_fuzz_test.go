package compress

// Per-scheme roundtrip fuzzers. Each target asserts the cross-scheme
// property on arbitrary byte-derived lines: the decompressed output is
// byte-identical to the input, the size function matches the emitted
// image, and the compressed size never exceeds the scheme's declared
// worst case. CI runs each target as a smoke on every push: 10 seconds
// for the paper's scheme, 30 for the others.

import (
	"encoding/binary"
	"reflect"
	"testing"

	"cppcache/internal/mach"
)

// fuzzSeedLines are shared corpus seeds covering the interesting value
// classes: zeros, repeats, small values, pointer-like words, narrow
// deltas, dictionary near-matches and dense entropy.
var fuzzSeedLines = [][]byte{
	make([]byte, 64),
	{0xEF, 0xBE, 0xAD, 0xDE, 0xEF, 0xBE, 0xAD, 0xDE},
	{0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00},
	{0x00, 0x01, 0x00, 0x40, 0x10, 0x01, 0x00, 0x40, 0x20, 0x01, 0x00, 0x40},
	{0xBE, 0xBA, 0xFE, 0xCA, 0x00, 0xBA, 0xFE, 0xCA, 0xFF, 0xFF, 0xFF, 0xFF},
	{0x78, 0x56, 0x34, 0x12, 0xEF},
}

// fuzzRoundtrip converts the fuzz bytes into a word line (up to 32 words,
// little-endian; a ragged tail is zero-padded into the final word) and
// asserts the full contract for one scheme.
func fuzzRoundtrip(f *testing.F, scheme string) {
	for _, line := range fuzzSeedLines {
		f.Add(line, uint32(0x1000_0000))
	}
	c, err := Get(scheme)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, base uint32) {
		if len(data) == 0 {
			return
		}
		if len(data) > 32*mach.WordBytes {
			data = data[:32*mach.WordBytes]
		}
		n := (len(data) + mach.WordBytes - 1) / mach.WordBytes
		padded := make([]byte, n*mach.WordBytes)
		copy(padded, data)
		words := make([]mach.Word, n)
		for i := range words {
			words[i] = mach.Word(binary.LittleEndian.Uint32(padded[i*mach.WordBytes:]))
		}
		lineBase := mach.Addr(base) &^ (mach.WordBytes - 1)

		enc := c.CompressLine(words, lineBase)
		if h := c.LineHalves(words, lineBase); h != enc.Halves() {
			t.Fatalf("%s: LineHalves=%d, image=%d halves (%d bits)", scheme, h, enc.Halves(), enc.NBits)
		}
		if w := c.WorstCaseHalves(len(words)); enc.Halves() > w {
			t.Fatalf("%s: %d halves exceeds worst case %d for %d words", scheme, enc.Halves(), w, len(words))
		}
		out := make([]mach.Word, len(words))
		if err := c.DecompressLine(enc, lineBase, out); err != nil {
			t.Fatalf("%s: decompress: %v", scheme, err)
		}
		if !reflect.DeepEqual(out, words) {
			t.Fatalf("%s: roundtrip mismatch:\n in  %#v\n out %#v", scheme, words, out)
		}
	})
}

// FuzzPaperRoundtrip covers the paper's line sizing, the default size
// function of BCC and LCC; FuzzCompressRoundtrip covers its word codec.
func FuzzPaperRoundtrip(f *testing.F) { fuzzRoundtrip(f, "paper") }

func FuzzCPackRoundtrip(f *testing.F) { fuzzRoundtrip(f, "cpack") }

func FuzzFPCRoundtrip(f *testing.F) { fuzzRoundtrip(f, "fpc") }

func FuzzBDIRoundtrip(f *testing.F) { fuzzRoundtrip(f, "bdi") }
