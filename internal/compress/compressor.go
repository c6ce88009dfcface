package compress

// This file generalises the paper's word codec into a pluggable line
// compressor: a Compressor turns a whole cache line into a bit-exact
// compressed image, reports its size in 16-bit half-words (the traffic
// unit of memsys.Stats), and models its combinational gate delay. The
// paper's scheme is the reference implementation; C-Pack, FPC and BDI are
// alternative points in the design space (cpack.go, fpc.go, bdi.go).
//
// All implementations are required to be deterministic and lossless:
// DecompressLine(CompressLine(w)) must reproduce w byte-identically, the
// emitted half-word count must equal LineHalves, and neither may exceed
// WorstCaseHalves. internal/verify and the per-scheme fuzzers enforce all
// three.

import (
	"fmt"
	"sort"
	"strings"

	"cppcache/internal/mach"
)

// Encoded is one compressed cache line image. Bits holds the packed
// payload, LSB-first within each byte; NBits is the exact bit length
// (len(Bits) == ceil(NBits/8)). Meta carries out-of-band control state
// that lives in tag metadata rather than on the bus — the paper's scheme
// stores its per-word VC flags there (§2.1: the VC flag is a tag bit, not
// part of the 16-bit compressed word); the other schemes keep everything
// in-band and leave Meta empty.
type Encoded struct {
	Bits  []byte
	NBits int
	Meta  []byte
}

// Halves returns the bus transfer size of the image in 16-bit half-words.
func (e Encoded) Halves() int { return (e.NBits + 15) / 16 }

// Compressor is one line-compression scheme. Implementations must be
// stateless across calls (any dictionary state is per-line) so that the
// same input always yields the same output.
type Compressor interface {
	// Name returns the scheme's registry name (lower-case).
	Name() string
	// LineHalves returns the compressed size, in half-words, of the words
	// stored consecutively from the word-aligned base address. It is the
	// allocation-free hot path used for traffic accounting and must equal
	// CompressLine(words, base).Halves().
	LineHalves(words []mach.Word, base mach.Addr) int
	// CompressLine encodes the line.
	CompressLine(words []mach.Word, base mach.Addr) Encoded
	// DecompressLine decodes enc into out (whose length fixes the word
	// count). It returns an error on a corrupt or truncated image.
	DecompressLine(enc Encoded, base mach.Addr, out []mach.Word) error
	// WorstCaseHalves bounds LineHalves for any line of nwords words.
	WorstCaseHalves(nwords int) int
	// CompressorDelayGates is the modelled combinational depth of the
	// compressor, in 2-input gate levels (the paper's §3.2 methodology).
	CompressorDelayGates() int
	// DecompressorDelayGates is the decompressor's modelled depth.
	DecompressorDelayGates() int
}

// WordCompressor is the capability interface of schemes that can compress
// a single 32-bit word to one half-word independently of its neighbours.
// The CPP hierarchy's half-slot architecture requires it (each word's VC
// flag is an independent tag bit); of the registered schemes only the
// paper's qualifies — C-Pack carries per-line dictionary state, FPC pairs
// adjacent words, and BDI encodes whole-line deltas.
type WordCompressor interface {
	Compressor
	// CompressibleWord reports whether v, stored at address a, compresses
	// to a single half-word on its own.
	CompressibleWord(v mach.Word, a mach.Addr) bool
}

// --- registry ---------------------------------------------------------------

var (
	schemeOrder []string
	schemeByKey = map[string]Compressor{}
)

// register adds a scheme at init time; duplicate names are a programming
// error.
func register(c Compressor) {
	key := strings.ToLower(c.Name())
	if _, dup := schemeByKey[key]; dup {
		panic("compress: duplicate scheme " + key)
	}
	schemeByKey[key] = c
	schemeOrder = append(schemeOrder, key)
}

func init() {
	register(paperScheme{})
	register(cpackScheme{})
	register(fpcScheme{})
	register(bdiScheme{})
}

// Schemes returns the registered scheme names in registration order
// (paper first).
func Schemes() []string { return append([]string(nil), schemeOrder...) }

// Default returns the paper's reference scheme.
func Default() Compressor { return paperScheme{} }

// Get resolves a scheme name case-insensitively; the empty string means
// the default (paper) scheme.
func Get(name string) (Compressor, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		return Default(), nil
	}
	if c, ok := schemeByKey[key]; ok {
		return c, nil
	}
	known := Schemes()
	sort.Strings(known)
	return nil, fmt.Errorf("compress: unknown scheme %q (known: %s)", name, strings.Join(known, ", "))
}

// --- bit-level packing ------------------------------------------------------

// bitWriter packs variable-width fields LSB-first within each byte.
type bitWriter struct {
	buf []byte
	n   int // bits written
}

// write appends the low `bits` bits of v (bits <= 64).
func (w *bitWriter) write(v uint64, bits int) {
	for bits > 0 {
		if w.n&7 == 0 {
			w.buf = append(w.buf, 0)
		}
		byteIdx, bitIdx := w.n>>3, w.n&7
		take := 8 - bitIdx
		if take > bits {
			take = bits
		}
		w.buf[byteIdx] |= byte(v&(1<<take-1)) << bitIdx
		v >>= take
		w.n += take
		bits -= take
	}
}

func (w *bitWriter) encoded() Encoded { return Encoded{Bits: w.buf, NBits: w.n} }

// bitReader reads fields written by bitWriter, erroring on overrun.
type bitReader struct {
	buf   []byte
	pos   int // next bit
	limit int // total valid bits
}

func newBitReader(e Encoded) *bitReader {
	limit := e.NBits
	if max := len(e.Bits) * 8; limit > max {
		limit = max
	}
	return &bitReader{buf: e.Bits, limit: limit}
}

func (r *bitReader) read(bits int) (uint64, error) {
	if r.pos+bits > r.limit {
		return 0, fmt.Errorf("compress: truncated image: need %d bits at offset %d of %d", bits, r.pos, r.limit)
	}
	var v uint64
	got := 0
	for got < bits {
		byteIdx, bitIdx := r.pos>>3, r.pos&7
		take := 8 - bitIdx
		if take > bits-got {
			take = bits - got
		}
		v |= uint64(r.buf[byteIdx]>>bitIdx&(1<<take-1)) << got
		r.pos += take
		got += take
	}
	return v, nil
}

// --- paper reference scheme -------------------------------------------------

// paperScheme adapts the paper's free-function word codec (compress.go) to
// the Compressor interface. Each compressible word is one 16-bit half on
// the bus; each incompressible word is two. The per-word VC flags travel
// in Meta — in hardware they are tag-metadata bits, never bus payload —
// so NBits is always a multiple of 16 and Halves() equals LineHalves
// exactly.
type paperScheme struct{}

func (paperScheme) Name() string { return "paper" }

func (paperScheme) LineHalves(words []mach.Word, base mach.Addr) int {
	return LineHalves(words, base)
}

func (paperScheme) WorstCaseHalves(nwords int) int { return 2 * nwords }

// CompressorDelayGates and DecompressorDelayGates report the §3.2 model
// (5-level reduction trees plus 3 selection levels; 2 levels to gate the
// prefix back on).
func (paperScheme) CompressorDelayGates() int   { return CompressDelayGates }
func (paperScheme) DecompressorDelayGates() int { return DecompressDelayGates }

func (paperScheme) CompressibleWord(v mach.Word, a mach.Addr) bool { return Compressible(v, a) }

func (paperScheme) CompressLine(words []mach.Word, base mach.Addr) Encoded {
	var w bitWriter
	meta := make([]byte, (len(words)+7)/8)
	for i, v := range words {
		a := base + mach.Addr(i*mach.WordBytes)
		if c, ok := Compress(v, a); ok {
			meta[i>>3] |= 1 << (i & 7) // VC flag: slot holds a compressed half
			w.write(uint64(c), 16)
		} else {
			w.write(uint64(v), 32)
		}
	}
	e := w.encoded()
	e.Meta = meta
	return e
}

func (paperScheme) DecompressLine(enc Encoded, base mach.Addr, out []mach.Word) error {
	if want := (len(out) + 7) / 8; len(enc.Meta) < want {
		return fmt.Errorf("compress: paper image missing VC metadata (%d bytes, need %d)", len(enc.Meta), want)
	}
	r := newBitReader(enc)
	for i := range out {
		a := base + mach.Addr(i*mach.WordBytes)
		if enc.Meta[i>>3]&(1<<(i&7)) != 0 {
			c, err := r.read(16)
			if err != nil {
				return err
			}
			out[i] = Decompress(Compressed(c), a)
		} else {
			v, err := r.read(32)
			if err != nil {
				return err
			}
			out[i] = mach.Word(v)
		}
	}
	return nil
}

var _ WordCompressor = paperScheme{}
