package compress

// C-Pack (Chen, Wildani et al., "C-Pack: A High-Performance Microprocessor
// Cache Compression Algorithm", IEEE TVLSI 2010), the pattern-plus-
// dictionary scheme the DSCC and YACC cache models use. Each 32-bit word
// is classified against a small set of frequent patterns and a per-line
// FIFO dictionary of previously seen words:
//
//	zzzz  all-zero word                          2 bits
//	mmmm  full dictionary match                  6 bits (2 code + 4 index)
//	zzzx  zero except the low byte              12 bits (4 code + 8)
//	mmmx  dictionary match except the low byte  16 bits (4 code + 4 + 8)
//	mmxx  dictionary match on the high half     24 bits (4 code + 4 + 16)
//	xxxx  no match, emitted raw                 34 bits (2 code + 32)
//
// The dictionary starts empty for every line, holds up to 16 entries and
// is pushed (FIFO, no replacement once full) with every word that is not
// a z-pattern — including full matches, mirroring the reference encoder.
// The decoder replays the same pushes after each emit, so both sides walk
// identical dictionary states without any side channel.
//
// Unlike the paper's scheme, C-Pack is value-only: the base address never
// influences the encoding, so pointer-heavy lines compress only as well
// as their raw bit patterns allow.

import (
	"fmt"

	"cppcache/internal/mach"
)

const (
	cpackDictEntries = 16
	cpackDictIdxBits = 4
)

// Word classes, in the code space used by the packed form: a 2-bit major
// code (0 = zzzz, 1 = xxxx, 2 = mmmm, 3 = extended) where the extended
// class carries a 2-bit minor code (0 = mmxx, 1 = zzzx, 2 = mmmx).
const (
	cpZZZZ = iota
	cpZZZX
	cpMMMM
	cpMMMX
	cpMMXX
	cpXXXX
)

// cpackBits is the total encoded size of each class.
var cpackBits = [...]int{cpZZZZ: 2, cpZZZX: 12, cpMMMM: 6, cpMMMX: 16, cpMMXX: 24, cpXXXX: 34}

// cpackClassify matches w against the patterns and the first n dictionary
// entries: an exact entry wins (mmmm); otherwise a 3-byte match (mmmx),
// else a 2-byte match (mmxx), else raw. The class follows from the
// smallest XOR of w with an entry: 0 is a full match, below 0x100 the
// high three bytes match, below 0x1_0000 the high two do.
func cpackClassify(w mach.Word, dict *[cpackDictEntries]mach.Word, n int) int {
	if w == 0 {
		return cpZZZZ
	}
	if w&0xFFFF_FF00 == 0 {
		return cpZZZX
	}
	x := ^mach.Word(0)
	for _, d := range dict[:n] {
		x = min(x, d^w)
	}
	switch {
	case x == 0:
		return cpMMMM
	case x < 0x100:
		return cpMMMX
	case x < 0x1_0000:
		return cpMMXX
	}
	return cpXXXX
}

// cpackMatchXOR bounds the XOR of a word with the entry its class
// matches; the classes that encode no index have none.
var cpackMatchXOR = [...]mach.Word{cpMMMM: 1, cpMMMX: 0x100, cpMMXX: 0x1_0000, cpXXXX: 0}

// cpackMatch returns the dictionary index a word of the given class
// encodes: the first of the n entries that matches it that closely (0
// for the classes without an index).
func cpackMatch(kind int, w mach.Word, dict *[cpackDictEntries]mach.Word, n int) int {
	limit := cpackMatchXOR[kind]
	for i, d := range dict[:n] {
		if d^w < limit {
			return i
		}
	}
	return 0
}

// cpackPushes reports whether a word of the given class enters the
// dictionary (every non-z-pattern word does).
func cpackPushes(kind int) bool { return kind != cpZZZZ && kind != cpZZZX }

// cpackScan walks the line through the classifier, maintaining the
// dictionary, and returns the total encoded bit count. emit, when
// non-nil, receives each word's classification and match index in order;
// sizing alone never looks an index up.
func cpackScan(words []mach.Word, emit func(kind, idx int, w mach.Word)) int {
	var dict [cpackDictEntries]mach.Word
	n, bits := 0, 0
	for _, w := range words {
		kind := cpackClassify(w, &dict, n)
		if emit != nil {
			emit(kind, cpackMatch(kind, w, &dict, n), w)
		}
		if cpackPushes(kind) && n < cpackDictEntries {
			dict[n] = w
			n++
		}
		bits += cpackBits[kind]
	}
	return bits
}

type cpackScheme struct{}

func (cpackScheme) Name() string { return "cpack" }

func (cpackScheme) LineHalves(words []mach.Word, _ mach.Addr) int {
	return (cpackScan(words, nil) + 15) / 16
}

func (cpackScheme) WorstCaseHalves(nwords int) int {
	return (cpackBits[cpXXXX]*nwords + 15) / 16
}

// Gate-delay model: the compressor's critical path is the 16-entry
// dictionary CAM (a 32-bit XNOR compare, 5-level reduction, in parallel
// across entries), a 4-level priority encoder over the entries, the
// pattern detectors (running in parallel, shallower), and ~2 levels of
// final code selection — ~11 levels, deeper than the paper's 8 because of
// the priority encode. The decompressor indexes the dictionary (4-level
// decode + mux) and splices the low bytes back in (~2 levels).
const (
	cpackCompressDelayGates   = 11
	cpackDecompressDelayGates = 6
)

func (cpackScheme) CompressorDelayGates() int   { return cpackCompressDelayGates }
func (cpackScheme) DecompressorDelayGates() int { return cpackDecompressDelayGates }

func (cpackScheme) CompressLine(words []mach.Word, _ mach.Addr) Encoded {
	var bw bitWriter
	cpackScan(words, func(kind, idx int, w mach.Word) {
		switch kind {
		case cpZZZZ:
			bw.write(0b00, 2)
		case cpXXXX:
			bw.write(0b01, 2)
			bw.write(uint64(w), 32)
		case cpMMMM:
			bw.write(0b10, 2)
			bw.write(uint64(idx), cpackDictIdxBits)
		case cpMMXX:
			bw.write(0b11, 2)
			bw.write(0b00, 2)
			bw.write(uint64(idx), cpackDictIdxBits)
			bw.write(uint64(w&0xFFFF), 16)
		case cpZZZX:
			bw.write(0b11, 2)
			bw.write(0b01, 2)
			bw.write(uint64(w&0xFF), 8)
		case cpMMMX:
			bw.write(0b11, 2)
			bw.write(0b10, 2)
			bw.write(uint64(idx), cpackDictIdxBits)
			bw.write(uint64(w&0xFF), 8)
		}
	})
	return bw.encoded()
}

func (cpackScheme) DecompressLine(enc Encoded, _ mach.Addr, out []mach.Word) error {
	r := newBitReader(enc)
	var dict [cpackDictEntries]mach.Word
	n := 0
	lookup := func(idx uint64) (mach.Word, error) {
		if int(idx) >= n {
			return 0, fmt.Errorf("compress: cpack dictionary index %d out of range (%d entries)", idx, n)
		}
		return dict[idx], nil
	}
	for i := range out {
		code, err := r.read(2)
		if err != nil {
			return err
		}
		var w mach.Word
		push := true
		switch code {
		case 0b00: // zzzz
			w, push = 0, false
		case 0b01: // xxxx
			v, err := r.read(32)
			if err != nil {
				return err
			}
			w = mach.Word(v)
		case 0b10: // mmmm
			idx, err := r.read(cpackDictIdxBits)
			if err != nil {
				return err
			}
			if w, err = lookup(idx); err != nil {
				return err
			}
		case 0b11:
			sub, err := r.read(2)
			if err != nil {
				return err
			}
			switch sub {
			case 0b00: // mmxx
				idx, err := r.read(cpackDictIdxBits)
				if err != nil {
					return err
				}
				lo, err2 := r.read(16)
				if err2 != nil {
					return err2
				}
				d, err3 := lookup(idx)
				if err3 != nil {
					return err3
				}
				w = d&0xFFFF_0000 | mach.Word(lo)
			case 0b01: // zzzx
				lo, err := r.read(8)
				if err != nil {
					return err
				}
				w, push = mach.Word(lo), false
			case 0b10: // mmmx
				idx, err := r.read(cpackDictIdxBits)
				if err != nil {
					return err
				}
				lo, err2 := r.read(8)
				if err2 != nil {
					return err2
				}
				d, err3 := lookup(idx)
				if err3 != nil {
					return err3
				}
				w = d&0xFFFF_FF00 | mach.Word(lo)
			default:
				return fmt.Errorf("compress: cpack reserved code 11-11 at word %d", i)
			}
		}
		if push && n < cpackDictEntries {
			dict[n] = w
			n++
		}
		out[i] = w
	}
	return nil
}
