// Package mach holds machine-level definitions shared by every part of the
// simulator: the 32-bit word, addresses, and cache line geometry helpers.
//
// The paper targets a 32-bit machine (SimpleScalar PISA); all values and
// addresses in this reproduction are 32 bits wide.
package mach

import (
	"fmt"
	"math/bits"
)

// Word is one 32-bit machine word, the unit of value compression.
type Word = uint32

// Addr is a 32-bit byte address.
type Addr = uint32

// WordBytes is the size of a machine word in bytes.
const WordBytes = 4

// WordAlign rounds a byte address down to its word boundary.
func WordAlign(a Addr) Addr { return a &^ (WordBytes - 1) }

// LineGeom describes the geometry of one cache level's lines.
type LineGeom struct {
	LineBytes int // bytes per cache line; power of two
}

// Words returns the number of machine words per line.
func (g LineGeom) Words() int { return g.LineBytes / WordBytes }

// LineAddr returns the address of the first byte of the line holding a.
func (g LineGeom) LineAddr(a Addr) Addr { return a &^ Addr(g.LineBytes-1) }

// WordIndex returns the word offset of a within its line.
func (g LineGeom) WordIndex(a Addr) int {
	return int(a&Addr(g.LineBytes-1)) / WordBytes
}

// Shift returns log2 of the line size, which Validate requires to be a
// power of two.
func (g LineGeom) Shift() uint { return uint(bits.TrailingZeros(uint(g.LineBytes))) }

// LineNumber returns the line-granularity address (address / line size).
// It shifts rather than divides: a runtime divisor costs a hardware divide
// on every cache probe.
func (g LineGeom) LineNumber(a Addr) Addr { return a >> g.Shift() }

// NumberToAddr converts a line number back to the line's base byte address.
func (g LineGeom) NumberToAddr(n Addr) Addr { return n << g.Shift() }

// Validate reports an error for impossible geometries.
func (g LineGeom) Validate() error {
	if g.LineBytes < WordBytes || g.LineBytes&(g.LineBytes-1) != 0 {
		return fmt.Errorf("mach: line size %d is not a power-of-two multiple of the word size", g.LineBytes)
	}
	return nil
}

// IsPow2 reports whether v is a power of two (and nonzero).
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }
