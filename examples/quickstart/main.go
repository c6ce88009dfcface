// Quickstart: the value-compression scheme and a standalone CPP cache.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"cppcache"
)

func main() {
	// 1. The compression scheme (§2.1 of the paper): small values and
	// pointers sharing their address's 32K chunk compress to 16 bits.
	fmt.Println("-- value compression --")
	for _, v := range []struct {
		value, addr uint32
		what        string
	}{
		{42, 0x1000_0000, "small positive value"},
		{0xFFFF_FFF0, 0x1000_0000, "small negative value (-16)"},
		{0x1000_1ABC, 0x1000_0040, "pointer in the same 32K chunk"},
		{0xDEAD_8001, 0x1000_0000, "random large value"},
	} {
		c, ok := cppcache.CompressWord(v.value, v.addr)
		if ok {
			back := cppcache.DecompressWord(c, v.addr)
			fmt.Printf("%-32s 0x%08x -> 0x%04x -> 0x%08x\n", v.what, v.value, c, back)
		} else {
			fmt.Printf("%-32s 0x%08x -> incompressible\n", v.what, v.value)
		}
	}

	// 2. A standalone CPP hierarchy: write two consecutive lines of
	// compressible values, then force a conflict. CPP's two mechanisms
	// both show up: the conflicting fetch prefetches its own partner's
	// words into the freed half-slots, and the evicted line's words are
	// salvaged into ITS partner's frame (victim placement, §3.3) — so
	// what would be two 10-cycle L2 misses become 2- and 1-cycle hits.
	fmt.Println("\n-- partial cache line prefetching --")
	sys, err := cppcache.NewSystem(cppcache.CPP)
	if err != nil {
		panic(err)
	}
	base := uint32(0x1000_0000)
	for i := uint32(0); i < 32; i++ { // two 64-byte lines of small values
		sys.Write(base+i*4, i)
	}
	// Push both lines out of the L1 by touching conflicting addresses
	// (the 8K direct-mapped L1 aliases every 8K).
	sys.Read(base + (8 << 10))
	sys.Read(base + (8 << 10) + 64)

	_, lat0 := sys.Read(base)
	_, lat1 := sys.Read(base + 64)
	fmt.Printf("line 0 access after eviction: %3d cycles (salvaged into its affiliated place)\n", lat0)
	fmt.Printf("line 1 access right after:    %3d cycles (still resident: the conflict was absorbed)\n", lat1)

	snap := sys.Snapshot()
	fmt.Printf("affiliated hits: %d, words prefetched: %d\n",
		snap.AffiliatedHitsL1, snap.AffWordsPrefetched)

	// 3. One full benchmark run.
	fmt.Println("\n-- one benchmark, two configurations --")
	for _, cfg := range []cppcache.CacheConfig{cppcache.BC, cppcache.CPP} {
		res, _, err := cppcache.Run(context.Background(), "olden.health", cfg, cppcache.Options{Scale: 1})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-4s cycles=%-8d L1 miss rate=%5.2f%% traffic=%.0f words\n",
			cfg, res.Cycles, 100*res.L1MissRate(), res.MemTrafficWords)
	}
}
