// Sweep explores the CPP design space with the public ablation API: the
// affiliated-line mask (which line is paired with which) and the victim
// placement policy (§3.3), plus the compressed-width study.
//
// Run with:
//
//	go run ./examples/sweep [-bench olden.health] [-scale 1]
package main

import (
	"context"
	"flag"
	"fmt"

	"cppcache"
)

func main() {
	bench := flag.String("bench", "olden.health", "benchmark to sweep")
	scale := flag.Int("scale", 1, "workload scale")
	flag.Parse()
	opts := cppcache.Options{Scale: *scale}

	fmt.Printf("== affiliated-line mask sweep (%s) ==\n", *bench)
	fmt.Printf("%-10s %12s %12s %14s\n", "mask", "cycles", "aff hits", "prefetched")
	for _, mask := range []uint32{0x1, 0x2, 0x4, 0x8} {
		res, _, err := cppcache.Run(context.Background(), *bench, cppcache.CPPVariant(mask, true), opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%#-10x %12d %12d %14d\n",
			mask, res.Cycles, res.AffiliatedHitsL1, res.AffWordsPrefetched)
	}

	fmt.Printf("\n== victim placement ablation (%s) ==\n", *bench)
	for _, vp := range []bool{true, false} {
		res, _, err := cppcache.Run(context.Background(), *bench, cppcache.CPPVariant(0x1, vp), opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("victimPlacement=%-5v cycles=%-10d L1 misses=%-8d traffic=%.0f\n",
			vp, res.Cycles, res.L1Misses, res.MemTrafficWords)
	}

	fmt.Println("\n== compressed-width study (synthetic value mix) ==")
	fmt.Println("payload bits -> fraction of a pointer+small+random mix compressible")
	vals := make([]uint32, 0, 3000)
	addrs := make([]uint32, 0, 3000)
	for i := 0; i < 1000; i++ {
		a := uint32(0x1000_0000 + i*64)
		vals = append(vals, uint32(i%100), a&^0x7FFF|uint32(i%0x8000)&^3, 0x9E37_79B9*uint32(i+1))
		addrs = append(addrs, a, a+4, a+8)
	}
	for _, w := range []int{7, 11, 15, 23, 31} {
		comp := 0
		for i := range vals {
			if cppcache.CompressibleWordWidth(vals[i], addrs[i], w) {
				comp++
			}
		}
		marker := ""
		if w == 15 {
			marker = "   <- the paper's choice"
		}
		fmt.Printf("  %2d bits: %5.1f%%%s\n", w, 100*float64(comp)/float64(len(vals)), marker)
	}
}
