// Treeadd runs the olden.treeadd workload across all five cache
// configurations and prints a Figure 11-style comparison row.
//
// Run with:
//
//	go run ./examples/treeadd [-scale 2]
package main

import (
	"context"
	"flag"
	"fmt"

	"cppcache"
)

func main() {
	scale := flag.Int("scale", 1, "workload scale")
	flag.Parse()

	fmt.Printf("%-5s %12s %8s %12s %12s %12s\n",
		"cfg", "cycles", "IPC", "L1 misses", "L2 misses", "traffic")
	var base float64
	for _, cfg := range cppcache.Configs() {
		res, _, err := cppcache.Run(context.Background(), "olden.treeadd", cfg, cppcache.Options{Scale: *scale})
		if err != nil {
			panic(err)
		}
		if cfg == cppcache.BC {
			base = float64(res.Cycles)
		}
		fmt.Printf("%-5s %12d %8.3f %12d %12d %12.0f   (%.2fx BC)\n",
			cfg, res.Cycles, res.IPC, res.L1Misses, res.L2Misses,
			res.MemTrafficWords, float64(res.Cycles)/base)
	}
}
