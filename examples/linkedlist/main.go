// Linkedlist reproduces the paper's motivating example (§2.2, Figures 5
// and 6): a linked list whose nodes hold two pointers, a small type field
// and one large "info" value. Under CPP, the three compressible fields of
// the next node ride along with each fetched line, so the traversal's
// cache miss moves off the critical pointer-chasing path and onto the
// rarely-needed info field.
//
// Run with:
//
//	go run ./examples/linkedlist
package main

import (
	"context"
	"fmt"

	"cppcache"
)

const (
	nodes    = 4096 // well past the 64K L2
	nodeSize = 64   // one node per L1 line, as Figure 5's allocator assumes
	typeT    = 1
	sweeps   = 3
)

// buildList constructs the Figure 5 workload: sum the info field of all
// nodes whose type field is T.
func buildList() *cppcache.Program {
	tb := cppcache.NewTraceBuilder(5)

	// struct node { node *next; int type; int info; node *prev; }
	addrs := make([]uint32, nodes)
	for i := range addrs {
		addrs[i] = tb.Alloc(nodeSize, nodeSize)
	}
	for i, a := range addrs {
		tb.SetPC(0x1000)
		next := uint32(0)
		if i+1 < nodes {
			next = addrs[i+1]
		}
		tb.Store(a+0, next, cppcache.NoReg, cppcache.NoReg)
		tb.Store(a+4, uint32(i%3), cppcache.NoReg, cppcache.NoReg) // type: T for 1/3 of nodes
		tb.Store(a+8, 0xDEAD0000|uint32(i)|0x8000, cppcache.NoReg, cppcache.NoReg)
		prev := uint32(0)
		if i > 0 {
			prev = addrs[i-1]
		}
		tb.Store(a+12, prev, cppcache.NoReg, cppcache.NoReg)
	}

	// while (p) { if (p->type == T) sum += p->info; p = p->next; }
	for s := 0; s < sweeps; s++ {
		cur := addrs[0]
		dep := cppcache.NoReg
		var sum cppcache.Reg = cppcache.NoReg
		for i := 0; cur != 0; i++ {
			tb.SetPC(0x2000)
			typ := tb.Load(cur+4, dep) // (1) type check
			isT := tb.Peek(cur+4) == typeT
			tb.Branch(typ, isT)
			if isT {
				tb.SetPC(0x2020)
				info := tb.Load(cur+8, dep) // (3) the big info field
				if sum == cppcache.NoReg {
					sum = info
				} else {
					sum = tb.ALU(sum, info)
				}
			}
			tb.SetPC(0x2040)
			next := tb.Load(cur+0, dep) // (2)/(4) chase the next pointer
			cur = tb.Peek(cur + 0)
			dep = next
		}
	}
	return tb.Program("figure5.linkedlist")
}

func main() {
	p := buildList()
	fmt.Printf("workload: %s, %d instructions\n\n", p.Name(), p.Len())
	fmt.Printf("%-5s %10s %10s %12s %10s %9s\n",
		"cfg", "cycles", "L1 misses", "aff hits", "traffic", "vs BC")

	var bcCycles int64
	for _, cfg := range cppcache.Configs() {
		res, _, err := cppcache.RunProgram(context.Background(), p, cfg, cppcache.Options{})
		if err != nil {
			panic(err)
		}
		if cfg == cppcache.BC {
			bcCycles = res.Cycles
		}
		fmt.Printf("%-5s %10d %10d %12d %10.0f %8.1f%%\n",
			cfg, res.Cycles, res.L1Misses, res.AffiliatedHitsL1,
			res.MemTrafficWords, 100*float64(res.Cycles)/float64(bcCycles))
	}

	fmt.Println("\nThe node's next/type/prev fields are compressible, so CPP")
	fmt.Println("prefetches them with the previous line: the pointer chase and")
	fmt.Println("type test hit in the affiliated line, and only the large info")
	fmt.Println("field - off the critical path - still misses (Figure 6).")
}
